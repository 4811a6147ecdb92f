"""Discrete dynamics w -> w(F(.)) for convex contracting maps F.

A map F with 0 < F' < 1, F'' >= 0 pulls survival profiles toward its fixed
point; composing with a moment normalization gives a discrete analogue of
the rescaled coarsening flow.  The induced action on the beta function obeys
T_F beta(x) <= beta(F(x)), with equality for affine F, which is the engine
behind the uniform Jensen constants along the iteration.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DegenerateImageError
from .profiles import (BetaProfile, SurvivalProfile, TailModel, beta_from_profile, beta_envelope,
                       quantile_cells, quantile_positions, write_csv)
from .families import QUANTILE_DEEP, QUANTILE_PER_HALVING, quantile_grid, quantile_levels


@dataclass(frozen=True)
class MapF:
    """Convex increasing map with 0 < F' < 1 and F(0) > 0; ``finv`` inverts it."""

    name: str
    f: Callable
    fprime: Callable
    finv: Callable

    def __post_init__(self):
        xs = np.linspace(0.0, 50.0, 201)
        fp = self.fprime(xs)
        if not self.f(0.0) > 0:
            raise ConfigError(f"map {self.name!r}: F(0) must be positive")
        if np.any(fp <= 0) or np.any(fp >= 1):
            raise ConfigError(f"map {self.name!r}: F' must lie strictly in (0, 1)")
        if np.any(np.diff(fp) < -1e-12):
            raise ConfigError(f"map {self.name!r}: F must be convex (F' nondecreasing)")
        if np.any(self.f(np.nextafter(xs, np.inf)) < self.f(xs)):
            raise ConfigError(f"map {self.name!r}: F must not decrease between adjacent floats")
        if not np.allclose(self.finv(self.f(xs)), xs, rtol=1e-12, atol=1e-12):
            raise ConfigError(f"map {self.name!r}: finv must invert f")

    def __call__(self, x):
        return self.f(np.asarray(x, float))

    def inverse(self, y):
        """F^{-1}(y) >= 0 for y >= F(0); a scalar y gives a float."""
        y = np.asarray(y, dtype=float)
        if np.any(y < float(self.f(0.0)) * (1 - 1e-12)):
            raise ValueError("inverse requested below F(0)")
        x = np.maximum(self.finv(y), 0.0)
        return float(x) if x.ndim == 0 else x


def linear_map(lam: float) -> MapF:
    if not 0 < lam < 1:
        raise ConfigError("linear map requires slope in (0, 1)")
    return MapF(
        name=f"linear({lam:g})",
        f=lambda x: (1.0 - lam) + lam * np.asarray(x, float),
        fprime=lambda x: np.full_like(np.asarray(x, float), lam),
        finv=lambda y: (np.asarray(y, float) - (1.0 - lam)) / lam,
    )


_CUBE_ROOT_F0 = 2.0 ** (1.0 / 3.0) - 1.0
_ONE_ROOT = 2.0 / np.sqrt(27.0)  # above it, t^3 - t = q has one real root


def _cube_root_f(x):
    # F(0) + x (1 - 1/(t(t + 1) + 1)) for t = (1 + x)^(1/3): each operation is
    # monotone, so F does not decrease between floats, as w(F(.)) needs
    t = np.cbrt(1.0 + x)
    return _CUBE_ROOT_F0 + x * (1.0 - 1.0 / (t * (t + 1.0) + 1.0))


def _cube_root_inverse(y):
    """x >= 0 with F(x) = y >= F(0) for the cube-root map, within 0.7 ulp.

    t = (1 + x)^(1/3) solves t^3 - t = q = y - F(0), and x = q + v, v = t - 1.
    Up to q = 2/sqrt(27), t = 2/sqrt(3) cos(arccos(q sqrt(27)/2)/3), whose v
    is the product of sines below, exact at q = 0; above, Cardano's
    t = A + 1/(3A), A^3 = (q/2)(1 + sqrt(1 - (2/(sqrt(27) q))^2)).  One Newton
    step on v d = q, d = 2 + v(3 + v), also corrects the rounding of y - F(0).
    """
    y = np.asarray(y, float)
    q = y - _CUBE_ROOT_F0
    err = (y - q) - _CUBE_ROOT_F0  # exact: q + err = y - F(0)
    v = np.empty_like(q)
    low = q <= _ONE_ROOT
    phi = np.arcsin(np.minimum(q[low] / _ONE_ROOT, 1.0)) / 6.0
    v[low] = (4.0 / np.sqrt(3.0)) * np.sin(phi) * np.sin(np.pi / 6.0 - phi)
    high = q[~low]
    a = np.cbrt(0.5 * high * (1.0 + np.sqrt(1.0 - (_ONE_ROOT / np.minimum(high, 1e100)) ** 2)))
    v[~low] = a + (1.0 / 3.0) / a - 1.0
    d = 2.0 + v * (3.0 + v)
    v -= ((v - q / d) * d - err) / (2.0 + v * (6.0 + 3.0 * v))  # v d - q - err, with no v^3
    return q + (v + err)


def cube_root_map() -> MapF:
    """F(x) = 2^(1/3) + x - (1+x)^(1/3); fixes 1, with F'(x) -> 1 at infinity."""
    return MapF(
        name="cube-root",
        f=_cube_root_f,
        fprime=lambda x: 1.0 - (1.0 / 3.0) * np.power(1.0 + np.asarray(x, float), -2.0 / 3.0),
        finv=_cube_root_inverse,
    )


def apply_map(profile: SurvivalProfile, F: MapF, n_grid: int = 2048) -> SurvivalProfile:
    """Image profile x -> w(F(x)), resampled onto a fresh quantile grid.

    The image is piecewise linear through (F^{-1}(y), w(y)) over y = F(0) and
    every source node beyond it, less each node whose image repeats its
    predecessor's, and continued by the source tail; the new grid reads its
    quantile levels from these nodes.
    """
    f0 = float(F(0.0))
    if f0 >= profile.sup_x:
        raise DegenerateImageError(
            f"F(0)={f0:g} at or beyond the support end {profile.sup_x:g}"
        )
    mask = profile.grid >= f0
    x = np.concatenate(([0.0], F.inverse(profile.grid[mask])))  # F^{-1}(F(0)) = 0
    keep = np.concatenate(([True], np.diff(x) > 0.0))
    x = x[keep]
    # as SurvivalProfile scrubs rounding-level increases and ends a tail at a zero
    vals = np.minimum.accumulate(np.concatenate(([profile.w_at(f0)], profile.values[mask]))[keep])
    tail = profile.tail if vals[-1] > 0.0 else TailModel.compact()
    if tail.kind == "exponential":
        tail = TailModel.exponential(tail.param * float(F.fprime(x[-1])))
    # the levels quantile_grid reads, by the call that shares its cached array
    target = quantile_levels(QUANTILE_PER_HALVING, QUANTILE_DEEP) * vals[0]
    in_tail, j = quantile_cells(vals, target)
    xq = quantile_positions(target, in_tail, j, vals, x[j], x[j + 1], float(x[-1]), tail)
    # a compact image ends at its first zero value, or at its last node
    end = float(x[min(np.count_nonzero(vals > 0.0), len(x) - 1)])
    grid = quantile_grid(lambda levels: xq, n=n_grid,
                         support_end=end if tail.kind == "compact" else None)
    # evaluate w(F(.)) from the source profile directly: composing with the
    # image's interpolant would stack a second interpolation and amplify
    # curvature noise
    new_vals = profile.w_at(F(grid))
    return SurvivalProfile(grid, new_vals, tail)


def beta_transform(profile: SurvivalProfile, F: MapF) -> BetaProfile:
    """The induced action on beta evaluated directly from its integral form.

    T_F beta(x) = beta(F(x)) F'(x) * int_{F(x)}^inf w(z)/F'(F^{-1}(z)) dz
                  / int_{F(x)}^inf w(z) dz.
    """
    f0 = float(F(0.0))
    if f0 >= profile.sup_x:
        raise DegenerateImageError("image is constant; beta transform undefined")
    beta = beta_from_profile(profile)
    mask = (profile.grid >= f0) & (profile.grid < beta.grid[-1])
    z = np.concatenate(([f0], profile.grid[mask]))
    wz = np.concatenate(([profile.w_at(f0)], profile.values[mask]))
    xz = np.concatenate(([0.0], F.inverse(z[1:])))
    phi = wz / F.fprime(xz)
    # suffix integrals of w/F' and w on the z-grid, plus tail corrections
    dz = np.diff(z)
    cells_phi = 0.5 * (phi[:-1] + phi[1:]) * dz
    suffix_phi = np.concatenate((np.cumsum(cells_phi[::-1])[::-1], [0.0]))
    h = profile.h_at(z)
    tail_h = float(h[-1])
    suffix_phi = suffix_phi + tail_h / float(F.fprime(xz[-1]))
    with np.errstate(divide="ignore", invalid="ignore"):
        tb = beta.at(z) * F.fprime(xz) * suffix_phi / h
    ok = h > 0
    low = np.zeros(len(xz), dtype=bool)
    low[~ok] = True
    low[-2:] = low[-2:] | (profile.tail.kind == "compact")
    sup_end = F.inverse(profile.sup_x) if np.isfinite(profile.sup_x) else np.inf
    return BetaProfile(grid=xz, values=np.where(ok, tb, 0.0),
                       support_end=float(sup_end) if np.isfinite(sup_end) else np.inf,
                       low_confidence=low)


def normalize(profile: SurvivalProfile, rho: float, K: float) -> tuple[float, SurvivalProfile]:
    """Dilation lam with <(lam X)^rho>^(1/rho) = K; returns (lam, dilated)."""
    if not 0 < rho <= 1:
        raise ValueError("rho must be in (0, 1]")
    if not K > 0:
        raise ValueError("K must be positive")
    m = profile.moment(rho)
    lam = K / m ** (1.0 / rho)
    return lam, profile.dilate(lam)


@dataclass
class IterationHistory:
    n: list = field(default_factory=list)
    lam: list = field(default_factory=list)
    mean: list = field(default_factory=list)
    sup_beta: list = field(default_factory=list)
    inf_beta: list = field(default_factory=list)
    ratio_third: list = field(default_factory=list)
    ratio_half: list = field(default_factory=list)
    ratio_two_thirds: list = field(default_factory=list)
    final_profile: Optional[SurvivalProfile] = None

    def save(self, path: str | Path) -> None:
        write_csv(path, "n,lambda,mean,sup_beta,inf_beta,ratio_third,ratio_half,ratio_two_thirds",
                  (self.n, self.lam, self.mean, self.sup_beta, self.inf_beta,
                   self.ratio_third, self.ratio_half, self.ratio_two_thirds))


def iterate(profile0: SurvivalProfile, F: MapF, rho: float, K: float,
            n_steps: int, n_grid: int = 2048) -> IterationHistory:
    """Run (normalize then map) n_steps times, recording the beta envelope.

    The recorded moment ratios <X^a>/<X>^a for a in {1/3, 1/2, 2/3} are the
    quantities the uniform Jensen bounds control along the iteration.  Each
    recorded state takes its three moments in one pass over its cells, and
    memoizes them, so ``normalize`` with rho among them reads the memo.
    """
    hist = IterationHistory()
    prof, lam = profile0, 1.0
    for n in range(n_steps + 1):
        lo, hi = beta_envelope(prof)
        mean = prof.mean
        third, half, two_thirds = prof.moments((1.0 / 3.0, 0.5, 2.0 / 3.0))
        hist.n.append(n)
        hist.lam.append(lam)
        hist.mean.append(mean)
        hist.sup_beta.append(hi)
        hist.inf_beta.append(lo)
        hist.ratio_third.append(third / mean ** (1.0 / 3.0))
        hist.ratio_half.append(half / np.sqrt(mean))
        hist.ratio_two_thirds.append(two_thirds / mean ** (2.0 / 3.0))
        if n == n_steps:
            break
        lam, dilated = normalize(prof, rho, K)
        if float(F(0.0)) >= dilated.sup_x:
            raise DegenerateImageError(
                f"step {n}: F(0) >= lam*||X||_inf after normalization"
            )
        prof = apply_map(dilated, F, n_grid=n_grid)
    hist.final_profile = prof
    return hist
