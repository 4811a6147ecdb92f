"""Discrete dynamics w -> w(F(.)) for convex contracting maps F.

A map F with 0 < F' < 1, F'' >= 0 pulls survival profiles toward its fixed
point; composing with a moment normalization gives a discrete analogue of
the rescaled coarsening flow.  The induced action on the beta function obeys
T_F beta(x) <= beta(F(x)), with equality for affine F, which is the engine
behind the uniform Jensen constants along the iteration.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ConvergenceWarning, DegenerateImageError
from .profiles import (BetaProfile, SurvivalProfile, TailModel, beta_from_profile, beta_envelope,
                       quantile_cells, quantile_positions, write_csv)
from .families import QUANTILE_DEEP, QUANTILE_PER_HALVING, quantile_grid, quantile_levels

_NEWTON_CAP = 60


@dataclass(frozen=True)
class MapF:
    """Convex increasing map with 0 < F' < 1 and F(0) > 0."""

    name: str
    f: Callable
    fprime: Callable

    def __post_init__(self):
        xs = np.linspace(0.0, 50.0, 201)
        fp = self.fprime(xs)
        if not self.f(0.0) > 0:
            raise ConfigError(f"map {self.name!r}: F(0) must be positive")
        if np.any(fp <= 0) or np.any(fp >= 1):
            raise ConfigError(f"map {self.name!r}: F' must lie strictly in (0, 1)")
        if np.any(np.diff(fp) < -1e-12):
            raise ConfigError(f"map {self.name!r}: F must be convex (F' nondecreasing)")

    def __call__(self, x):
        return self.f(np.asarray(x, float))

    def inverse(self, y):
        """F^{-1} by Newton from the convexity bound; y must be >= F(0).

        Convexity gives F(x) >= F(0) + F'(0) x, so x0 = (y - F(0))/F'(0) lies
        at or right of the root, and Newton on a convex increasing F decreases
        from there onto the root.  An entry is done once its step (clamped at
        0) no longer decreases it, which is its rounding floor; entries still
        moving after the iteration cap are reported in a ConvergenceWarning.
        """
        y = np.asarray(y, dtype=float)
        f0 = float(self.f(0.0))
        if np.any(y < f0 * (1 - 1e-12)):
            raise ValueError("inverse requested below F(0)")
        x = np.maximum((y - f0) / float(self.fprime(0.0)), 0.0)
        for _ in range(_NEWTON_CAP):
            new = np.maximum(x - (self.f(x) - y) / self.fprime(x), 0.0)
            moving = new < x
            if not moving.any():
                break
            x = np.where(moving, new, x)
        else:
            warnings.warn(f"MapF.inverse: {int(np.count_nonzero(moving))} of {moving.size} "
                          f"entries did not converge in {_NEWTON_CAP} Newton iterations",
                          ConvergenceWarning, stacklevel=2)
        return float(x) if x.ndim == 0 else x


def linear_map(lam: float) -> MapF:
    if not 0 < lam < 1:
        raise ConfigError("linear map requires slope in (0, 1)")
    return MapF(
        name=f"linear({lam:g})",
        f=lambda x: (1.0 - lam) + lam * np.asarray(x, float),
        fprime=lambda x: np.full_like(np.asarray(x, float), lam),
    )


def cube_root_map() -> MapF:
    """F(x) = 2^(1/3) + x - (1+x)^(1/3); fixes 1, with F'(x) -> 1 at infinity."""
    return MapF(
        name="cube-root",
        f=lambda x: 2.0 ** (1.0 / 3.0) + np.asarray(x, float) - np.cbrt(1.0 + np.asarray(x, float)),
        fprime=lambda x: 1.0 - (1.0 / 3.0) * np.power(1.0 + np.asarray(x, float), -2.0 / 3.0),
    )


def apply_map(profile: SurvivalProfile, F: MapF, n_grid: int = 2048) -> SurvivalProfile:
    """Image profile x -> w(F(x)), resampled onto a fresh quantile grid.

    The image is piecewise linear through (F^{-1}(y), w(y)) over y = F(0) and
    the source nodes beyond it, continued by the source tail; the new grid
    reads it only at its quantile levels.  So F is inverted only at the ends
    of the cells holding those levels, the last node and a compact support
    end: at most 2 * 360 + 2 nodes of the ~2,000.
    """
    f0 = float(F(0.0))
    if f0 >= profile.sup_x:
        raise DegenerateImageError(
            f"F(0)={f0:g} at or beyond the support end {profile.sup_x:g}"
        )
    mask = profile.grid >= f0
    y = np.concatenate(([f0], profile.grid[mask]))
    # as SurvivalProfile scrubs rounding-level increases and ends a tail at a zero
    vals = np.minimum.accumulate(np.concatenate(([profile.w_at(f0)], profile.values[mask])))
    tail = profile.tail if vals[-1] > 0.0 else TailModel.compact()
    # the levels quantile_grid reads, by the call that shares its cached array
    target = quantile_levels(QUANTILE_PER_HALVING, QUANTILE_DEEP) * vals[0]
    in_tail, j = quantile_cells(vals, target)
    read = np.zeros(len(y), dtype=bool)
    read[j] = True
    read[j + 1] = True
    # the support end: the first zero value, or the last node
    end = len(y) - 1 if vals[-1] > 0.0 else int(np.count_nonzero(vals > 0.0))
    read[[-1, end]] = True
    read[0] = False  # F^{-1}(F(0)) = 0
    x = np.zeros(len(y))
    x[read] = F.inverse(y[read])
    if tail.kind == "exponential":
        tail = TailModel.exponential(tail.param * float(F.fprime(x[-1])))
    xq = quantile_positions(target, in_tail, j, vals, x[j], x[j + 1], float(x[-1]), tail)
    grid = quantile_grid(lambda levels: xq, n=n_grid,
                         support_end=float(x[end]) if tail.kind == "compact" else None)
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
