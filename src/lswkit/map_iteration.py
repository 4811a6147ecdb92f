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
                       write_csv)
from .families import quantile_grid


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
        """Vectorized bisection for F^{-1}; y must be >= F(0)."""
        y = np.asarray(y, dtype=float)
        f0 = float(self.f(0.0))
        if np.any(y < f0 * (1 - 1e-12)):
            raise ValueError("inverse requested below F(0)")
        fp0 = float(self.fprime(0.0))
        lo = np.zeros_like(y)
        hi = np.full_like(y, (float(np.max(y)) - f0) / fp0 + 1.0)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = self.f(mid) < y
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        out = 0.5 * (lo + hi)
        return float(out) if out.ndim == 0 else out


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
    """Image profile x -> w(F(x)), resampled onto a fresh quantile grid."""
    f0 = float(F(0.0))
    if f0 >= profile.sup_x:
        raise DegenerateImageError(
            f"F(0)={f0:g} at or beyond the support end {profile.sup_x:g}"
        )
    mask = profile.grid >= f0
    y = np.concatenate(([f0], profile.grid[mask]))
    vals = np.concatenate(([profile.w_at(f0)], profile.values[mask]))
    x = np.concatenate(([0.0], F.inverse(y[1:])))
    keep = np.concatenate(([True], np.diff(x) > 0))
    x, vals = x[keep], vals[keep]
    x[0] = 0.0
    tail = profile.tail
    if tail.kind == "exponential":
        tail = TailModel.exponential(tail.param * float(F.fprime(x[-1])))
    raw = SurvivalProfile(x, vals, tail)
    grid = quantile_grid(
        raw.quantile, n=n_grid, deep=45,
        support_end=raw.sup_x if np.isfinite(raw.sup_x) else None,
    )
    # evaluate w(F(.)) from the source profile directly: composing with the
    # raw image would stack a second interpolation and amplify curvature noise
    new_vals = profile.w_at(F(grid))
    return SurvivalProfile(grid, new_vals, raw.tail)


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
    quantities the uniform Jensen bounds control along the iteration.
    """
    hist = IterationHistory()
    prof = profile0
    for n in range(n_steps + 1):
        lo, hi = beta_envelope(prof)
        mean = prof.mean
        hist.n.append(n)
        hist.lam.append(1.0 if n == 0 else lam)  # noqa: F821  (set on prior pass)
        hist.mean.append(mean)
        hist.sup_beta.append(hi)
        hist.inf_beta.append(lo)
        hist.ratio_third.append(prof.moment(1.0 / 3.0) / mean ** (1.0 / 3.0))
        hist.ratio_half.append(prof.moment(0.5) / np.sqrt(mean))
        hist.ratio_two_thirds.append(prof.moment(2.0 / 3.0) / mean ** (2.0 / 3.0))
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
