"""Built-in analytic initial data: closed-form survival functions with grids.

Each family packages a sampled :class:`SurvivalProfile` together with the
closed-form callables it was sampled from (w, h, beta where available), so
tests can compare discrete operations against analytic truth.  Grids are
quantile-spaced at the levels w(0) * 2^(-k/8) with uniform fill in the bulk,
which concentrates nodes where the profile decays and keeps the support end
resolved.
"""
from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .profiles import SurvivalProfile, TailModel, bracketed_root
from .self_similar import beta_star, build_profile, seed_solver


@dataclass(frozen=True)
class AnalyticFamily:
    name: str
    profile: SurvivalProfile
    w_exact: Optional[Callable] = None
    h_exact: Optional[Callable] = None
    beta_exact: Optional[Callable] = None
    mean_exact: Optional[float] = None


# a fill node closer than this fraction of the fill spacing to a quantile node
# is dropped: it would leave a cell of rounding width, which two survivors of
# the lsw solver can close
FILL_GAP_FRACTION = 1e-6


# a quantile grid's survival levels: 2^(-k/8) down to 2^-45
QUANTILE_PER_HALVING, QUANTILE_DEEP = 8, 45


@lru_cache(maxsize=8)
def quantile_levels(per_halving: int = QUANTILE_PER_HALVING,
                    deep: int = QUANTILE_DEEP) -> np.ndarray:
    """The levels 2^(-k/m) for k = 1 .. m*deep, built once and shared read-only."""
    m = per_halving
    levels = np.array([2.0 ** (-k / m) for k in range(1, m * deep + 1)])
    levels.setflags(write=False)
    return levels


def quantile_grid(quantile, n: int = 2048, deep: int = QUANTILE_DEEP,
                  support_end: float | None = None, per_halving: int = QUANTILE_PER_HALVING):
    """Nodes at survival levels 2^(-k/m) down to 2^(-deep), plus uniform fill.

    ``quantile`` maps the array ``quantile_levels(per_halving, deep)`` to the
    array of their positions.
    """
    m = per_halving
    xq = quantile(quantile_levels(m, deep))
    # uniform fill covers the bulk (down to the 2^-10 level); the far tail is
    # left to the geometric quantile nodes
    bulk = min(10 * m, len(xq))
    bulk_end = xq[bulk - 1]
    fill = np.linspace(0.0, bulk_end, max(n - len(xq), 2))
    # drop the fill nodes near a quantile node x of the bulk, which lies in
    # (fill[j - 1], fill[j]]; the quantile nodes carry the tail, so they stay
    xb = xq[:bulk]
    j = np.searchsorted(fill, xb)
    below = np.maximum(j - 1, 0)
    gap = FILL_GAP_FRACTION * fill[1]
    keep = np.ones(len(fill), dtype=bool)
    keep[j[fill[j] - xb < gap]] = False
    keep[below[xb - fill[below] < gap]] = False
    grid = np.sort(np.concatenate(([0.0], fill[keep], xq)))
    if support_end is not None:
        grid = np.append(grid[grid < support_end * (1 - 1e-15)], support_end)
    # drop the repeated positions and any zero-width cells from rounding
    keep = np.concatenate(([True], np.diff(grid) > 0))
    return grid[keep]


def constant_beta(beta: float, n: int = 2048) -> AnalyticFamily:
    """Profile with beta identically ``beta``; h(0)=1, h'(0)=-1; beta > 1 raises n to 4096 at least."""
    if not beta > 0:
        raise ConfigError("constant-beta family requires beta > 0")
    if beta == 1.0:
        return exponential(n)
    b = float(beta)
    if b < 1.0:
        a = 1.0 / (1.0 - b)

        def w(x):
            return np.power(np.clip(1.0 - (1.0 - b) * np.asarray(x, float), 0.0, None), b / (1.0 - b))

        def h(x):
            return np.power(np.clip(1.0 - (1.0 - b) * np.asarray(x, float), 0.0, None), 1.0 / (1.0 - b))

        def quantile(q):
            return (1.0 - q ** ((1.0 - b) / b)) / (1.0 - b)

        grid = quantile_grid(quantile, n=n, support_end=a)
        prof = SurvivalProfile(grid, w(grid), TailModel.compact())
    else:
        p = b / (b - 1.0)

        def w(x):
            return np.power(1.0 + (b - 1.0) * np.asarray(x, float), -b / (b - 1.0))

        def h(x):
            return np.power(1.0 + (b - 1.0) * np.asarray(x, float), -1.0 / (b - 1.0))

        def quantile(q):
            return (q ** (-(b - 1.0) / b) - 1.0) / (b - 1.0)

        grid = quantile_grid(quantile, n=max(n, 4096), per_halving=16)
        prof = SurvivalProfile(grid, w(grid), TailModel.power(p))
    return AnalyticFamily(
        name=f"constant-beta({b:g})",
        profile=prof,
        w_exact=w,
        h_exact=h,
        beta_exact=lambda x: np.full_like(np.asarray(x, float), b),
        mean_exact=1.0,
    )


def exponential(n: int = 2048) -> AnalyticFamily:
    """w(x) = e^(-x); the beta = 1 member of the constant family."""

    def w(x):
        return np.exp(-np.asarray(x, float))

    grid = quantile_grid(lambda q: -np.log(q), n=n)
    prof = SurvivalProfile(grid, w(grid), TailModel.exponential(1.0))
    return AnalyticFamily(
        name="exponential",
        profile=prof,
        w_exact=w,
        h_exact=w,
        beta_exact=lambda x: np.ones_like(np.asarray(x, float)),
        mean_exact=1.0,
    )


def indicator(n: int = 512) -> AnalyticFamily:
    """w = 1 on [0,1], 0 beyond: the single unit cluster (beta = 0 formally)."""
    grid = np.linspace(0.0, 1.0, n + 1)
    prof = SurvivalProfile(grid, np.ones_like(grid), TailModel.compact())
    return AnalyticFamily(
        name="indicator",
        profile=prof,
        w_exact=lambda x: np.where(np.asarray(x, float) < 1.0, 1.0, 0.0),
        h_exact=lambda x: np.clip(1.0 - np.asarray(x, float), 0.0, None),
        beta_exact=lambda x: np.zeros_like(np.asarray(x, float)),
        mean_exact=1.0,
    )


def oscillating_exponential(eps: float, n: int = 2048) -> AnalyticFamily:
    """h(x) = e^(-x)(1 + eps*cos x): beta oscillates with period 2*pi.

    Requires |eps| < 1/2 so that w stays positive and beta stays bounded.
    """
    if not abs(eps) < 0.5:
        raise ConfigError("oscillating-exponential family requires |eps| < 1/2")

    def h(x):
        x = np.asarray(x, float)
        return np.exp(-x) * (1.0 + eps * np.cos(x))

    def w(x):
        x = np.asarray(x, float)
        return np.exp(-x) * (1.0 + eps * np.cos(x) + eps * np.sin(x))

    def beta(x):
        x = np.asarray(x, float)
        return (
            (1.0 + eps * np.cos(x)) * (1.0 + 2.0 * eps * np.sin(x))
            / (1.0 + eps * np.cos(x) + eps * np.sin(x)) ** 2
        )

    w0 = 1.0 + eps

    def quantile(qs):
        # w/w(0) = q; bracket via the envelope e^(-x)(1 +/- 2|eps|)
        target = qs * w0
        hi = -np.log(target / (1.0 + 2.0 * abs(eps))) + 1.0
        return bracketed_root(lambda x: w(x) - target, 0.0, hi)

    grid = quantile_grid(quantile, n=n)
    # exact tail mass beyond the last node: int e^-x (1 + eps cos x) = h(x);
    # pick the rate that reproduces it, so h is exact on the whole grid
    rate = float(w(grid[-1]) / h(grid[-1]))
    prof = SurvivalProfile(grid, w(grid), TailModel.exponential(rate))
    return AnalyticFamily(
        name=f"oscillating-exponential({eps:g})",
        profile=prof,
        w_exact=w,
        h_exact=h,
        beta_exact=beta,
        mean_exact=1.0,
    )


def oscillating_compact(p: float, eps: float, n: int = 4096) -> AnalyticFamily:
    """h(x) = (1-x)^(p+1) [1 + eps (1-x)^2 cos(1/(1-x))] on [0,1).

    The beta function oscillates all the way to the support end with no
    limit, even though inf/sup beta stay in (0,1) for small eps and the
    survival function itself varies regularly with index p.
    """
    if not p > 0:
        raise ConfigError("oscillating-compact family requires p > 0")

    def h(x):
        u = 1.0 - np.asarray(x, float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = u ** (p + 1.0) * (1.0 + eps * u**2 * np.cos(1.0 / u))
        return np.where(u > 0.0, out, 0.0)

    def w(x):
        u = 1.0 - np.asarray(x, float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = u**p * (
                (p + 1.0)
                + eps * (p + 3.0) * u**2 * np.cos(1.0 / u)
                + eps * u * np.sin(1.0 / u)
            )
        return np.where(u > 0.0, out, 0.0)

    w0 = float(w(0.0))

    def quantile(qs):
        target = qs * w0
        return bracketed_root(lambda x: w(x) - target, 0.0, 1.0 - 1e-15)

    grid = quantile_grid(quantile, n=n, support_end=1.0)
    vals = w(grid)
    vals[-1] = 0.0
    vals = np.minimum.accumulate(np.maximum(vals, 0.0))
    prof = SurvivalProfile(grid, vals, TailModel.compact())
    return AnalyticFamily(
        name=f"oscillating-compact(p={p:g},eps={eps:g})",
        profile=prof,
        w_exact=w,
        h_exact=h,
        mean_exact=float(h(0.0)) / w0,
    )


def power_tail(eps: float, n: int = 4096) -> AnalyticFamily:
    """Density K/(1+x)^(2+eps) with K chosen for unit mass: w = eps/(1+x)^(1+eps).

    Constant beta = (1+eps)/eps; eps = 1 gives beta = 2.
    """
    if not eps > 0:
        raise ConfigError("power-tail family requires eps > 0")

    def w(x):
        return eps * np.power(1.0 + np.asarray(x, float), -(1.0 + eps))

    def h(x):
        return np.power(1.0 + np.asarray(x, float), -eps)

    def quantile(q):
        return q ** (-1.0 / (1.0 + eps)) - 1.0

    grid = quantile_grid(quantile, n=n, per_halving=16)
    prof = SurvivalProfile(grid, w(grid), TailModel.power(1.0 + eps))
    b = (1.0 + eps) / eps
    return AnalyticFamily(
        name=f"power-tail({eps:g})",
        profile=prof,
        w_exact=w,
        h_exact=h,
        beta_exact=lambda x: np.full_like(np.asarray(x, float), b),
        mean_exact=1.0 / eps,
    )


def self_similar(alpha: float) -> AnalyticFamily:
    """The stationary profile w* of the normalized flow, as unit-mass initial data."""
    ss = build_profile(alpha)
    return AnalyticFamily(name=f"self-similar({alpha:g})", profile=seed_solver(ss),
                          beta_exact=beta_star(ss).at)


FAMILY_BUILDERS = {
    "constant-beta": constant_beta,
    "exponential": exponential,
    "indicator": indicator,
    "oscillating-exponential": oscillating_exponential,
    "oscillating-compact": oscillating_compact,
    "power-tail": power_tail,
    "self-similar": self_similar,
}


def make_family(name: str, **params) -> AnalyticFamily:
    try:
        builder = FAMILY_BUILDERS[name]
    except KeyError:
        raise ConfigError(f"unknown family {name!r}; available: "
                          + ", ".join(sorted(FAMILY_BUILDERS))) from None
    taken = inspect.signature(builder).parameters
    unknown = [key for key in params if key not in taken]
    if unknown:
        raise ConfigError(f"family {name!r} takes no parameter(s) {', '.join(unknown)}")
    missing = [key for key, p in taken.items() if p.default is p.empty and key not in params]
    if missing:
        raise ConfigError(f"family {name!r} needs parameter(s) {', '.join(missing)}")
    return builder(**params)
