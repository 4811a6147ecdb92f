"""Survival functions on nonuniform grids, their tail mass and beta transform.

The central object is :class:`SurvivalProfile`: a nonincreasing integrable
function ``w`` sampled on a strictly increasing grid starting at 0, extended
beyond the last node by an analytic tail model (compact cutoff, exponential
or power decay).  All moments and singular integrals are evaluated with the
exact per-cell formulas from :mod:`lswkit.cellquad`, so identities such as
mass conservation hold to rounding error for the piecewise-linear
representative.

The beta function of a profile is ``beta = h'' h / (h')**2`` where ``h`` is
the tail mass of ``w``; it is the contraction-rate observable driving every
bound in the rest of the package.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy import special

from . import cellquad
from .errors import DegenerateProfileError, NonIntegrableTailError, UnsupportedOperationError


def write_csv(path: str | Path, header: str, columns) -> None:
    """Equal-length columns as comma-separated rows, every value as %.17g."""
    with Path(path).open("w") as f:
        f.write(header + "\n")
        for row in zip(*columns):
            f.write(",".join(f"{v:.17g}" for v in row) + "\n")


@dataclass(frozen=True)
class TailModel:
    """Analytic continuation of a profile beyond its last grid node."""

    kind: str  # "compact" | "exponential" | "power"
    param: float = 0.0  # decay rate (exponential) or exponent p (power)

    def __post_init__(self):
        if self.kind not in ("compact", "exponential", "power"):
            raise ValueError(f"unknown tail kind {self.kind!r}")
        if self.kind == "exponential" and not self.param > 0:
            raise NonIntegrableTailError("exponential tail requires rate > 0")
        if self.kind == "power" and not self.param > 1:
            raise NonIntegrableTailError("power tail requires exponent p > 1")

    @classmethod
    def compact(cls) -> "TailModel":
        return cls("compact")

    @classmethod
    def exponential(cls, rate: float) -> "TailModel":
        return cls("exponential", float(rate))

    @classmethod
    def power(cls, p: float) -> "TailModel":
        return cls("power", float(p))


def _tail_power_integral(tail: TailModel, xm: float, wm: float, s: float) -> float:
    """Exact integral of x^s * w(x) over (xm, infinity) for the tail model."""
    if tail.kind == "compact" or wm == 0.0:
        return 0.0
    if tail.kind == "exponential":
        lam = tail.param
        # wm * exp(lam*xm) * Gamma(s+1, lam*xm) / lam^{s+1}
        u = lam * xm
        g = special.gammaincc(s + 1.0, u) * special.gamma(s + 1.0)
        return float(wm * np.exp(u) * g / lam ** (s + 1.0))
    p = tail.param
    if p <= s + 1.0:
        raise NonIntegrableTailError(
            f"power tail p={p} cannot support moment with kernel exponent {s}"
        )
    return float(wm * xm ** (s + 1.0) / (p - s - 1.0))


class SurvivalProfile:
    """Nonincreasing integrable w on [0, inf) with piecewise-linear body.

    Immutable after construction; all operations are pure.
    """

    __slots__ = ("grid", "values", "tail", "__dict__")

    def __init__(self, grid, values, tail: TailModel = TailModel.compact()):
        grid = np.asarray(grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or len(grid) < 2:
            raise DegenerateProfileError("grid and values must be matching 1-d arrays")
        if grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
            raise DegenerateProfileError("grid must be strictly increasing from 0")
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise DegenerateProfileError("values must be finite and nonnegative")
        if np.any(np.diff(values) > 1e-12 * values[0]):
            raise DegenerateProfileError("values must be nonincreasing")
        if not values[0] > 0:
            raise DegenerateProfileError("w(0) must be positive")
        values = np.minimum.accumulate(values)  # scrub rounding-level increases
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tail", tail)
        if tail.kind != "compact" and values[-1] == 0.0:
            object.__setattr__(self, "tail", TailModel.compact())

    # -- basic geometry -------------------------------------------------

    @property
    def w0(self) -> float:
        return float(self.values[0])

    @cached_property
    def sup_x(self) -> float:
        """The essential sup of the associated random variable, ||X||_inf."""
        if self.tail.kind != "compact":
            return np.inf
        nz = np.nonzero(self.values > 0)[0]
        last = nz[-1]
        return float(self.grid[min(last + 1, len(self.grid) - 1)]) if self.values[-1] == 0 else float(self.grid[-1])

    @cached_property
    def tail_mass(self) -> float:
        """Mass of the analytic tail beyond the last grid node."""
        xm, wm = float(self.grid[-1]), float(self.values[-1])
        if self.tail.kind == "compact" or wm == 0.0:
            return 0.0
        if self.tail.kind == "exponential":
            return wm / self.tail.param
        return wm * xm / (self.tail.param - 1.0)

    @cached_property
    def _suffix_mass(self) -> np.ndarray:
        return cellquad.linear_suffix(self.grid, self.values) + self.tail_mass

    @cached_property
    def mass(self) -> float:
        """Total integral of w, i.e. the first moment of the cluster density."""
        return float(self._suffix_mass[0])

    @cached_property
    def mean(self) -> float:
        """<X> for the variable with survival function w/w(0)."""
        return self.mass / self.w0

    def w_at(self, x):
        """Evaluate w (piecewise-linear body plus analytic tail)."""
        x = np.asarray(x, dtype=float)
        body = np.interp(x, self.grid, self.values)
        xm, wm = self.grid[-1], self.values[-1]
        if self.tail.kind == "exponential":
            tail = wm * np.exp(-self.tail.param * (x - xm))
        elif self.tail.kind == "power":
            tail = wm * np.power(xm / np.maximum(x, xm), self.tail.param)
        else:
            tail = np.zeros_like(body)
        out = np.where(x > xm, tail, body)
        return float(out) if out.ndim == 0 else out

    def h_at(self, x):
        """Tail mass h(x) = integral of w over (x, infinity); exact per cell."""
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.grid, x, side="right") - 1, 0, len(self.grid) - 2)
        x1 = self.grid[idx + 1]
        wx = np.interp(np.minimum(x, self.grid[-1]), self.grid, self.values)
        # remaining piece of the containing cell
        part = 0.5 * (wx + self.values[idx + 1]) * (x1 - np.minimum(x, x1))
        body = part + self._suffix_mass[idx + 1] - self.tail_mass
        xm, wm = self.grid[-1], self.values[-1]
        if self.tail.kind == "exponential":
            lam = self.tail.param
            tail = wm * np.exp(-lam * (x - xm)) / lam
        elif self.tail.kind == "power":
            p = self.tail.param
            tail = wm * xm ** p * np.power(np.maximum(x, xm), 1.0 - p) / (p - 1.0)
        else:
            tail = 0.0  # and tail_mass is 0
        out = np.where(x > xm, tail, body + self.tail_mass)
        return float(out) if out.ndim == 0 else out

    def quantile(self, q):
        """Largest x with w(x)/w(0) >= q (exact piecewise-linear inversion).

        Elementwise over an array of levels in (0, 1]; a 0-d level gives a float.
        """
        q = np.asarray(q, dtype=float)
        if not np.all((q > 0) & (q <= 1)):
            raise ValueError("quantile level must be in (0, 1]")
        target = np.ravel(q * self.w0)
        out = np.empty_like(target)
        xm, wm = float(self.grid[-1]), float(self.values[-1])
        tail = target <= wm
        tt = target[tail]
        if self.tail.kind == "exponential":
            out[tail] = xm + np.log(wm / tt) / self.tail.param
        elif self.tail.kind == "power":
            out[tail] = xm * (wm / tt) ** (1.0 / self.tail.param)
        else:
            out[tail] = xm
        # values nonincreasing: search on the reversed array.  The cell found
        # has w1 < target <= w0, so it is never flat: target <= w0 = values[0],
        # and target <= values[-1] went to the tail above
        tb = target[~tail]
        j = len(self.values) - 1 - np.searchsorted(self.values[::-1], tb, side="left")
        w0, w1 = self.values[j], self.values[j + 1]
        x0, x1 = self.grid[j], self.grid[j + 1]
        frac = (w0 - tb) / (w0 - w1)
        out[~tail] = x0 + frac * (x1 - x0)
        return float(out[0]) if q.ndim == 0 else out.reshape(q.shape)

    # -- integrals ------------------------------------------------------

    def power_integral(self, s: float) -> float:
        """Exact integral of x^s * w(x) dx over (0, infinity), s > -1."""
        body = cellquad.power_total(self.grid, self.values, s)
        return body + _tail_power_integral(self.tail, float(self.grid[-1]), float(self.values[-1]), s)

    def moment(self, alpha: float) -> float:
        """<X^alpha> for alpha in (0, 1]; singular cell at 0 in closed form."""
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if alpha == 1.0:
            return self.mean
        return alpha * self.power_integral(alpha - 1.0) / self.w0

    def energy(self) -> float:
        """E = integral x^{2/3} c dx, via the integrated-by-parts form."""
        return (2.0 / 3.0) * self.power_integral(-1.0 / 3.0)

    def dilate(self, lam: float) -> "SurvivalProfile":
        """Profile of the dilated variable lam * X (same values, scaled grid)."""
        if not lam > 0:
            raise ValueError("dilation factor must be positive")
        tail = self.tail
        if tail.kind == "exponential":
            tail = TailModel.exponential(tail.param / lam)
        return SurvivalProfile(self.grid * lam, self.values, tail)

    # -- serialization ---------------------------------------------------

    def save(self, csv_path: str | Path) -> None:
        csv_path = Path(csv_path)
        write_csv(csv_path, "x,w", (self.grid, self.values))
        sidecar = {
            "tail_model": self.tail.kind,
            "params": {"param": self.tail.param},
            "mass": self.mass,
        }
        csv_path.with_suffix(".json").write_text(json.dumps(sidecar, indent=2) + "\n")

    @classmethod
    def load(cls, csv_path: str | Path) -> "SurvivalProfile":
        csv_path = Path(csv_path)
        data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
        sidecar_path = csv_path.with_suffix(".json")
        tail = TailModel.compact()
        if sidecar_path.exists():
            meta = json.loads(sidecar_path.read_text())
            tail = TailModel(meta["tail_model"], float(meta["params"]["param"]))
        return cls(data[:, 0], data[:, 1], tail)


@dataclass(frozen=True)
class BetaProfile:
    """Sampled beta function on [0, ||X||_inf)."""

    grid: np.ndarray
    values: np.ndarray
    support_end: float  # ||X||_inf of the source variable (may be inf)
    low_confidence: np.ndarray  # mask: endpoint nodes where h'' estimation degenerates

    @property
    def sup(self) -> float:
        return float(np.max(self.values[~self.low_confidence]))

    @property
    def inf(self) -> float:
        return float(np.min(self.values[~self.low_confidence]))

    def at(self, x):
        return np.interp(x, self.grid, self.values)

    def save(self, csv_path: str | Path) -> None:
        write_csv(csv_path, "x,beta", (self.grid, self.values))


@dataclass(frozen=True)
class RegularVariationEstimate:
    exponent: float
    residual: float
    oscillatory: bool
    n_nodes: int


# ---------------------------------------------------------------------------
# operations


def derivative_nonuniform(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Three-point derivative on a nonuniform grid, one-sided at the ends."""
    d = np.empty_like(y)
    hm = x[1:-1] - x[:-2]
    hp = x[2:] - x[1:-1]
    d[1:-1] = (
        -hp / (hm * (hm + hp)) * y[:-2]
        + (hp - hm) / (hm * hp) * y[1:-1]
        + hm / (hp * (hm + hp)) * y[2:]
    )
    h0, h1 = x[1] - x[0], x[2] - x[1]
    d[0] = (
        -(2 * h0 + h1) / (h0 * (h0 + h1)) * y[0]
        + (h0 + h1) / (h0 * h1) * y[1]
        - h0 / (h1 * (h0 + h1)) * y[2]
    )
    hn, hn1 = x[-1] - x[-2], x[-2] - x[-3]
    d[-1] = (
        (2 * hn + hn1) / (hn * (hn + hn1)) * y[-1]
        - (hn + hn1) / (hn * hn1) * y[-2]
        + hn / (hn1 * (hn + hn1)) * y[-3]
    )
    return d


def beta_from_profile(profile: SurvivalProfile) -> BetaProfile:
    """beta = h'' h / (h')^2 with h' = -w exact and h'' by finite differences."""
    w = profile.values
    pos = np.nonzero(w > 0)[0]
    if len(pos) < 3:
        raise DegenerateProfileError("need at least 3 nodes with w > 0 to estimate beta")
    last = pos[-1]
    if np.any(w[: last + 1] <= 0):
        raise DegenerateProfileError("w vanishes inside its support")
    x = profile.grid[: last + 1]
    wv = w[: last + 1]
    h = profile.h_at(x)
    c = -derivative_nonuniform(x, wv)  # h'' = c, the cluster density
    beta = c * h / wv**2
    return BetaProfile(grid=x, values=beta, support_end=profile.sup_x,
                       low_confidence=low_confidence_mask(x))


def low_confidence_mask(x: np.ndarray) -> np.ndarray:
    """Nodes of a grid x >= 0 where a difference-quotient beta is unreliable:
    the last two, where a one-sided estimate meets the modeled tail, and those
    next to a gap below ~1e7 ulp of their position, where position rounding
    quantizes the quotient (deep nodes near a compact support end)."""
    low = np.zeros(len(x), dtype=bool)
    low[-2:] = True
    tiny = np.diff(x) < 1e7 * np.finfo(float).eps * np.maximum(x[1:], 1.0)
    low[1:] |= tiny
    low[:-1] |= tiny
    return low


def beta_interpolant(profile: SurvivalProfile) -> Callable:
    """x -> beta of the profile, interpolated between its confident nodes."""
    b = beta_from_profile(profile)
    ok = ~b.low_confidence
    bx, bv = b.grid[ok], b.values[ok]
    return lambda x: np.interp(x, bx, bv)


def beta_envelope(profile: SurvivalProfile, beta: Optional[BetaProfile] = None,
                  level: float = 2.0**-8) -> tuple[float, float]:
    """(inf, sup) of beta over the whole support, tail included.

    Grid nodes below ``level * w(0)`` are dropped: the finite-difference
    estimate there is dominated by grid-transition noise.  The analytic tail
    carries a known constant beta (1 for exponential decay, p/(p-1) for a
    power tail), which is where the supremum typically lives.
    """
    if beta is None:
        beta = beta_from_profile(profile)
    nb = len(beta.grid)
    resolved = (profile.values[:nb] >= profile.w0 * level) & ~beta.low_confidence
    vals = beta.values[resolved]
    lo, hi = float(np.min(vals)), float(np.max(vals))
    if profile.tail.kind == "exponential" and profile.values[-1] > 0:
        lo, hi = min(lo, 1.0), max(hi, 1.0)
    elif profile.tail.kind == "power" and profile.values[-1] > 0:
        bt = profile.tail.param / (profile.tail.param - 1.0)
        lo, hi = min(lo, bt), max(hi, bt)
    return lo, hi


RV_DECADES = 3.0                 # decades of xi in the regression window
RV_MIN_NODES = 30                # fewer nodes in the window: regress over all
RV_OSCILLATION_THRESHOLD = 0.05  # residual above which the tail is oscillatory


def regular_variation_exponent(profile: SurvivalProfile) -> RegularVariationEstimate:
    """Estimate the regular-variation exponent of w at its compact support end.

    Regresses k(xi) = -log P(X > x) against xi = -log(||X||_inf - x) over the
    last ``RV_DECADES`` decades of xi; the residual is the RMS deviation of
    local slopes from the fitted slope, which flags oscillatory
    (non-convergent) tails.
    """
    if not np.isfinite(profile.sup_x):
        raise UnsupportedOperationError("regular variation requires compact support")
    a = profile.sup_x
    mask = (profile.values > 0) & (profile.grid < a) & (profile.grid > 0)
    x = profile.grid[mask]
    s = profile.values[mask] / profile.w0
    xi = -np.log(a - x)
    k = -np.log(s)
    order = np.argsort(xi)
    xi, k = xi[order], k[order]
    lo = xi[-1] - RV_DECADES * np.log(10.0)
    win = xi >= lo
    if np.count_nonzero(win) < RV_MIN_NODES:
        win = np.ones(len(xi), dtype=bool)
    xi, k = xi[win], k[win]
    if len(xi) < 3:
        raise UnsupportedOperationError("too few resolvable nodes near the support end")
    slope, _ = np.polyfit(xi, k, 1)
    local = np.diff(k) / np.diff(xi)
    residual = float(np.sqrt(np.mean((local - slope) ** 2)))
    return RegularVariationEstimate(
        exponent=float(max(slope, 0.0)),
        residual=residual,
        oscillatory=residual > RV_OSCILLATION_THRESHOLD,
        n_nodes=len(xi),
    )
