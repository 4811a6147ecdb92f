"""Survival functions on nonuniform grids, their tail mass and beta transform.

The central object is :class:`SurvivalProfile`: a nonincreasing integrable
function ``w`` sampled on a strictly increasing grid starting at 0, extended
beyond the last node by an analytic tail model (compact cutoff, exponential
or power decay).  All moments and singular integrals are evaluated with the
exact formulas from :mod:`lswkit.cellquad`, so identities such as
mass conservation hold to rounding error for the piecewise-linear
representative.

The beta function of a profile is ``beta = h'' h / (h')**2`` where ``h`` is
the tail mass of ``w``; it is the contraction-rate observable driving every
bound in the rest of the package.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable

import numpy as np

from . import cellquad
from .errors import DegenerateProfileError, NonIntegrableTailError, UnsupportedOperationError


CSV_BLOCK_ROWS = 256  # rows formatted by one % operation; bounds the text held at once


def write_csv(path: str | Path, header: str, columns) -> None:
    """Equal-length columns as comma-separated rows, every value as %.17g."""
    table = np.column_stack(columns)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with Path(path).open("w") as f:
        f.write(header + "\n")
        for start in range(0, len(table), CSV_BLOCK_ROWS):
            block = table[start:start + CSV_BLOCK_ROWS]
            f.write((line * len(block)) % tuple(block.ravel().tolist()))


def _strict(v):
    # a non-finite float becomes None, at any depth of dicts, lists and tuples
    if isinstance(v, dict):
        return {key: _strict(item) for key, item in v.items()}
    if isinstance(v, (list, tuple)):
        return [_strict(item) for item in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def write_json(path: str | Path, record) -> None:
    """``record`` as indented JSON; a non-finite float at any depth is written
    as null, as strict JSON requires."""
    Path(path).write_text(json.dumps(_strict(record), indent=2) + "\n")


_EPS = np.finfo(float).eps


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


def _scaled_upper_gamma(a: float, u: float) -> float:
    """e^u Gamma(a, u) for a > 0 and u >= 0, with no factor that can overflow.

    Gamma(a) less the series of gamma(a, u) below u = a + 1 when a >= 1 and
    below u = 0.3 when a < 1, where a higher split lets the two cancel; above
    it, Legendre's continued fraction by the modified Lentz method.
    """
    if u < (a + 1.0 if a >= 1.0 else 0.3):
        term = total = 1.0 / a
        n = 0
        while term > _EPS * total:
            n += 1
            term *= u / (a + n)
            total += term
        return math.exp(u) * math.gamma(a) - u ** a * total
    b = u + 1.0 - a
    c, d = math.inf, 1.0 / b
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        # Lentz: a denominator that vanishes is replaced by a tiny one
        d = 1.0 / (an * d + b or 1e-300)
        c = b + an / c or 1e-300
        h *= c * d
        if abs(c * d - 1.0) <= _EPS:
            break
    return u ** a * h


def bracketed_root(f, lo, hi):
    """A root of f in [lo, hi] for each entry, by bisection to adjacent floats.

    ``f`` maps an array of points to its values, which differ in sign at lo
    and hi; of the last bracket's ends, the one with the smaller |f| is
    returned.
    """
    lo, hi = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    f_lo, f_hi = f(lo), f(hi)
    if np.any(np.sign(f_lo) * np.sign(f_hi) > 0):
        raise ValueError("f must change sign between lo and hi")
    while True:
        mid = 0.5 * (lo + hi)
        inner = (lo < mid) & (mid < hi)
        if not inner.any():
            return np.where(np.abs(f_hi) < np.abs(f_lo), hi, lo)
        f_mid = f(mid)
        left = inner & (np.sign(f_mid) == np.sign(f_lo))
        right = inner & ~left
        lo, f_lo = np.where(left, mid, lo), np.where(left, f_mid, f_lo)
        hi, f_hi = np.where(right, mid, hi), np.where(right, f_mid, f_hi)


def _tail_power_integral(tail: TailModel, xm: float, wm: float, s: float) -> float:
    """Exact integral of x^s * w(x) over (xm, infinity) for the tail model."""
    if tail.kind == "compact":
        return 0.0
    if tail.kind == "exponential":
        lam = tail.param
        # wm * exp(lam*xm) * Gamma(s+1, lam*xm) / lam^{s+1}
        return wm * _scaled_upper_gamma(s + 1.0, lam * xm) / lam ** (s + 1.0)
    p = tail.param
    if p <= s + 1.0:
        raise NonIntegrableTailError(
            f"power tail p={p} cannot support moment with kernel exponent {s}"
        )
    return float(wm * xm ** (s + 1.0) / (p - s - 1.0))


def quantile_cells(values, target):
    """The cells of a nonincreasing ``values`` that hold each target in
    (0, values[0]]: returns (in_tail, j), where a target at or below the last
    value lies in the tail and any other in cell j, values[j+1] < t <= values[j].
    """
    in_tail = target <= values[-1]
    # values nonincreasing: search on the reversed array.  The cell found
    # has w1 < target <= w0, so it is never flat: target <= w0 = values[0],
    # and target <= values[-1] went to the tail
    j = len(values) - 1 - np.searchsorted(values[::-1], target[~in_tail], side="left")
    return in_tail, j


def quantile_positions(target, in_tail, j, values, x0, x1, xm: float, tail: TailModel):
    """Largest x where a piecewise-linear w through (x_i, values[i]) reaches
    each target, for the cells of :func:`quantile_cells`: linear from x0 to
    x1 across cell j, and past the last node xm by the tail model.
    """
    out = np.empty_like(target)
    wm = float(values[-1])
    tt = target[in_tail]
    if tail.kind == "exponential":
        out[in_tail] = xm + np.log(wm / tt) / tail.param
    elif tail.kind == "power":
        out[in_tail] = xm * (wm / tt) ** (1.0 / tail.param)
    else:
        out[in_tail] = xm
    tb = target[~in_tail]
    w0, w1 = values[j], values[j + 1]
    frac = (w0 - tb) / (w0 - w1)
    out[~in_tail] = x0 + frac * (x1 - x0)
    return out


def _require_grid(grid: np.ndarray) -> None:
    if grid[0] != 0.0 or not np.all(np.isfinite(grid)) or np.any(np.diff(grid) <= 0):
        raise DegenerateProfileError("grid must be finite and strictly increasing from 0")


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
        _require_grid(grid)
        if not np.all(np.isfinite(values)) or np.any(values < 0):
            raise DegenerateProfileError("values must be finite and nonnegative")
        if np.any(np.diff(values) > 1e-12 * values[0]):
            raise DegenerateProfileError("values must be nonincreasing")
        if not values[0] > 0:
            raise DegenerateProfileError("w(0) must be positive")
        values = np.minimum.accumulate(values)  # scrub rounding-level increases
        if tail.kind != "compact" and values[-1] == 0.0:
            tail = TailModel.compact()
        self._assign(grid, values, tail)

    def _assign(self, grid: np.ndarray, values: np.ndarray, tail: TailModel) -> None:
        grid.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tail", tail)

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
        if self.tail.kind == "compact":
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
            tail = 0.0
        out = np.where(x > xm, tail, body)
        return float(out) if out.ndim == 0 else out

    def h_at(self, x):
        """Tail mass h(x) = integral of w over (x, infinity); exact per cell."""
        x = np.asarray(x, dtype=float)
        idx = np.minimum(np.maximum(self.grid.searchsorted(x, "right") - 1, 0), len(self.grid) - 2)
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
        in_tail, j = quantile_cells(self.values, target)
        out = quantile_positions(target, in_tail, j, self.values, self.grid[j], self.grid[j + 1],
                                 float(self.grid[-1]), self.tail)
        return float(out[0]) if q.ndim == 0 else out.reshape(q.shape)

    # -- integrals ------------------------------------------------------

    def power_integral(self, s):
        """Exact integral of x^s * w(x) dx over (0, infinity), s > -1.

        An array of exponents gives an array of integrals, all from one pass
        over the cells.
        """
        s = np.asarray(s, dtype=float)
        body = cellquad.power_total(self.grid, self.values, s)
        xm, wm = float(self.grid[-1]), float(self.values[-1])
        tail = np.reshape([_tail_power_integral(self.tail, xm, wm, si)
                           for si in s.ravel().tolist()], s.shape)
        return float(body + tail) if s.ndim == 0 else body + tail

    @cached_property
    def _moments(self) -> dict:
        return {}

    def moments(self, alphas) -> list[float]:
        """<X^a> for each a in (0, 1]; singular cell at 0 in closed form.

        Memoized per exponent, like the profile's other derived values; the
        exponents not yet memoized share one pass over the cells.
        """
        alphas = [float(a) for a in alphas]
        if not all(0 < a <= 1 for a in alphas):
            raise ValueError("alpha must be in (0, 1]")
        todo = [a for a in dict.fromkeys(alphas) if a != 1.0 and a not in self._moments]
        if todo:
            a = np.array(todo)
            self._moments.update(zip(todo, (a * self.power_integral(a - 1.0) / self.w0).tolist()))
        return [self.mean if a == 1.0 else self._moments[a] for a in alphas]

    def moment(self, alpha: float) -> float:
        """<X^alpha> for alpha in (0, 1]: :meth:`moments` of one exponent."""
        return self.moments([alpha])[0]

    def energy(self) -> float:
        """E = integral x^{2/3} c dx, via the integrated-by-parts form."""
        return (2.0 / 3.0) * self.power_integral(-1.0 / 3.0)

    def dilate(self, lam: float) -> "SurvivalProfile":
        """Profile of the dilated variable lam * X (same values, scaled grid)."""
        if not lam > 0:
            raise ValueError("dilation factor must be positive")
        grid = self.grid * lam
        # the values stay valid; only the scaled grid can break
        _require_grid(grid)
        tail = self.tail
        if tail.kind == "exponential":
            tail = TailModel.exponential(tail.param / lam)
        out = object.__new__(SurvivalProfile)
        out._assign(grid, self.values, tail)
        return out

    # -- serialization ---------------------------------------------------

    def save(self, csv_path: str | Path) -> None:
        csv_path = Path(csv_path)
        write_csv(csv_path, "x,w", (self.grid, self.values))
        sidecar = {
            "tail_model": self.tail.kind,
            "params": {"param": self.tail.param},
            "mass": self.mass,
        }
        write_json(csv_path.with_suffix(".json"), sidecar)

    @classmethod
    def load(cls, csv_path: str | Path) -> "SurvivalProfile":
        csv_path = Path(csv_path)
        with warnings.catch_warnings():
            # a file without data rows is rejected below, by name
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        if data.shape[1] != 2 or len(data) < 2:
            raise DegenerateProfileError(
                f"{csv_path}: a profile needs at least two rows of two columns (x, w), "
                f"found {len(data)} row(s) of {data.shape[1]}")
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


@dataclass(frozen=True)
class RegularVariationEstimate:
    exponent: float
    residual: float
    oscillatory: bool


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
    h = profile._suffix_mass[: last + 1]  # h at the grid nodes
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


ENVELOPE_LEVEL = 2.0**-8  # beta_envelope reads grid nodes where w >= this times w(0)


def beta_envelope(profile: SurvivalProfile) -> tuple[float, float]:
    """(inf, sup) of beta over the whole support, tail included.

    Grid nodes below ``ENVELOPE_LEVEL * w(0)`` are dropped: the finite-difference
    estimate there is dominated by grid-transition noise.  The analytic tail
    carries a known constant beta (1 for exponential decay, p/(p-1) for a
    power tail), which is where the supremum typically lives.
    """
    beta = beta_from_profile(profile)
    nb = len(beta.grid)
    resolved = (profile.values[:nb] >= profile.w0 * ENVELOPE_LEVEL) & ~beta.low_confidence
    vals = beta.values[resolved]
    lo, hi = float(np.min(vals)), float(np.max(vals))
    if profile.tail.kind == "exponential":
        lo, hi = min(lo, 1.0), max(hi, 1.0)
    elif profile.tail.kind == "power":
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
    )
