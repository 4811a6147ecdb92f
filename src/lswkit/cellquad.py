"""Closed-form integrals of piecewise-linear data against power-law kernels.

Profiles in this package are piecewise linear on nonuniform grids, so every
integral x^s * w(x) dx with s > -1 (including the singular kernels x^{-2/3}
and x^{-1/3}) has an exact form: a total by parts (``power_total``), and
nonnegative cells (``power_cells``) for suffix integrals.  Neither cancels on
narrow cells, so neither carries quadrature error into the conservation checks.
"""
from __future__ import annotations

import numpy as np

# below r = du/u_i = 1e-2 a cell's tilted integral is its series through
# r^8: the next term is below 3e-18 of the first for any s in (-1, 3]
_SERIES_R = 1e-2
_SERIES_TERMS = 8


def power_cells(x: np.ndarray, w: np.ndarray, s: float) -> np.ndarray:
    """Exact integral of x^s * wlin(x) over each grid cell.

    A cell [u_i, u_(i+1)] is w_(i+1) int u^s + (w_i - w_(i+1)) int u^s
    (u_(i+1) - u)/du, nonnegative for a nonincreasing w >= 0.  With r = du/u_i
    and e = expm1((s+1) log1p(r)), the integrals are u_i^(s+1) times e/(s+1)
    and (e (1 + r) - (s+1) r)/((s+1)(s+2) r); the second cancels at small r,
    where its series sum_j binom(s, j) r^(j+1)/((j+1)(j+2)) replaces it.  A
    first cell from u = 0 gives u_1^(s+1)/(s+1) and u_1^(s+1)/((s+1)(s+2)).
    Requires s > -1 and x >= 0.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    s1 = s + 1.0
    k = int(x[0] == 0.0)  # a first cell from u = 0
    u = x[k:-1]
    r = (x[k + 1:] - u) / u
    e = np.expm1(np.log1p(r) * s1)
    tilted = np.empty_like(r)
    wide = r >= _SERIES_R
    rw, rn = r[wide], r[~wide]
    tilted[wide] = (e[wide] * (1.0 + rw) - s1 * rw) / (s1 * (s + 2.0) * rw)
    term = series = 0.5 * rn
    for j in range(1, _SERIES_TERMS):  # term j of the series from term j - 1
        term = term * rn * ((s - j + 1.0) / (j + 2.0))
        series = series + term
    tilted[~wide] = series
    cells = (w[k + 1:] * (e / s1) + (w[k:-1] - w[k + 1:]) * tilted) * u ** s1
    if k:
        cells = np.concatenate(([x[1] ** s1 * (w[1] + (w[0] - w[1]) / (s + 2.0)) / s1], cells))
    return cells


def power_total(x, w, s, shift: float = 0.0):
    """Exact integral of (x - shift)^s * wlin(x) over the grid, by parts.

    With u = x - shift: (u_m^(s+1) w_m - u_0^(s+1) w_0 + the sum over cells of
    (w_i - w_(i+1)) times the cell mean of u^(s+1)) / (s+1), that mean taken as
    u_i^(s+1) expm1((s+2) log1p(r)) / ((s+2) r) for r = du/u_i, which does not
    cancel on a narrow cell, and as u_1^(s+1)/(s+2) on a first cell from u = 0.
    Requires s > -1 and x >= shift.  From u = 0 and for a nonincreasing w, every
    term is nonnegative; from u_0 > 0 the boundary terms cancel to about
    eps u_0/(u_m - u_0) relative.  An array of exponents gives one total each.
    """
    u = np.asarray(x, dtype=float) - shift
    w = np.asarray(w, dtype=float)
    lone = np.ndim(s) == 0
    s = np.reshape(np.asarray(s, dtype=float), (-1, 1))
    # one power per node, by pow on every entry: numpy takes sqrt or a square
    # for an exponent 1/2 or 2 in a stride-0 operand, or not, depending on the
    # layout, so a full exponent array keeps a total's bits alone and in a batch
    q = np.power(u, np.repeat(s + 1.0, len(u), axis=-1))
    k = int(u[0] == 0.0)  # a first cell from u = 0
    r = (u[k + 1:] - u[k:-1]) / u[k:-1]
    mean = np.expm1(np.log1p(r) * (s + 2.0)) / (r * (s + 2.0)) * q[:, k:-1]
    mean = np.concatenate((q[:, 1:1 + k] / (s + 2.0), mean), axis=1) * (w[:-1] - w[1:])
    total = (mean.sum(axis=-1) + q[:, -1] * w[-1] - q[:, 0] * w[0]) / (s[:, 0] + 1.0)
    return float(total[0]) if lone else total


def power_suffix(x, w, s) -> np.ndarray:
    """Exact integral of x^s * wlin from each node to the last node."""
    cells = power_cells(x, w, s)
    out = np.zeros(len(x))
    out[:-1] = np.cumsum(cells[::-1])[::-1]
    return out


def linear_suffix(x, w) -> np.ndarray:
    """Integral of wlin from each node to the last node (exact trapezoid)."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    cells = 0.5 * (w[:-1] + w[1:]) * np.diff(x)
    out = np.zeros(len(x))
    out[:-1] = np.cumsum(cells[::-1])[::-1]
    return out
