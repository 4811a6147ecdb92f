"""Closed-form integrals of piecewise-linear data against power-law kernels.

Profiles in this package are piecewise linear on nonuniform grids, so every
integral x^s * w(x) dx with s > -1 (including the singular kernels x^{-2/3}
and x^{-1/3}) has an exact per-cell antiderivative, and a total an exact form
by parts (``power_total``); the per-cell form serves suffix integrals and the
flux.  Neither carries quadrature error into the conservation checks.
"""
from __future__ import annotations

import numpy as np


def _powers(u: np.ndarray, e: np.ndarray) -> np.ndarray:
    # u^e for each row of the column e, by pow on every entry: numpy's power
    # takes sqrt or a square for an exponent 1/2 or 2 held in a stride-0
    # operand, or not, depending on the layout, so a full exponent array keeps
    # a row's bits the same alone and in any batch
    return np.power(u, np.repeat(e, len(u), axis=-1))


def _cells(u, w, s, q1, q2) -> np.ndarray:
    """Exact integral of u^s * wlin over each cell of u, from the primitives'
    powers q1 = u^(s+1) and q2 = u^(s+2) at the nodes; a column s gives one
    row of cells per exponent."""
    u0, u1 = u[:-1], u[1:]
    w0, w1 = w[:-1], w[1:]
    # in place, the operations of m = (w1 - w0) / du, a = w0 - m * u0,
    # p1 = (q1[1:] - q1[:-1]) / (s + 1), p2 likewise from q2 and s + 2,
    # and out = a * p1 + m * p2
    du = u1 - u0
    m = w1 - w0
    m /= du
    a = m * u0
    np.subtract(w0, a, out=a)  # w = a + m*u on the cell
    out = q1[..., 1:] - q1[..., :-1]
    out /= s + 1.0
    out *= a
    p2 = q2[..., 1:] - q2[..., :-1]
    p2 /= s + 2.0
    p2 *= m
    out += p2
    # the primitive differences cancel catastrophically on cells much
    # narrower than their distance from the singularity; a midpoint
    # expansion with the leading curvature terms is then accurate to
    # O((du/u)^4) relative and free of cancellation.  Narrow cells have
    # u0 > 0, so the expansion is finite on each of them
    narrow = (du < 1e-4 * u0).nonzero()[0]
    if len(narrow):
        du, m = du[narrow], m[narrow]
        um = 0.5 * (u0[narrow] + u1[narrow])
        wm = 0.5 * (w0[narrow] + w1[narrow])
        corr = s * du**2 / (12.0 * um) * (m + wm * (s - 1.0) / (2.0 * um))
        out[..., narrow] = _powers(um, s) * du * (wm + corr)
    return out


def power_cells(x: np.ndarray, w: np.ndarray, s, shift: float = 0.0) -> np.ndarray:
    """Exact integral of (x - shift)^s * wlin(x) over each grid cell.

    ``wlin`` is the piecewise-linear interpolant of (x, w).  Requires
    s > -1 and x >= shift on the grid.  An array of exponents gives one row
    of cells per exponent, so several moments take one pass over the grid;
    a lone exponent takes the same path as a batch of one.
    """
    u = np.asarray(x, dtype=float) - shift
    w = np.asarray(w, dtype=float)
    lone = np.ndim(s) == 0
    s = np.reshape(np.asarray(s, dtype=float), (-1, 1))
    out = _cells(u, w, s, _powers(u, s + 1.0), _powers(u, s + 2.0))
    return out[0] if lone else out


def power_total(x, w, s, shift: float = 0.0):
    """Exact integral of (x - shift)^s * wlin(x) over the grid, by parts.

    With u = x - shift: (u_m^(s+1) w_m - u_0^(s+1) w_0 + the sum over cells of
    (w_i - w_(i+1)) times the cell mean of u^(s+1)) / (s+1), that mean taken as
    u_i^(s+1) expm1((s+2) log1p(r)) / ((s+2) r) for r = du/u_i, which does not
    cancel on a narrow cell, and as u_1^(s+1)/(s+2) on a first cell from u = 0.
    Requires s > -1 and x >= shift.  From u = 0 and for a nonincreasing w, every
    term is nonnegative; from u_0 > 0 the boundary terms cancel to about
    eps u_0/(u_m - u_0) relative.  Exponents as for :func:`power_cells`.
    """
    u = np.asarray(x, dtype=float) - shift
    w = np.asarray(w, dtype=float)
    lone = np.ndim(s) == 0
    s = np.reshape(np.asarray(s, dtype=float), (-1, 1))
    q = _powers(u, s + 1.0)  # one power per node
    k = int(u[0] == 0.0)  # a first cell from u = 0
    r = (u[k + 1:] - u[k:-1]) / u[k:-1]
    mean = np.expm1(np.log1p(r) * (s + 2.0)) / (r * (s + 2.0)) * q[:, k:-1]
    mean = np.concatenate((q[:, 1:1 + k] / (s + 2.0), mean), axis=1) * (w[:-1] - w[1:])
    total = (mean.sum(axis=-1) + q[:, -1] * w[-1] - q[:, 0] * w[0]) / (s[:, 0] + 1.0)
    return float(total[0]) if lone else total


_FLUX_EXPONENT = np.array([-2.0 / 3.0])


def flux_total(x, w) -> float:
    """``power_total(x, w, -2/3)``, the flux integral of x^(-2/3) * wlin,
    with x^(1/3) by the cube root and x^(4/3) as x * x^(1/3)."""
    x = np.asarray(x, dtype=float)
    r = np.cbrt(x)
    return float(_cells(x, np.asarray(w, dtype=float), _FLUX_EXPONENT, r, x * r).sum())


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
