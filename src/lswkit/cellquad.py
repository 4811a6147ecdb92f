"""Closed-form integrals of piecewise-linear data against power-law kernels.

Profiles in this package are piecewise linear on nonuniform grids, so every
integral of the form  integral x^s * w(x) dx  with s > -1 (including the
singular kernels x^{-2/3} and x^{-1/3}) has an exact per-cell antiderivative.
Using these instead of generic quadrature keeps conservation checks free of
quadrature error.
"""
from __future__ import annotations

import numpy as np


def power_cells(x: np.ndarray, w: np.ndarray, s: float, shift: float = 0.0) -> np.ndarray:
    """Exact integral of (x - shift)^s * wlin(x) over each grid cell.

    ``wlin`` is the piecewise-linear interpolant of (x, w).  Requires
    s > -1 and x >= shift on the grid.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    u = x - shift
    u0, u1 = u[:-1], u[1:]
    w0, w1 = w[:-1], w[1:]
    du = u1 - u0
    m = (w1 - w0) / du
    a = w0 - m * u0  # w = a + m*u on the cell
    p1 = np.diff(np.power(u, s + 1.0)) / (s + 1.0)
    p2 = np.diff(np.power(u, s + 2.0)) / (s + 2.0)
    out = a * p1 + m * p2
    # the primitive differences cancel catastrophically on cells much
    # narrower than their distance from the singularity; a midpoint
    # expansion with the leading curvature terms is then accurate to
    # O((du/u)^4) relative and free of cancellation
    narrow = du < 1e-4 * u0
    if np.any(narrow):
        um = 0.5 * (u0 + u1)
        wm = 0.5 * (w0 + w1)
        with np.errstate(divide="ignore", invalid="ignore"):
            corr = s * du**2 / (12.0 * um) * (m + wm * (s - 1.0) / (2.0 * um))
            mid = np.power(um, s) * du * (wm + corr)
        out = np.where(narrow, mid, out)
    return out


def power_total(x, w, s, shift: float = 0.0) -> float:
    return float(np.sum(power_cells(x, w, s, shift)))


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

