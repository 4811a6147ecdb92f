"""Stationary profiles of the normalized coarsening flow.

For each alpha in (0, 4/27) the drift polynomial f_alpha(z) = 1 - z^(1/3)
+ alpha z has a minimal positive zero a_alpha > 1, and the flow admits the
time-independent normalized profile

    w*(y) = exp(-alpha Gamma_alpha(gamma y)),  Gamma_alpha(z) = int_0^z dz'/f_alpha,

with gamma fixed by unit mass.  Gamma_alpha has a logarithmic singularity at
a_alpha which is integrated analytically here (pole term split off), so the
profile and its beta function are accurate all the way to the support end.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import optimize

from . import cellquad
from .errors import ConfigError
from .profiles import BetaProfile, SurvivalProfile, TailModel, write_csv

ALPHA_MAX = 4.0 / 27.0
ALPHA_MARGIN = 1e-3     # build_profile takes alpha below ALPHA_MAX - ALPHA_MARGIN
N_BULK = 4000           # uniform nodes on [0, 0.9 a]
N_CLUSTER = 3000        # geometric nodes toward the support end
CLUSTER_DEPTH = 12.0    # the last node sits 10^(-CLUSTER_DEPTH) a from the end


def f_alpha(alpha: float, z):
    z = np.asarray(z, float)
    return 1.0 - np.cbrt(z) + alpha * z


def f_alpha_roots(alpha: float) -> float:
    """The minimal root a_alpha of 1 - z^(1/3) + alpha z."""
    if not 0 < alpha < ALPHA_MAX:
        raise ConfigError("alpha must lie in (0, 4/27)")
    zmin = (1.0 / (3.0 * alpha)) ** 1.5  # location of the minimum
    return float(optimize.brentq(lambda z: f_alpha(alpha, z), 1.0, zmin, xtol=1e-15, rtol=1e-15))


def f_alpha_near_root(alpha: float, a: float, u):
    """f_alpha(a - u) evaluated without cancellation, for the root a.

    Uses f(a - u) = a^(1/3) [1 - (1 - u/a)^(1/3)] - alpha u, exact to rounding
    at any depth, where the direct formula loses all digits for small u.
    """
    u = np.asarray(u, float)
    with np.errstate(divide="ignore"):
        return -np.cbrt(a) * np.expm1(np.log1p(-u / a) / 3.0) - alpha * u


@dataclass(frozen=True)
class SelfSimilarProfile:
    alpha: float
    a_alpha: float
    gamma: float
    z: np.ndarray          # nodes in (0 <= z < a_alpha)
    u: np.ndarray          # exact distances a_alpha - z (grid is built in u)
    f: np.ndarray          # f_alpha at the nodes, cancellation-free
    Gamma: np.ndarray      # Gamma_alpha at the nodes
    w: np.ndarray          # exp(-alpha Gamma)
    pole_coeff: float      # residue factor 3 a^(2/3) / (1 - 3 alpha a^(2/3))
    z4_residual: float     # | int z^(-2/3) w dz - 3 |

    def save(self, csv_path: str | Path, g=None) -> None:
        g = np.full_like(self.z, np.nan) if g is None else g
        write_csv(csv_path, "z,Gamma,w_star,g_alpha", (self.z, self.Gamma, self.w, g))
        meta = {"alpha": self.alpha, "a_alpha": self.a_alpha,
                "gamma": self.gamma, "z4_residual": self.z4_residual}
        Path(csv_path).with_suffix(".json").write_text(json.dumps(meta, indent=2) + "\n")


def build_profile(alpha: float) -> SelfSimilarProfile:
    """Sample Gamma_alpha and the stationary profile on a graded grid.

    The grid is uniform on [0, 0.9 a] and geometrically refined toward the
    support end, down to a distance 10^(-CLUSTER_DEPTH) a.
    """
    if not 0 < alpha < ALPHA_MAX - ALPHA_MARGIN:
        raise ConfigError(
            f"alpha must be below 4/27 - {ALPHA_MARGIN:g}; near the degenerate value "
            "the two roots of the drift coalesce and the profile is ill-conditioned"
        )
    a = f_alpha_roots(alpha)
    cp = 3.0 * a ** (2.0 / 3.0) / (1.0 - 3.0 * alpha * a ** (2.0 / 3.0))
    # the grid lives in u = a - z: exact near the root where z itself rounds
    u_bulk = a - np.linspace(0.0, 0.9 * a, N_BULK, endpoint=False)
    s = np.linspace(1.0, CLUSTER_DEPTH, N_CLUSTER)
    u = np.concatenate((u_bulk, a * 10.0 ** (-s)))
    u = u[np.concatenate(([True], np.diff(u) < -1e-14 * a))]
    z = a - u
    z[0] = 0.0
    f = f_alpha_near_root(alpha, a, u)

    # 1/f = cp/u - reg with reg smooth on [0, a]; near the root the quotient
    # form cancels, so switch to the limit value there
    lim = 1.0 / (np.cbrt(a) * (1.0 - 3.0 * alpha * a ** (2.0 / 3.0)) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        reg = (cp * f - u) / (u * f)
    reg = np.where(u < 1e-7 * a, lim, reg)
    du = -np.diff(u)
    reg_int = np.concatenate(([0.0], np.cumsum(0.5 * (reg[:-1] + reg[1:]) * du)))
    Gamma = cp * np.log(a / u) - reg_int
    w = np.exp(-alpha * Gamma)

    # unit-mass normalization, computed on the same representative used later
    gamma = float(np.sum(0.5 * (w[:-1] + w[1:]) * du) + 0.5 * w[-1] * u[-1])
    ze = np.append(z, a)
    we = np.append(w, 0.0)
    z4 = cellquad.power_total(ze[1:], we[1:], -2.0 / 3.0) + \
        cellquad.power_total(ze[:2], we[:2], -2.0 / 3.0)
    z4_residual = abs(z4 - 3.0)
    return SelfSimilarProfile(
        alpha=alpha, a_alpha=a, gamma=gamma,
        z=z, u=u, f=f, Gamma=Gamma, w=w, pole_coeff=cp, z4_residual=z4_residual,
    )


@dataclass(frozen=True)
class GAlphaProfile:
    z: np.ndarray
    values: np.ndarray
    g0: float               # value at z = 0 (equals alpha * gamma)
    g_end: float            # extrapolated limit at a_alpha
    g_end_exact: float      # 3 alpha a^(2/3)
    ode_residual: float     # max defect in d/dz[f_alpha g] = alpha (g - 1)
    identity_residuals: tuple  # flux identity checked at z = 0 and z = a/2


def g_alpha_profile(profile: SelfSimilarProfile) -> GAlphaProfile:
    """The beta function of the stationary profile, in the z variable.

    g(z) = alpha * H(z) / (f_alpha(z) w(z)) with H the remaining mass beyond
    z; satisfies d/dz [f_alpha g] = alpha (g - 1) and tends to
    3 alpha a^(2/3) at the support end.
    """
    al, a, u, f = profile.alpha, profile.a_alpha, profile.u, profile.f
    # the profile behaves like (a - z)^(alpha*cp) at the support end, so the
    # mass below the last node has the exact power-law stub value; a linear
    # cell there would bias g on the final decade of nodes
    kappa = al * profile.pole_coeff
    w = profile.w
    stub = w[-1] * u[-1] / (1.0 + kappa)
    # integrate each cell as a local power law in u: exact for w ~ u^q, which
    # removes the trapezoid bias that otherwise makes g sag near the end
    lr = np.log(u[1:] / u[:-1])
    with np.errstate(invalid="ignore"):
        q = np.where(lr < 0, np.log(w[1:] / w[:-1]) / lr, 0.0)
    cells = w[:-1] * u[:-1] / (q + 1.0) * (-np.expm1((q + 1.0) * lr))
    H = np.concatenate((np.cumsum(cells[::-1])[::-1], [0.0])) + stub
    g = al * H / (f * w)
    g_end_exact = 3.0 * al * a ** (2.0 / 3.0)
    # linear-in-u extrapolation to the support end from two nearby nodes
    i1 = int(np.searchsorted(-u, -1e-5 * a))
    i2 = int(np.searchsorted(-u, -3e-6 * a))
    u1, u2 = u[i1], u[i2]
    g1, g2 = g[i1], g[i2]
    g_end = g2 + (g2 - g1) * u2 / (u1 - u2)
    # interior defect of the first-order identity for f*g; derivative taken
    # in the exact u coordinate (d/dz = -d/du)
    fg = f * g
    mid = slice(10, -10)
    dz = np.gradient(fg, -u)
    ode_residual = float(np.max(np.abs(dz[mid] - al * (g[mid] - 1.0))))

    ze = np.append(profile.z, a)
    we = np.append(profile.w, 0.0)

    def flux_identity(z0):
        # f(z0) w(z0) = int_z0^a w(z') / (3 z'^(2/3)) dz'
        i0 = int(np.searchsorted(profile.z, z0))
        zq = np.concatenate(([z0], ze[i0:]))
        wq = np.concatenate(([np.interp(z0, profile.z, profile.w)], we[i0:]))
        rhs = cellquad.power_total(zq, wq, -2.0 / 3.0) / 3.0
        lhs = float(f_alpha(al, z0) * np.interp(z0, profile.z, profile.w))
        return abs(lhs - rhs)

    residuals = (flux_identity(1e-12), flux_identity(0.5 * a))
    return GAlphaProfile(
        z=profile.z, values=g, g0=float(g[0]), g_end=float(g_end),
        g_end_exact=g_end_exact, ode_residual=ode_residual,
        identity_residuals=residuals,
    )


def beta_star(profile: SelfSimilarProfile) -> BetaProfile:
    """beta* in the y = z/gamma variable, as a BetaProfile."""
    g = g_alpha_profile(profile)
    y = profile.z / profile.gamma
    low = np.zeros(len(y), dtype=bool)
    return BetaProfile(grid=y, values=g.values, support_end=profile.a_alpha / profile.gamma,
                       low_confidence=low)


def seed_solver(profile: SelfSimilarProfile) -> SurvivalProfile:
    """Export w* as a unit-mass survival profile on the y grid."""
    y = np.append(profile.z, profile.a_alpha) / profile.gamma
    w = np.append(profile.w, 0.0)
    return SurvivalProfile(y * 1.0, np.minimum.accumulate(w), TailModel.compact())
