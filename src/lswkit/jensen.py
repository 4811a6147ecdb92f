"""Certificates for the reverse and sharp Jensen inequalities.

For a positive variable X with survival function w/w(0), concavity gives
<X^a> <= <X>^a for a in (0,1).  When the beta function of X is bounded above
the inequality reverses up to a constant C; when it is bounded below away
from zero the forward inequality is strict by a gap eta.  Both constants are
computed here from the profile itself rather than from worst-case closed
forms, so the certificates are sharp for the given data.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .profiles import SurvivalProfile, beta_from_profile, write_json

# leg-8 nodes/weights on [-1, 1] for smooth integrands against cellwise
# constant densities, built on first use: numpy.polynomial takes ms to import
_gauss_legendre = functools.cache(lambda: np.polynomial.legendre.leggauss(8))


@dataclass(frozen=True)
class JensenCertificate:
    alpha: float
    lhs: float                # <X^alpha>
    rhs_reverse: float        # C * <X>^alpha
    rhs_sharp: float          # (1 - eta) * <X>^alpha
    C_used: float
    eta_used: float
    passed: bool
    applicable: bool = True
    note: str = ""

    def to_json(self, path: str | Path) -> None:
        write_json(path, asdict(self))


@dataclass(frozen=True)
class BoundReport:
    max_violation: float      # positive means an inequality failed by that much
    n_checked: int
    details: dict
    tol: float = 0.0          # grid tolerance for discretization noise

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol


def _extended_cells(profile: SurvivalProfile, levels: int = 48):
    """Grid + values with the analytic tail discretized at halving levels."""
    x = profile.grid
    w = profile.values
    xm, wm = float(x[-1]), float(w[-1])
    tail = profile.tail
    if tail.kind == "compact":
        return x, w, wm
    k = np.arange(1, levels + 1)
    if tail.kind == "exponential":
        extra_x = xm + k * np.log(2.0) / tail.param
    else:
        extra_x = xm * 2.0 ** (k / tail.param)
    extra_w = wm * 2.0 ** (-k.astype(float))
    return np.concatenate((x, extra_x)), np.concatenate((w, extra_w)), 0.0


def expectation(profile: SurvivalProfile, phi) -> float:
    """E[phi(X)] for piecewise-constant density per cell, plus end atom.

    phi must be vectorized and integrable against the profile's tail.
    """
    x, w, atom = _extended_cells(profile)
    dx = np.diff(x)
    dens = (w[:-1] - w[1:]) / dx          # cell density of X (times w(0))
    mid = 0.5 * (x[:-1] + x[1:])
    half = 0.5 * dx
    gl_x, gl_w = _gauss_legendre()
    nodes = mid[:, None] + half[:, None] * gl_x[None, :]
    cell_int = half * (phi(nodes) @ gl_w)
    total = float(np.sum(dens * cell_int))
    if atom > 0.0:
        total += atom * float(phi(x[-1]))
    return total / profile.w0


def truncated_mean(profile: SurvivalProfile, y: float) -> float:
    """E[X; X < y] via integration by parts (exact for the representation)."""
    return (profile.mass - profile.h_at(y) - y * profile.w_at(y)) / profile.w0


def conditional_mean(profile: SurvivalProfile, x: float) -> float:
    """E[X | X > x] = x + h(x)/w(x)."""
    wx = profile.w_at(x)
    if wx <= 0:
        raise ValueError("conditioning event has probability zero")
    return x + profile.h_at(x) / wx


def reverse_jensen(profile: SurvivalProfile, alpha: float) -> JensenCertificate:
    """Certify <X^a> >= C <X>^a with C derived from the median scale.

    C1 is the largest c with w(x)/w(0) >= 1/2 on [0, c<X>]; then
    <X^a> >= (1/2) (C1 <X>)^a, so C = C1^a / 2.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    mean = profile.mean
    beta = beta_from_profile(profile)
    if not (np.isfinite(mean) and np.isfinite(beta.sup)):
        return JensenCertificate(alpha, np.nan, np.nan, np.nan, np.nan, np.nan,
                                 passed=False, applicable=False,
                                 note="mean or sup beta not finite")
    c1 = profile.quantile(0.5) / mean
    c = 0.5 * c1**alpha
    lhs = profile.moment(alpha)
    rhs = c * mean**alpha
    return JensenCertificate(
        alpha=alpha, lhs=lhs, rhs_reverse=rhs, rhs_sharp=np.nan,
        C_used=c, eta_used=np.nan, passed=bool(lhs >= rhs),
    )


def sharp_jensen(profile: SurvivalProfile, alpha: float) -> JensenCertificate:
    """Certify <X^a> <= (1 - eta) <X>^a with eta > 0 when inf beta > 0.

    Confirms the truncated-mean bound
    E[X; X < (1+xi)<X>] <= 2(1+xi) <X> / (sqrt(1 + (1+xi) b0) + 1)
    on a log-spaced xi grid, then reports the observed gap
    eta = 1 - <X^a>/<X>^a, required to clear a margin proportional to b0.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    beta = beta_from_profile(profile)
    b0 = beta.inf
    if not b0 > 0:
        return JensenCertificate(alpha, np.nan, np.nan, np.nan, np.nan, np.nan,
                                 passed=False, applicable=False,
                                 note="inf beta is zero; no strict gap is certified")
    mean = profile.mean
    xis = np.logspace(-3, np.log10(2.0), 32)
    trunc_ok = True
    for xi in xis:
        lhs = truncated_mean(profile, (1.0 + xi) * mean)
        rhs = 2.0 * (1.0 + xi) * mean / (np.sqrt(1.0 + (1.0 + xi) * b0) + 1.0)
        if lhs > rhs * (1.0 + 1e-12):
            trunc_ok = False
            break
    lhs = profile.moment(alpha)
    eta = 1.0 - lhs / mean**alpha
    margin = 1e-3 * alpha * (1.0 - alpha) * b0 / (1.0 + b0)
    return JensenCertificate(
        alpha=alpha, lhs=lhs, rhs_reverse=np.nan,
        rhs_sharp=(1.0 - eta) * mean**alpha,
        C_used=np.nan, eta_used=eta,
        passed=bool(trunc_ok and eta > margin),
    )


TAIL_POINTS = 24  # quantile levels 2^(-k/3), k = 1..TAIL_POINTS, of the conditional-mean bound


def tail_and_conditional_bounds(profile: SurvivalProfile) -> BoundReport:
    """Check E[X|X>x] >= <X> + b0 x and P(X > lam <X>) <= 1/(1 + b0 lam)."""
    beta = beta_from_profile(profile)
    b0 = beta.inf
    mean = profile.mean
    qs = 2.0 ** (-np.arange(1, TAIL_POINTS + 1) / 3.0)
    xs = profile.quantile(qs)
    worst = -np.inf
    details: dict = {"b0": b0, "mean": mean}
    for x in xs:
        slack = (mean + b0 * x) - conditional_mean(profile, x)
        worst = max(worst, slack / mean)
    details["conditional_mean_worst"] = worst
    lams = np.array([0.25, 0.5, 1.0, 2.0, 5.0, 10.0])
    for lam in lams:
        p = profile.w_at(lam * mean) / profile.w0
        slack = p - 1.0 / (1.0 + b0 * lam)
        worst = max(worst, slack)
    details["n_x"] = len(xs)
    return BoundReport(max_violation=float(worst), n_checked=len(xs) + len(lams),
                       details=details, tol=1e-5)


def quantitative_jensen_gap(profile: SurvivalProfile, alpha: float) -> BoundReport:
    """Check E[|<X>^a - X^a|^(1/a)] <= (1/a) <X>^(1-a) (<X>^a - <X^a>).

    Valid for 0 < a <= 1/2; for larger a the ratio of the two sides is
    reported without assertion (the inequality can fail there).
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    mean = profile.mean
    ma = profile.moment(alpha)
    lhs = expectation(profile, lambda x: np.abs(mean**alpha - np.power(x, alpha)) ** (1.0 / alpha))
    rhs = (1.0 / alpha) * mean ** (1.0 - alpha) * (mean**alpha - ma)
    g_mean = expectation(
        profile,
        lambda x: np.abs((x / mean) ** alpha - 1.0) ** (1.0 / alpha)
        + (x / mean) ** alpha / alpha
        - x / mean,
    )
    details = {
        "lhs": lhs,
        "rhs": rhs,
        "ratio": lhs / rhs if rhs > 0 else np.inf,
        "g_mean": g_mean,
        "g_bound": 1.0 / alpha - 1.0,
        "asserted": alpha <= 0.5,
    }
    if alpha > 0.5:
        return BoundReport(max_violation=0.0, n_checked=0, details=details)
    tol = 1e-9 * max(abs(lhs), abs(rhs), 1.0)
    viol = max(lhs - rhs, g_mean - (1.0 / alpha - 1.0)) - tol
    return BoundReport(max_violation=float(viol), n_checked=2, details=details)
