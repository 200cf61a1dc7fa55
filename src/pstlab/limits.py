"""Quantitative bounds on transfer: rate bound 2l + D <= M, routing
impossibility for real Hamiltonians, Margolus-Levitin time lower bound,
Laplacian diameter bounds, and the complement rule e^{-i t0 N} = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, diameter, distance
from .hamiltonians import is_real_hamiltonian, require_hermitian, support_graph
from .spectral import (
    DEFAULT_GROUPING_TOL,
    SpectralDecomposition,
    _require_vertices,
    decompose,
    is_integral_spectrum,
)
from .transfer import (
    DEFAULT_SUPPORT_TOL,
    DEFAULT_WEIGHT_TOL,
    NonRealHamiltonian,
    NotPerfect,
    _check,
    _decide,
    refine_extrema,
    weight_test,
)


class Disconnected(ValueError):
    pass


class RoutingViolation(AssertionError):
    """A real Hamiltonian transferred perfectly to two distinct targets."""


@dataclass(frozen=True)
class RateReport:
    D: int  # transfer distance on the coupling graph
    M: int  # distinct eigenvalues (the size after resolving degeneracies)
    l: int  # autocorrelation zeros in (0, t0)
    zero_times: tuple
    bound_satisfied: bool  # 2l + D <= M
    ml_lower_bound: float  # Margolus-Levitin: (l+1) pi / (4 sum_j |J_aj|)


def autocorrelation_zeros(h, a: int, t0: float, grid: int = 10**4,
                          tol: float = 1e-8, dec: SpectralDecomposition = None):
    """Times t in (0, t0) with <a|e^{-iHt}|a> = 0.

    The autocorrelation f is complex, so zeros are located as local minima of
    |f| on a grid, all refined in one refine_extrema call; both real and
    imaginary parts must vanish (|f| <= tol) for a time to count.  A grid
    minimum is a candidate only where both grid neighbours lie above the
    rounding level of f, since where |f| is at that level (near a zero of
    high order, as cos^(N-1) t has at t0 = pi/2) its minima are noise.  A
    caller that has decomposed H already passes dec, and h is then not read.
    """
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    if grid < 10**3:
        raise ValueError("grid must be at least 1000")
    if dec is None:
        dec = decompose(require_hermitian(h))
    weights = dec.pair_coefficients(a, a).real
    lams = np.asarray(dec.eigenvalues)
    times = np.linspace(0.0, t0, grid + 1)
    # the weights are real, so |f| = |cos(X) w - i sin(X) w|
    x = np.outer(times, lams)
    vals = np.hypot(np.cos(x) @ weights, np.sin(x) @ weights)
    coarse = max(tol, 4.0 * float(np.abs(lams).max()) * (t0 / grid))
    noise = 64 * len(lams) * np.finfo(float).eps * float(np.abs(weights).sum())
    left, mid, right = vals[:-2], vals[1:-1], vals[2:]
    minima = 1 + np.flatnonzero((mid <= left) & (mid <= right) & (mid < coarse)
                                & (left > noise) & (right > noise))
    refined, mags = refine_extrema(lams, weights, times[minima - 1], times[minima + 1],
                                   times[minima])
    zeros = []
    for t, mag in zip(refined.tolist(), mags.tolist()):
        if mag <= tol and 0.0 < t < t0:
            if not zeros or t - zeros[-1] > 2 * t0 / grid:
                zeros.append(t)
    return zeros


def rate_report(h, a: int, b: int, **check_kwargs) -> RateReport:
    """Rate-bound data for a Perfect instance.

    The keyword arguments are those of check_transfer, and one decomposition
    serves the decision and the report.  Raises NotPerfect, carrying the
    verdict, when transfer from a to b is not decided perfect.
    """
    h, dec, verdict = _check(h, a, b, **check_kwargs)
    if not verdict.is_perfect:
        raise NotPerfect("rate report requires a Perfect verdict", verdict)
    g = support_graph(h)
    d = distance(g, a, b)
    m = dec.num_eigenspaces
    zeros = autocorrelation_zeros(h, a, verdict.t0, dec=dec)
    l = len(zeros)
    coupling_sum = float(np.sum(np.abs(np.delete(h[a], a))))
    ml = (l + 1) * math.pi / (4.0 * coupling_sum)
    return RateReport(d, m, l, tuple(zeros), 2 * l + d <= m, ml)


def routing_bound_check(D: int, J: int, M: int, N: int) -> bool:
    """D*J <= M-1 and M <= N: necessary for routing to J targets at distance D."""
    if min(D, J, M, N) <= 0:
        raise ValueError("all arguments must be positive")
    return D * J <= M - 1 and M <= N


def routing_impossibility_scan(h, a: int, *, grouping_tol: float = DEFAULT_GROUPING_TOL,
                               support_tol: float = DEFAULT_SUPPORT_TOL,
                               weight_tol: float = DEFAULT_WEIGHT_TOL,
                               **check_kwargs) -> dict:
    """All targets with perfect transfer from a, as {target: t0}.

    For a real Hamiltonian at most one target can exist; a second one raises
    RoutingViolation with the evidence in the message.  The keyword
    arguments are those of check_transfer; one decomposition and one weight
    test serve every target.
    """
    h = require_hermitian(h)
    if not is_real_hamiltonian(h):
        raise NonRealHamiltonian("routing scan is defined for real Hamiltonians")
    n = h.shape[0]
    _require_vertices(n, a)
    dec = decompose(h, grouping_tol)
    test = weight_test(dec, a, [c for c in range(n) if c != a], support_tol, weight_tol)
    found = {}
    for j in test.passing():
        verdict = _decide(dec, True, test, j, **check_kwargs)
        if verdict.is_perfect:
            found[int(test.targets[j])] = verdict.t0
    if len(found) > 1:
        raise RoutingViolation(f"multiple perfect targets from {a}: {found}")
    return found


@dataclass(frozen=True)
class DiameterBoundsReport:
    D: int
    max_degree: int
    two_d: int
    k: int  # distinct Laplacian eigenvalues
    k_minus_1: int
    mohar: dict  # alpha -> bound
    all_satisfied: bool


def _mohar_bound(d: int, n: int, alpha: float) -> int:
    x = math.sqrt(2 * d) * math.sqrt((alpha * alpha - 1) / (4 * alpha)) + 1
    y = math.log(n / 2) / math.log(alpha)
    return 2 * _safe_ceil(x) * _safe_ceil(y)


def _safe_ceil(x: float, eps: float = 1e-9) -> int:
    # guard against 2.0000000000000004-style float noise
    r = round(x)
    if abs(x - r) <= eps:
        return r
    return math.ceil(x)


def laplacian_diameter_bounds(g: Graph, alphas=(2.0, math.e, 4.0)) -> DiameterBoundsReport:
    """Diameter bounds D <= 2d, D+1 <= k, and the Mohar bound at each alpha.

    k is the number of distinct Laplacian eigenvalues, decided exactly when
    the Laplacian spectrum is integral.
    """
    D = diameter(g)
    if D is None:
        raise Disconnected("diameter bounds require a connected graph")
    d = g.max_degree()
    lap = np.diag(g.adjacency().sum(axis=1)) - g.adjacency()
    integral, roots = is_integral_spectrum(lap)
    if integral:
        k = len(set(roots))
    else:
        k = decompose(lap.astype(float)).num_eigenspaces
    # the Mohar bound's log term is vacuous for N <= 2
    mohar = {alpha: _mohar_bound(d, g.n, alpha) for alpha in alphas} if g.n > 2 else {}
    bounds = [2 * d, k - 1, *mohar.values()]
    return DiameterBoundsReport(
        D, d, 2 * d, k, k - 1, mohar, D <= min(bounds)
    )


def complement_pst_condition(t0: float, n: int, tol: float = 1e-8) -> bool:
    """e^{-i t0 n} = 1, the condition for PST to survive complementation."""
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    if n < 2:
        raise ValueError("n must be at least 2")
    r = math.fmod(t0 * n, 2.0 * math.pi)
    return min(abs(r), abs(2.0 * math.pi - r)) <= tol
