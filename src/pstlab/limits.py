"""Quantitative bounds on transfer: rate bound 2l + D <= M, routing
impossibility for real Hamiltonians, Margolus-Levitin time lower bound,
Laplacian diameter bounds, and the complement rule e^{-i t0 N} = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, diameter, distance, support_graph
from .hamiltonians import laplacian_hamiltonian
from .spectral import _decomposition, decompose
from .transfer import NonRealHamiltonian, NotPerfect, _abs2, decide


ZERO_GRID = 10**4  # intervals of autocorrelation_zeros' grid on [0, t0]
ZERO_TOL = 1e-8  # |<a|e^{-iHt}|a>| at or below this is a zero
COMPLEMENT_TOL = 1e-8  # allowed distance of t0 * n from a multiple of 2 pi
CEIL_TOL = 1e-9  # _safe_ceil rounds x to an integer this close
MOHAR_ALPHAS = (2.0, math.e, 4.0)  # where laplacian_diameter_bounds evaluates the Mohar bound
REFINE_MAX_STEPS = 100  # bisection alone narrows a bracket 2^100-fold


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


def refine_extrema(lams, coeffs, lo, hi, t):
    """Local minima of |f(t)|, f(t) = sum_k c_k e^{-i lambda_k t},
    one in each bracket [lo[j], hi[j]], starting from t[j].

    Every bracket is refined at once by Newton's method on d|f|^2/dt, whose
    derivatives are closed-form sums over the spectrum.  Each step first
    shrinks the bracket to the side where d|f|^2/dt changes sign; a step that
    would leave the bracket, or a second derivative of the wrong sign, falls
    back to bisection.  A bracket stops at a step of at most 4 eps max(|t|, w0),
    w0 its initial width, so cH refines to H's times over c.  Returns (times, |f|).
    """
    lams = np.asarray(lams, dtype=float)
    c0 = np.asarray(coeffs, dtype=complex)
    c1 = -1j * lams * c0
    c2 = -lams * lams * c0
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    t = np.array(t, dtype=float)
    width = hi - lo
    active = np.arange(len(t))
    for _ in range(REFINE_MAX_STEPS):
        if not len(active):
            break
        ta = t[active]
        e = np.exp(-1j * np.outer(ta, lams))
        f, f1, f2 = e @ c0, e @ c1, e @ c2
        # d|f|^2/dt and d^2|f|^2/dt^2
        g1 = 2.0 * (f.real * f1.real + f.imag * f1.imag)
        g2 = 2.0 * (_abs2(f1) + f.real * f2.real + f.imag * f2.imag)
        rising = g1 > 0
        hi[active[rising]] = ta[rising]
        lo[active[~rising]] = ta[~rising]
        la, ha = lo[active], hi[active]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = ta - g1 / g2
        newton = (g2 > 0) & (step >= la) & (step <= ha)
        step = np.where(newton, step, 0.5 * (la + ha))
        t[active] = step
        rounding = 4.0 * np.finfo(float).eps * np.maximum(width[active], np.abs(ta))
        active = active[np.abs(step - ta) > rounding]
    return t, np.abs(np.exp(-1j * np.outer(t, lams)) @ c0)


def _autocorrelation_grid(lams, weights, t0):
    b, dt = math.isqrt(ZERO_GRID) + 1, t0 / ZERO_GRID
    outer = np.exp(-1j * np.outer(np.arange(0, ZERO_GRID + 1, b) * dt, lams)) * weights
    inner = np.exp(-1j * np.outer(lams, np.arange(b) * dt))
    return np.abs(outer @ inner).ravel()[:ZERO_GRID + 1]


def autocorrelation_zeros(h, a: int, t0: float):
    """Times t in (0, t0) with <a|e^{-iHt}|a> = 0; h is a matrix or its
    SpectralDecomposition.

    The autocorrelation f is complex, so zeros are located as local minima of
    |f| on a grid of G = ZERO_GRID intervals, all refined in one refine_extrema
    call; both real and imaginary parts must vanish (|f| <= ZERO_TOL) for a
    time to count.  With t_j = j dt, j = qB + r and B = isqrt(G) + 1, the grid
    is one product (w_k e^{-i lambda_k qB dt})_{q,k} (e^{-i lambda_k r dt})_{k,r}
    over the M eigenvalues: about 2 sqrt(G) M exponentials in O(G + sqrt(G) M)
    memory, with the candidates of the direct G x M cos/sin grid.  A grid
    minimum is a candidate only where both grid neighbours lie above the
    rounding level of f, since where |f| is at that level (near a zero of high
    order, as cos^(N-1) t has at t0 = pi/2) its minima are noise.  Raises
    ValueError when (lambda_max - lambda_min) t0 > G, where the grid has
    fewer than 2 pi points per period of the fastest term of |f|^2 and
    would miss zeros.
    """
    if not 0 < t0 < math.inf:
        raise ValueError("t0 must be finite and positive")
    dec = _decomposition(h)
    weights = dec.pair_coefficients(a, a).real
    lams = np.asarray(dec.eigenvalues)
    if (lams[-1] - lams[0]) * t0 > ZERO_GRID:
        raise ValueError(f"t0 = {t0:.6g} is too long for the zero grid: "
                         f"(lambda_max - lambda_min) t0 > ZERO_GRID = {ZERO_GRID}")
    times = np.linspace(0.0, t0, ZERO_GRID + 1)
    vals = _autocorrelation_grid(lams, weights, t0)
    coarse = max(ZERO_TOL, 4.0 * float(np.abs(lams).max()) * (t0 / ZERO_GRID))
    noise = 64 * len(lams) * np.finfo(float).eps * float(np.abs(weights).sum())
    left, mid, right = vals[:-2], vals[1:-1], vals[2:]
    minima = 1 + np.flatnonzero((mid <= left) & (mid <= right) & (mid < coarse)
                                & (left > noise) & (right > noise))
    refined, mags = refine_extrema(lams, weights, times[minima - 1], times[minima + 1],
                                   times[minima])
    zeros = []
    for t, mag in zip(refined.tolist(), mags.tolist()):
        if mag <= ZERO_TOL and 0.0 < t < t0:
            if not zeros or t - zeros[-1] > 2 * t0 / ZERO_GRID:
                zeros.append(t)
    return zeros


def rate_report(h, a: int, b: int) -> RateReport:
    """Rate-bound data for a Perfect instance.

    One decomposition serves the decision, as check_transfer makes it, and
    the report.  Raises NotPerfect, carrying the verdict, when transfer from
    a to b is not decided perfect.
    """
    dec = decompose(h)
    verdict = decide(dec, [(a, b)])[0]
    if not verdict.is_perfect:
        raise NotPerfect("rate report requires a Perfect verdict", verdict)
    h = np.asarray(h)
    d = distance(support_graph(h), a, b)
    m = dec.num_eigenspaces
    zeros = autocorrelation_zeros(dec, a, verdict.t0)
    l = len(zeros)
    coupling_sum = float(np.sum(np.abs(np.delete(h[a], a))))
    ml = (l + 1) * math.pi / (4.0 * coupling_sum)
    return RateReport(d, m, l, tuple(zeros), 2 * l + d <= m, ml)


def routing_bound_check(D: int, J: int, M: int, N: int) -> bool:
    """D*J <= M-1 and M <= N: necessary for routing to J targets at distance D."""
    if min(D, J, M, N) <= 0:
        raise ValueError("all arguments must be positive")
    return D * J <= M - 1 and M <= N


def routing_impossibility_scan(h, a: int) -> dict:
    """All targets with perfect transfer from a, as {target: t0}.

    For a real Hamiltonian at most one target can exist; a second one raises
    RoutingViolation with the evidence in the message.  Each target is
    decided as check_transfer decides it, on one decomposition.
    """
    dec = decompose(h)
    if not dec.real:
        raise NonRealHamiltonian("routing scan is defined for real Hamiltonians")
    pairs = [(a, c) for c in range(dec.n) if c != a]
    found = {b: v.t0 for (_, b), v in zip(pairs, decide(dec, pairs)) if v.is_perfect}
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


def _safe_ceil(x: float) -> int:
    # guard against 2.0000000000000004-style float noise
    r = round(x)
    if abs(x - r) <= CEIL_TOL:
        return r
    return math.ceil(x)


def laplacian_diameter_bounds(g: Graph, alphas=MOHAR_ALPHAS) -> DiameterBoundsReport:
    """Diameter bounds D <= 2d, D+1 <= k, and the Mohar bound at each alpha.

    k is the number of distinct Laplacian eigenvalues, the eigenspaces of
    its decomposition.  Each alpha must be finite and > 1.
    """
    if not all(1 < alpha < math.inf for alpha in alphas):
        raise ValueError(f"each Mohar alpha must be finite and greater than 1, got {alphas}")
    D = diameter(g)
    if D is None:
        raise Disconnected("diameter bounds require a connected graph")
    d = g.max_degree()
    k = decompose(laplacian_hamiltonian(g)).num_eigenspaces
    # the Mohar bound's log term is vacuous for N <= 2
    mohar = {alpha: _mohar_bound(d, g.n, alpha) for alpha in alphas} if g.n > 2 else {}
    bounds = [2 * d, k - 1, *mohar.values()]
    return DiameterBoundsReport(
        D, d, 2 * d, k, k - 1, mohar, D <= min(bounds)
    )


def complement_pst_condition(t0: float, n: int) -> bool:
    """e^{-i t0 n} = 1, the condition for PST to survive complementation."""
    if not 0 < t0 < math.inf:
        raise ValueError("t0 must be finite and positive")
    if n < 2:
        raise ValueError("n must be at least 2")
    r = math.fmod(t0 * n, 2.0 * math.pi)
    return min(abs(r), abs(2.0 * math.pi - r)) <= COMPLEMENT_TOL
