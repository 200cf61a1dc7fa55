"""Perfect state transfer decision procedure and time evolution.

check_transfer decides whether e^{-iHt0}|a> = e^{i phi}|b> is achievable for
some t0, via the eigenspace weight/proportionality test and the integer gap
structure of the supported spectrum.  Every positive verdict is confirmed by
direct evolution before it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .graphs import Graph, bipartite_coloring
from .hamiltonians import is_real_hamiltonian, require_hermitian, support_graph
from .spectral import (
    DEFAULT_GROUPING_TOL,
    DEFAULT_MAX_DENOMINATOR,
    DEFAULT_RESIDUAL_TOL,
    CommensurabilityResult,
    SpectralDecomposition,
    _require_vertices,
    decompose,
    real_gcd,
)

PERFECT = "perfect"
NO_TRANSFER = "no-transfer"
UNDECIDED = "undecided"

DEFAULT_SUPPORT_TOL = 1e-9
DEFAULT_FIDELITY_TOL = 1e-9
DEFAULT_WEIGHT_TOL = 1e-8
PHASE_REALNESS_TOL = 1e-7
DEFAULT_T_MAX = 50.0
DEFAULT_SCAN_GRID = 10**4


class VertexCoincide(ValueError):
    pass


class NotPerfect(ValueError):
    """A Perfect verdict was required; verdict is the one that was not."""

    def __init__(self, message: str, verdict: "TransferVerdict" = None):
        super().__init__(message)
        self.verdict = verdict


class PhaseUndefined(ValueError):
    pass


class NotBipartite(ValueError):
    pass


class NonRealHamiltonian(ValueError):
    pass


class NonzeroDiagonal(ValueError):
    pass


@dataclass(frozen=True)
class TransferVerdict:
    status: str  # PERFECT / NO_TRANSFER / UNDECIDED
    reason: str = ""
    t0: float = None
    transfer_phase: complex = None  # e^{i phi}, unit modulus
    eigenphases: tuple = ()  # phi_k per supported eigenspace, spectrum order
    supported: tuple = ()  # indices of supported eigenspaces
    gap_structure: CommensurabilityResult = None
    r: int = None  # t0 = r*pi/chi in the real case
    fidelity_at_t0: float = None

    @property
    def is_perfect(self) -> bool:
        return self.status == PERFECT


# -- dynamics -----------------------------------------------------------------


def evolve(h: np.ndarray, state: np.ndarray, t: float, dec: SpectralDecomposition = None) -> np.ndarray:
    """e^{-iHt} |state> via the spectral decomposition."""
    state = np.asarray(state, dtype=complex)
    if abs(np.linalg.norm(state) - 1.0) > 1e-10:
        raise ValueError("state must be normalized")
    if dec is None:
        dec = decompose(h)
    v = dec.vectors
    phases = np.exp(-1j * np.asarray(dec.eigenvalues) * t)[dec.column_space]
    return v @ (phases * (v.conj().T @ state))


def fidelity(h: np.ndarray, a: int, b: int, t: float, dec: SpectralDecomposition = None):
    """(amplitude <b|e^{-iHt}|a>, its magnitude)."""
    if dec is None:
        dec = decompose(h)
    terms = np.exp(-1j * np.asarray(dec.eigenvalues) * t) * dec.pair_coefficients(a, b)
    # a running sum in spectrum order: np.sum and a BLAS product group the
    # terms by vector width, and the last bits of transfer_phase would vary with it
    amp = np.add.accumulate(terms)[-1]
    return amp, abs(amp)


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def fidelity_curve(dec: SpectralDecomposition, a: int, b: int, times: np.ndarray) -> np.ndarray:
    """Amplitudes <b|e^{-iHt}|a> on an array of times."""
    c = dec.pair_coefficients(a, b)
    lams = np.asarray(dec.eigenvalues)
    return np.exp(-1j * np.outer(times, lams)) @ c


REFINE_MAX_STEPS = 100  # bisection alone narrows a bracket 2^100-fold


def refine_extrema(lams, coeffs, lo, hi, t, maximize=False):
    """Local minima (or maxima) of |f(t)|, f(t) = sum_k c_k e^{-i lambda_k t},
    one in each bracket [lo[j], hi[j]], starting from t[j].

    Every bracket is refined at once by Newton's method on d|f|^2/dt, whose
    derivatives are closed-form sums over the spectrum.  Each step first
    shrinks the bracket to the side where d|f|^2/dt changes sign; a step that
    would leave the bracket, or a second derivative of the wrong sign, falls
    back to bisection.  A bracket stops when its step is at most
    1e-14 + 4 eps |t|, the rounding level of t.  Returns (times, |f| there).
    """
    lams = np.asarray(lams, dtype=float)
    c0 = np.asarray(coeffs, dtype=complex)
    c1 = -1j * lams * c0
    c2 = -lams * lams * c0
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    t = np.array(t, dtype=float)
    sign = -1.0 if maximize else 1.0
    active = np.arange(len(t))
    for _ in range(REFINE_MAX_STEPS):
        if not len(active):
            break
        ta = t[active]
        e = np.exp(-1j * np.outer(ta, lams))
        f, f1, f2 = e @ c0, e @ c1, e @ c2
        # sign * d|f|^2/dt and sign * d^2|f|^2/dt^2; the extremum is a minimum of sign*|f|^2
        g1 = 2.0 * sign * (f.real * f1.real + f.imag * f1.imag)
        g2 = 2.0 * sign * (_abs2(f1) + f.real * f2.real + f.imag * f2.imag)
        rising = g1 > 0
        hi[active[rising]] = ta[rising]
        lo[active[~rising]] = ta[~rising]
        la, ha = lo[active], hi[active]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = ta - g1 / g2
        newton = (g2 > 0) & (step >= la) & (step <= ha)
        step = np.where(newton, step, 0.5 * (la + ha))
        t[active] = step
        active = active[np.abs(step - ta) > 1e-14 + 4.0 * np.finfo(float).eps * np.abs(ta)]
    return t, np.abs(np.exp(-1j * np.outer(t, lams)) @ c0)


# -- the eigenspace weight test -------------------------------------------------


@dataclass(frozen=True)
class WeightTest:
    """The eigenspace weight test from one source to several targets.

    Row j is about targets[j], column k about eigenspace k.  The pair passes
    when no eigenspace supports just one of the two vertices, and on every
    eigenspace that supports both, P_k|b> = s_k P_k|a> with |s_k| = 1.
    """

    source: int
    targets: np.ndarray  # (t,)
    supported: np.ndarray  # (t, M) bool: both vertices have weight on P_k
    ratios: np.ndarray  # (t, M) s_k = P_k[a,b] / P_k[a,a], where supported
    failed: np.ndarray  # (t, M) bool: eigenspace k fails the test

    def mismatch(self, j: int):
        """The first eigenspace failing for targets[j], or None."""
        bad = np.flatnonzero(self.failed[j])
        return int(bad[0]) if len(bad) else None

    def passing(self) -> np.ndarray:
        """Row indices of the targets that pass, with two or more supported
        eigenspaces (distinct basis states cannot share just one)."""
        return np.flatnonzero(~self.failed.any(axis=1) & (self.supported.sum(axis=1) >= 2))


def weight_test(dec: SpectralDecomposition, a: int, targets,
                support_tol: float = DEFAULT_SUPPORT_TOL,
                weight_tol: float = DEFAULT_WEIGHT_TOL) -> WeightTest:
    """Test P_k|b> = s_k P_k|a> with |s_k| = 1 for every target b at once.

    Works from row a of the projectors, P_k[a,b] = sum over the columns m of
    eigenspace k of V[a,m] conj(V[b,m]), and their diagonals P_k[b,b]:
    s_k = P_k[a,b] / P_k[a,a].  On an eigenspace of dimension two or more,
    |s_k| = 1 leaves P_k[b,b] > P_k[a,a] possible, so there the residual
    |P_k|b> - s_k P_k|a>| is also bounded; it is taken from the eigenbasis
    coordinates, since P_k[b,b] - |P_k[a,b]|^2 / P_k[a,a] would keep only
    half the digits.  Every array is (targets x n) at most.
    """
    targets = np.asarray(targets, dtype=np.intp)
    starts = dec.starts
    va = dec.vectors[a]
    vb = dec.vectors[targets]
    sq_a = np.add.reduceat(_abs2(va), starts)
    sup_a = sq_a > support_tol * support_tol
    sup_b = np.add.reduceat(_abs2(vb), starts, axis=1) > support_tol * support_tol
    s = np.add.reduceat(vb.conj() * va, starts, axis=1) / np.where(sup_a, sq_a, 1.0)
    both = sup_a & sup_b
    off = np.abs(np.abs(s) - 1.0) > weight_tol
    if dec.degenerate:
        residual_sq = np.add.reduceat(_abs2(vb - s.conj()[:, dec.column_space] * va),
                                      starts, axis=1)
        off |= residual_sq > weight_tol * weight_tol
    return WeightTest(a, targets, both, s, (sup_a != sup_b) | (both & off))


# -- the decision procedure ----------------------------------------------------


def check_transfer(
    h: np.ndarray,
    a: int,
    b: int,
    grouping_tol: float = DEFAULT_GROUPING_TOL,
    support_tol: float = DEFAULT_SUPPORT_TOL,
    weight_tol: float = DEFAULT_WEIGHT_TOL,
    fidelity_tol: float = DEFAULT_FIDELITY_TOL,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    t_max: float = DEFAULT_T_MAX,
    scan_grid: int = DEFAULT_SCAN_GRID,
) -> TransferVerdict:
    """Decide perfect state transfer from vertex a to vertex b under H."""
    return _check(
        h, a, b, grouping_tol, support_tol, weight_tol,
        fidelity_tol=fidelity_tol, max_denominator=max_denominator,
        residual_tol=residual_tol, t_max=t_max, scan_grid=scan_grid,
    )[2]


def _check(h, a: int, b: int, grouping_tol: float = DEFAULT_GROUPING_TOL,
           support_tol: float = DEFAULT_SUPPORT_TOL, weight_tol: float = DEFAULT_WEIGHT_TOL,
           **decide_kwargs):
    """check_transfer, returning (validated h, its decomposition, verdict)."""
    if a == b:
        raise VertexCoincide("source and target must differ")
    h = require_hermitian(h)
    _require_vertices(h.shape[0], a, b)
    dec = decompose(h, grouping_tol)
    test = weight_test(dec, a, [b], support_tol, weight_tol)
    return h, dec, _decide(dec, is_real_hamiltonian(h), test, 0, **decide_kwargs)


def _decide(
    dec: SpectralDecomposition,
    real: bool,
    test: WeightTest,
    j: int,
    fidelity_tol: float = DEFAULT_FIDELITY_TOL,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    t_max: float = DEFAULT_T_MAX,
    scan_grid: int = DEFAULT_SCAN_GRID,
) -> TransferVerdict:
    """The verdict for test.source -> test.targets[j] on one decomposition."""
    a, b = test.source, int(test.targets[j])
    k = test.mismatch(j)
    if k is not None:
        return TransferVerdict(
            NO_TRANSFER,
            reason=f"weight mismatch at eigenvalue {dec.eigenvalues[k]:.6g}",
        )
    supported = np.flatnonzero(test.supported[j]).tolist()
    if len(supported) < 2:
        # distinct basis states cannot live in a single eigenspace proportionally
        return TransferVerdict(NO_TRANSFER, reason="weight mismatch (single eigenspace)")
    phases = np.angle(test.ratios[j, supported]).tolist()

    if real:
        verdict = _real_phase_existence(
            dec, supported, phases, max_denominator, residual_tol
        )
    else:
        verdict = _numeric_phase_search(dec, a, b, t_max, scan_grid, fidelity_tol)
        verdict = replace(verdict, eigenphases=tuple(phases), supported=tuple(supported))
    if verdict.status != PERFECT:
        return verdict

    # confirm by direct evolution, independent of the symbolic path
    amp, mag = fidelity(None, a, b, verdict.t0, dec)
    if mag < 1.0 - fidelity_tol:
        return replace(
            verdict,
            status=UNDECIDED,
            reason=f"direct evolution gives fidelity {mag:.12f} at the candidate time",
            fidelity_at_t0=mag,
        )
    return replace(verdict, transfer_phase=amp / mag, fidelity_at_t0=mag)


def _real_phase_existence(dec, supported, phases, max_denominator, residual_tol):
    # phi_k must be 0 or pi for a real Hamiltonian
    sigma_raw = []
    for phi in phases:
        m = phi / math.pi
        r = round(m)
        if abs(m - r) > PHASE_REALNESS_TOL:
            return TransferVerdict(
                NO_TRANSFER, reason="non-real phase on real Hamiltonian"
            )
        sigma_raw.append(r % 2)
    k0 = supported[0]
    gaps = [dec.eigenvalues[k] - dec.eigenvalues[k0] for k in supported[1:]]
    res = real_gcd(gaps, max_denominator, residual_tol)
    if not res.commensurable:
        return TransferVerdict(
            NO_TRANSFER,
            reason="parity obstruction (no commensurable gap structure)",
            eigenphases=tuple(phases),
            supported=tuple(supported),
            gap_structure=res,
        )
    # target parity of gap k: (phi_{k0} - phi_k)/pi mod 2
    sigma = [(sigma_raw[0] - s) % 2 for s in sigma_raw[1:]]
    if all(z % 2 == s for z, s in zip(res.integers, sigma)):
        r = 1
    elif all(s == 0 for s in sigma):
        r = 2
    else:
        return TransferVerdict(
            NO_TRANSFER,
            reason="parity obstruction",
            eigenphases=tuple(phases),
            supported=tuple(supported),
            gap_structure=res,
        )
    t0 = r * math.pi / res.chi
    return TransferVerdict(
        PERFECT,
        t0=t0,
        eigenphases=tuple(phases),
        supported=tuple(supported),
        gap_structure=res,
        r=r,
    )


def _numeric_phase_search(dec, a, b, t_max, scan_grid, fidelity_tol):
    """Grid scan of |<b|e^{-iHt}|a>| with Newton refinement of its peaks.

    Used for complex Hamiltonians, where no exact phase-existence test is
    attempted; an inconclusive scan yields UNDECIDED, not NO_TRANSFER.
    """
    radius = max(abs(dec.eigenvalues[0]), abs(dec.eigenvalues[-1]), 1e-12)
    horizon = t_max * 2.0 / radius if radius > 0 else t_max
    times = np.linspace(horizon / scan_grid, horizon, scan_grid)
    mags = np.abs(fidelity_curve(dec, a, b, times))

    # refine the near-perfect local maxima and the grid's best point; the
    # earliest perfect time wins, and the coarse cutoff accounts for grid
    # discretization error
    dt = times[1] - times[0]
    coarse = 1.0 - max(fidelity_tol, (radius * dt) ** 2)
    interior = (mags[1:-1] >= mags[:-2]) & (mags[1:-1] >= mags[2:]) & (mags[1:-1] >= coarse)
    best_i = int(np.argmax(mags))
    idx = np.append(np.flatnonzero(interior) + 1, best_i)
    refined, peak = refine_extrema(
        dec.eigenvalues, dec.pair_coefficients(a, b),
        times[np.maximum(idx - 1, 0)], times[np.minimum(idx + 1, len(times) - 1)],
        times[idx], maximize=True,
    )
    perfect = np.flatnonzero(peak >= 1.0 - fidelity_tol)
    if len(perfect):
        return TransferVerdict(PERFECT, t0=float(refined[perfect[0]]))
    best_mag = max(float(mags[best_i]), float(peak.max()))
    return TransferVerdict(
        UNDECIDED,
        reason=f"numeric scan max fidelity {best_mag:.9f} over (0, {horizon:.3g}]",
        fidelity_at_t0=best_mag,
    )


def minimal_transfer_time(verdict: TransferVerdict) -> float:
    """r * pi / chi for a Perfect verdict."""
    if not verdict.is_perfect:
        raise NotPerfect("verdict is not Perfect", verdict)
    return verdict.t0


# -- symmetry operator ----------------------------------------------------------


def symmetry_operator(dec: SpectralDecomposition, a: int, b: int, phases=None,
                      support_tol: float = DEFAULT_SUPPORT_TOL,
                      weight_tol: float = DEFAULT_WEIGHT_TOL) -> np.ndarray:
    """S = sum_supported e^{i phi_k} P_k + sum_unsupported P_k.

    Satisfies S H S^dag = H and S|a> = |b>; the free phases on unsupported
    eigenspaces are fixed to 1.  Raises PhaseUndefined when the pair fails
    the weight test, since no such S exists then.  phases may be supplied
    (one per supported eigenspace, in spectrum order); otherwise they are
    the ones the weight test finds.
    """
    _require_vertices(dec.n, a, b)
    test = weight_test(dec, a, [b], support_tol, weight_tol)
    k = test.mismatch(0)
    if k is not None:
        raise PhaseUndefined(
            f"projections not proportional at eigenvalue {dec.eigenvalues[k]:.6g}"
        )
    supported = test.supported[0]
    space_phases = np.zeros(dec.num_eigenspaces)
    space_phases[supported] = np.angle(test.ratios[0, supported]) if phases is None else phases
    vecs = dec.vectors
    return (vecs * np.exp(1j * space_phases[dec.column_space])) @ vecs.conj().T


# -- bipartite amplitude classification ------------------------------------------


def bipartite_phase_class(g: Graph, h: np.ndarray, a: int, m: int, t: float,
                          residual_tol: float = 1e-9):
    """Classify <m|e^{-iHt}|a> as purely real or purely imaginary.

    For a real Hamiltonian with zero diagonal on a bipartite coupling graph:
    same-color targets give real amplitudes, opposite-color targets imaginary
    ones.  The classification is asserted against the computed amplitude.
    """
    h = np.asarray(h, dtype=complex)
    if not is_real_hamiltonian(h):
        raise NonRealHamiltonian("bipartite phase classification needs a real H")
    if np.any(np.abs(np.diag(h)) > 0):
        raise NonzeroDiagonal("on-site fields must vanish")
    col = bipartite_coloring(g)
    if not col.valid:
        raise NotBipartite("coupling graph is not bipartite")
    sg = support_graph(h)
    if not sg.edges <= g.edges:
        raise ValueError("Hamiltonian support exceeds the supplied graph")
    state = np.zeros(h.shape[0], dtype=complex)
    state[a] = 1.0
    amp = evolve(h, state, t)[m]
    if col.colors[a] == col.colors[m]:
        if abs(amp.imag) > residual_tol:
            raise AssertionError(f"expected real amplitude, got {amp}")
        return "purely-real", amp
    if abs(amp.real) > residual_tol:
        raise AssertionError(f"expected imaginary amplitude, got {amp}")
    return "purely-imaginary", amp
