"""Perfect state transfer decision procedure and time evolution.

decide tells, for any list of vertex pairs (a, b) on one decomposition,
whether e^{-iHt0}|a> = e^{i phi}|b> is achievable for some t0, via the
eigenspace weight/proportionality test and one exact phase test on the
integer gap structure of the supported spectrum, for real and complex H
alike; check_transfer is decide for one pair.  Every positive verdict is
confirmed by direct evolution before it is returned.  Only the census
decides a stack of decompositions at once, through decide's core _decide.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .graphs import _require_vertices
from .spectral import (
    CommensurabilityResult,
    SpectralDecomposition,
    _decomposition,
    _real_gcd,
    decompose,
)

PERFECT = "perfect"
NO_TRANSFER = "no-transfer"
UNDECIDED = "undecided"

SUPPORT_TOL = 1e-9  # |P_k|v>| at or below this: eigenspace k does not support v
WEIGHT_TOL = 1e-8  # allowed | |s_k| - 1 | and |P_k|b> - s_k P_k|a>|
FIDELITY_TOL = 1e-9  # a fidelity of 1 - FIDELITY_TOL or more counts as perfect
PHASE_REALNESS_TOL = 1e-7  # allowed distance of (phi_0 - phi_k) / pi from an integer
NORM_TOL = 1e-10  # allowed | ||state|| - 1 | of a state handed to evolve


class VertexCoincide(ValueError):
    pass


class NotPerfect(ValueError):
    """A Perfect verdict was required; verdict is the one that was not."""

    def __init__(self, message: str, verdict: "TransferVerdict" = None):
        super().__init__(message)
        self.verdict = verdict


class PhaseUndefined(ValueError):
    pass


class NonRealHamiltonian(ValueError):
    pass


@dataclass(frozen=True)
class TransferVerdict:
    status: str  # PERFECT / NO_TRANSFER / UNDECIDED
    reason: str = ""
    t0: float = None
    transfer_phase: complex = None  # e^{i phi}, unit modulus
    eigenphases: tuple = ()  # phi_k per supported eigenspace, spectrum order
    gap_structure: CommensurabilityResult = None
    r: float = None  # t0 = r*pi/chi; 1 or 2 when every (phi_0 - phi_k)/pi is an integer
    fidelity_at_t0: float = None

    @property
    def is_perfect(self) -> bool:
        return self.status == PERFECT


# -- dynamics -----------------------------------------------------------------


def evolve(h, state: np.ndarray, t: float) -> np.ndarray:
    """e^{-iHt} |state>; h is a matrix or its SpectralDecomposition."""
    state = np.asarray(state, dtype=complex)
    if abs(np.linalg.norm(state) - 1.0) > NORM_TOL:
        raise ValueError("state must be normalized")
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    dec = _decomposition(h)
    v = dec.vectors
    phases = np.exp(-1j * np.asarray(dec.eigenvalues) * t)[dec.column_space]
    return v @ (phases * (v.conj().T @ state))


def fidelity(h, a: int, b: int, t: float):
    """(amplitude <b|e^{-iHt}|a>, its magnitude); h is a matrix or its
    SpectralDecomposition."""
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    dec = _decomposition(h)
    terms = np.exp(-1j * np.asarray(dec.eigenvalues) * t) * dec.pair_coefficients(a, b)
    # a running sum in spectrum order: np.sum and a BLAS product group the
    # terms by vector width, and the last bits of transfer_phase would vary with it
    amp = np.add.accumulate(terms)[-1]
    return amp, abs(amp)


def _abs2(z: np.ndarray) -> np.ndarray:
    if z.dtype.kind != "c":
        return z * z  # the bits of z.real * z.real + 0.0, without the zero array
    return z.real * z.real + z.imag * z.imag


def _conj(z: np.ndarray) -> np.ndarray:
    return z.conj() if z.dtype.kind == "c" else z


def fidelity_curve(dec: SpectralDecomposition, a: int, b, times: np.ndarray) -> np.ndarray:
    """Amplitudes <b|e^{-iHt}|a> on an array of times; for a sequence of
    vertices b, one column per vertex.  exp(-i times x lambda) is formed once,
    and each column is its own matrix-vector product with it, so it has the
    bits of the curve of its vertex alone."""
    if not np.isfinite(times).all():
        raise ValueError("time must be finite")
    one = np.ndim(b) == 0
    phases = np.exp(-1j * np.outer(times, dec.eigenvalues))
    curves = [phases @ dec.pair_coefficients(a, t) for t in ([b] if one else b)]
    return curves[0] if one else np.stack(curves, axis=1)


# -- the eigenspace weight test -------------------------------------------------


def weight_test(dec, sources, targets):
    """Test P_k|b> = s_k P_k|a> with |s_k| = 1 for each pair (sources[j], targets[j]).

    Returns (supported, ratios, failed), (pairs x eigenspaces) arrays: both
    vertices have weight on P_k; s_k = P_k[a,b] / P_k[a,a] where supported;
    eigenspace k fails the test, by supporting just one of the two vertices
    or by breaking the proportionality.

    P_k[a,b] sums V[a,m] conj(V[b,m]) over the columns m of eigenspace k, all
    in one np.add.reduceat; on the census's stack of decompositions, each sum
    is the one its matrix alone would give.  On an eigenspace of dimension
    two or more, |s_k| = 1 allows P_k[b,b] > P_k[a,a], so there the residual
    |P_k|b> - s_k P_k|a>| is bounded too, from the eigenbasis coordinates,
    since P_k[b,b] - |P_k[a,b]|^2 / P_k[a,a] would keep only half the digits.  When some decomposition is degenerate,
    the residual is bounded on every eigenspace: on one of dimension one it
    is a few ulps, so that bound changes no verdict.  Every array is
    (pairs x columns) at most.
    """
    vectors, starts = dec.vectors, dec.starts
    va, vb = rows = vectors[np.array((sources, targets))]
    sq = np.add.reduceat(_abs2(rows), starts, axis=2)  # P_k[a,a] and P_k[b,b]
    sup_a, sup_b = sq > SUPPORT_TOL * SUPPORT_TOL
    s = np.add.reduceat(_conj(vb) * va, starts, axis=1) / np.where(sup_a, sq[0], 1.0)
    both = sup_a & sup_b
    off = np.abs(np.abs(s) - 1.0) > WEIGHT_TOL
    columns = vectors.shape[1]
    if len(starts) < columns:  # some eigenspace has dimension two or more
        widths = np.append(starts[1:], columns) - starts  # the dimension of each eigenspace
        residual_sq = np.add.reduceat(_abs2(vb - np.repeat(_conj(s), widths, axis=1) * va),
                                      starts, axis=1)
        off |= residual_sq > WEIGHT_TOL * WEIGHT_TOL
    return both, s, (sup_a != sup_b) | (both & off)


# -- the decision procedure ----------------------------------------------------

def check_transfer(h, a: int, b: int) -> TransferVerdict:
    """Decide perfect state transfer from vertex a to vertex b under H."""
    return decide(decompose(h), [(a, b)])[0]


def decide(dec: SpectralDecomposition, pairs) -> list:
    """The verdict for a -> b, for every pair (a, b) in pairs, on one decomposition.

    One weight test serves every pair; the pairs failing it are settled as
    arrays and share one no-transfer verdict per first failing eigenspace.
    The phase stage runs for the pairs that pass it, with one gap structure
    per supported set.  Raises VertexCoincide for a pair (a, a), IndexError
    for a vertex that is not an integer in 0..n-1, and ValueError when pairs
    is not a sequence of pairs.
    """
    array = np.asarray(pairs)
    if not array.size:
        return []
    if array.ndim != 2 or array.shape[1] != 2:
        raise ValueError(f"pairs must be (source, target) pairs, got shape {array.shape}")
    _require_vertices(dec.n, pairs)  # as given, where a bool is still a bool
    if (array[:, 0] == array[:, 1]).any():
        raise VertexCoincide("source and target must differ")
    verdict = _decide(dec, array)[1]
    return [verdict(0, j, dec) for j in range(len(array))]


def _decide(stack: SpectralDecomposition, array: np.ndarray) -> tuple:
    """decide's core on a decomposition, or on the census's stack of them,
    and an array of valid pairs, as (open, verdict): verdict(i, j, dec) is
    the verdict of pair j on matrix i, whose decomposition is dec.  open
    lists the (i, j) that pass the weight test, but those a real stack
    settles by their incommensurable gaps alone, as a parity obstruction;
    only decide asks for the verdicts of the others."""
    supported, ratios, failed = weight_test(stack, *array.T)
    lams = stack.eigenvalues
    offsets = [*stack.offsets, len(lams)]
    passing = ~np.logical_or.reduceat(failed, stack.offsets, axis=1).T
    supports, gaps, mismatch = {}, {}, {}  # (i, j) -> supported eigenspaces -> gap structure
    for i, j in np.argwhere(passing).tolist():
        o, e = offsets[i], offsets[i + 1]
        row = supported[j, o:e].tolist()
        support = supports[i, j] = tuple(itertools.compress(range(o, e), row))
        if support not in gaps:
            gaps[support] = _real_gcd([lams[k] - lams[support[0]] for k in support[1:]],
                                      stack.caps[i])

    def verdict(i: int, j: int, dec: SpectralDecomposition) -> TransferVerdict:
        support = supports.get((i, j))
        if support is None:  # one verdict per first failing eigenspace k
            k = offsets[i] + int(failed[j, offsets[i]:offsets[i + 1]].argmax())
            if k not in mismatch:
                mismatch[k] = TransferVerdict(
                    NO_TRANSFER, reason=f"weight mismatch at eigenvalue {lams[k]:.6g}")
            return mismatch[k]
        if stack.real:  # np.angle's values, as real ratios are about +-1: 0 or pi
            phases = tuple(math.pi if ratios[j, k] < 0 else 0.0 for k in support)
        else:
            phases = tuple(np.angle(ratios[j, list(support)]).tolist())
        return _phase_verdict(dec, *array[j].tolist(), phases, gaps[support])

    open_pairs = [p for p, k in supports.items() if not stack.real or gaps[k].commensurable]
    return open_pairs, verdict


def _phase_verdict(dec: SpectralDecomposition, a: int, b: int, phases: tuple,
                   res: CommensurabilityResult) -> TransferVerdict:
    """The verdict for a pair that passes the weight test, from the phases of
    its supported eigenspaces and the gap structure res of their eigenvalues.

    Such a pair has two or more supported eigenspaces: were all of |a> in
    one, then <a|b> = 0 would make its s_k about 0, failing |s_k| = 1.
    With the supported gaps lambda_k - lambda_0 = z_k chi and the phase
    differences m_k = (phi_0 - phi_k) / pi, transfer at t0 = r pi / chi needs
    z_k r = m_k (mod 2) for every k.  When every m_k is an integer (every real
    H, and every complex H that a diagonal gauge makes real) the parity test
    decides it exactly, with r = 1 or 2.  Otherwise r is the one solution
    mod 2, sum_k c_k m_k for the Bezout coefficients of the z_k, and the
    confirmation by evolution tells whether it solves every equation.
    """
    m = [(phases[0] - phi) / math.pi for phi in phases[1:]]
    integral = dec.real or all(abs(mk - round(mk)) <= PHASE_REALNESS_TOL for mk in m)
    found = dict(eigenphases=phases, gap_structure=res)
    if not res.commensurable:
        if integral:
            return TransferVerdict(
                NO_TRANSFER, reason="parity obstruction (no commensurable gap structure)", **found)
        return TransferVerdict(
            UNDECIDED, reason="incommensurable gaps with non-integral phase differences", **found)
    if not integral:
        r = math.fsum(c * mk for c, mk in zip(_bezout(res.integers), m)) % 2.0
    elif all(z % 2 == round(mk) % 2 for z, mk in zip(res.integers, m)):
        r = 1
    elif all(round(mk) % 2 == 0 for mk in m):
        r = 2
    else:
        return TransferVerdict(NO_TRANSFER, reason="parity obstruction", **found)
    verdict = TransferVerdict(PERFECT, t0=r * math.pi / res.chi, r=r, **found)
    amp, mag = fidelity(dec, a, b, verdict.t0)  # direct evolution, apart from the symbolic path
    if mag < 1.0 - FIDELITY_TOL:
        reason = f"direct evolution gives fidelity {mag:.12f} at the candidate time"
        return replace(verdict, status=UNDECIDED, reason=reason, fidelity_at_t0=mag)
    return replace(verdict, transfer_phase=amp / mag, fidelity_at_t0=mag)


def _bezout(z) -> list:
    """Integers c with sum_k c_k z_k = gcd(z), by the extended Euclidean
    algorithm folded over z."""
    g, c = 0, []
    for zk in z:
        # u g + v zk = gcd(g, zk)
        x, y, u0, u1, v0, v1 = g, zk, 1, 0, 0, 1
        while y:
            q = x // y
            x, y, u0, u1, v0, v1 = y, x - q * y, u1, u0 - q * u1, v1, v0 - q * v1
        g, c = x, [u0 * ci for ci in c] + [v0]
    return c


# -- symmetry operator ----------------------------------------------------------


def symmetry_operator(dec: SpectralDecomposition, a: int, b: int) -> np.ndarray:
    """S = sum_supported e^{i phi_k} P_k + sum_unsupported P_k.

    Satisfies S H S^dag = H and S|a> = |b>; the phases phi_k are the ones the
    weight test finds, and the free phases on unsupported eigenspaces are
    fixed to 1.  Raises PhaseUndefined when the pair fails the weight test,
    since no such S exists then.
    """
    _require_vertices(dec.n, (a, b))
    supported, ratios, failed = weight_test(dec, [a], [b])
    if failed.any():
        raise PhaseUndefined(
            f"projections not proportional at eigenvalue {dec.eigenvalues[failed.argmax()]:.6g}"
        )
    supported = supported[0]
    space_phases = np.zeros(dec.num_eigenspaces)
    space_phases[supported] = np.angle(ratios[0, supported])
    vecs = dec.vectors
    return (vecs * np.exp(1j * space_phases[dec.column_space])) @ vecs.conj().T
