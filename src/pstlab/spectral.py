"""Spectral engine: degeneracy-grouped eigendecompositions, exact integer
characteristic polynomials, integrality tests, and real-number gcd detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np


class EigensolverFailure(RuntimeError):
    pass


class DegenerateInput(ValueError):
    pass


DEFAULT_GROUPING_TOL = 1e-8
DEFAULT_MAX_DENOMINATOR = 10**6
DEFAULT_RESIDUAL_TOL = 1e-9


def _require_vertices(n: int, *vertices):
    if not all(0 <= v < n for v in vertices):
        raise IndexError(f"vertex out of range 0..{n - 1}")


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues grouped into eigenspaces, with one eigenvector matrix.

    eigenvalues[k] is the (mean) eigenvalue of eigenspace k, strictly
    increasing.  vectors is the (n, n) C-ordered matrix of orthonormal
    eigenvectors, and eigenspace k is spanned by its columns starts[k] to
    starts[k] + multiplicities[k].
    """

    eigenvalues: tuple
    vectors: np.ndarray = field(repr=False, compare=False)
    starts: np.ndarray = field(repr=False, compare=False)  # first column of each eigenspace
    grouping_tol: float

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def num_eigenspaces(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def multiplicities(self) -> np.ndarray:
        """The dimension of each eigenspace."""
        return np.diff(self.starts, append=self.n)

    @cached_property
    def column_space(self) -> np.ndarray:
        """The eigenspace of each column of vectors."""
        return np.repeat(np.arange(self.num_eigenspaces), self.multiplicities)

    @cached_property
    def degenerate(self) -> bool:
        """Whether some eigenspace has dimension two or more."""
        return self.num_eigenspaces < self.n

    def pair_coefficients(self, a: int, b: int) -> np.ndarray:
        """c_k = P_k[b,a], so that <b|e^{-iHt}|a> = sum_k c_k e^{-i lambda_k t}."""
        _require_vertices(self.n, a, b)
        v = self.vectors
        return np.add.reduceat(v[a].conj() * v[b], self.starts)


def decompose(h: np.ndarray, grouping_tol: float = DEFAULT_GROUPING_TOL) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix, grouping near-equal eigenvalues.

    Consecutive eigenvalues closer than grouping_tol * max(1, spectral radius)
    are merged into one eigenspace.
    """
    if grouping_tol <= 0:
        raise ValueError("grouping_tol must be positive")
    h = np.asarray(h, dtype=complex)
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(
            f"eigh failed on {h.shape[0]}x{h.shape[0]} matrix "
            f"(max |entry| {np.abs(h).max():.3e}): {exc}"
        ) from exc
    lam = vals.tolist()
    scale = max(1.0, abs(lam[0]), abs(lam[-1])) if lam else 1.0
    gap = grouping_tol * scale
    # an eigenspace is a run of eigenvalues whose consecutive gaps are <= gap
    bounds = [0, *(np.nonzero(~(vals[1:] - vals[:-1] <= gap))[0] + 1).tolist(), len(lam)]
    eigenvalues = tuple(
        # np.mean's arithmetic (a sum, then one division) without its overhead
        lam[s] if e - s == 1 else float(np.add.reduce(vals[s:e]) / (e - s))
        for s, e in zip(bounds, bounds[1:])
    )
    # C order makes each row, vectors[v], a contiguous vector
    return SpectralDecomposition(eigenvalues, np.ascontiguousarray(vecs),
                                 np.array(bounds[:-1]), grouping_tol)


def support_components(dec: SpectralDecomposition, v: int):
    """Per eigenspace: (index, projection of |v>, norm of the projection)."""
    _require_vertices(dec.n, v)
    # column k is P_k|v> = sum over the columns m of eigenspace k of V[:,m] conj(V[v,m])
    proj = np.add.reduceat(dec.vectors * dec.vectors[v].conj(), dec.starts, axis=1)
    return list(zip(range(dec.num_eigenspaces), proj.T,
                    np.linalg.norm(proj, axis=0).tolist()))


# -- exact integer characteristic polynomial ---------------------------------


def integer_char_poly(h) -> list:
    """Coefficients [a_0, ..., a_n] of det(lambda*I - H), exact integers.

    Faddeev-LeVerrier with arbitrary-precision Python integers, held in an
    object array so that the matrix products run in numpy's loop; every
    division by the step index is exact.  Raises ValueError unless every
    entry is a finite integer (integer-valued floats are accepted).
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    n = h.shape[0]
    try:
        m = np.array([[int(x) for x in row] for row in h], dtype=object).reshape(n, n)
    except (TypeError, ValueError, OverflowError):  # NaN, infinite, not a number
        m = None
    if m is None or (h.dtype.kind not in "biu" and not (m == h).all()):
        raise ValueError("matrix entries must be finite integers")
    diag = np.arange(n)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = np.zeros((n, n), dtype=object)  # M_0 = 0
    c = 1
    for k in range(1, n + 1):
        # M_k = A (M_{k-1} + c_{n-k+1} I)
        mk[diag, diag] += c
        mk = m.dot(mk)
        tr = int(sum(mk[diag, diag]))
        assert tr % k == 0
        c = -tr // k
        coeffs[n - k] = c
    return coeffs


def is_integral_spectrum(h):
    """Decide exactly whether the integer matrix has all-integer eigenvalues.

    Returns (True, sorted integer roots with multiplicity) or (False, None).
    Trial division of the monic characteristic polynomial by (x - r) over
    divisors r of the trailing nonzero coefficient.
    """
    coeffs = integer_char_poly(h)
    roots = []
    # strip zero roots
    while len(coeffs) > 1 and coeffs[0] == 0:
        roots.append(0)
        coeffs = coeffs[1:]
    while len(coeffs) > 1:
        a0 = abs(coeffs[0])
        found = None
        for d in range(1, math.isqrt(a0) + 1):
            if a0 % d:
                continue
            for r in (d, -d, a0 // d, -(a0 // d)):
                q, rem = _synth_div(coeffs, r)
                if rem == 0:
                    found = (r, q)
                    break
            if found:
                break
        if found is None:
            return False, None
        roots.append(found[0])
        coeffs = found[1]
    return True, sorted(roots)


def _synth_div(coeffs, r):
    """Divide the ascending-coefficient polynomial by (x - r)."""
    n = len(coeffs) - 1
    q = [0] * n
    acc = coeffs[n]
    for i in range(n - 1, -1, -1):
        q[i] = acc
        acc = coeffs[i] + r * acc
    return q, acc


# -- commensurability ---------------------------------------------------------


@dataclass(frozen=True)
class CommensurabilityResult:
    commensurable: bool
    chi: float  # largest common real divisor, when commensurable
    integers: tuple  # z_k with gcd 1
    max_denominator: int
    residual: float


def _rationalize(x: float, max_denominator: int, tol: float):
    """Continued-fraction expansion of x, terminated at the noise floor tol.

    Returns (p, q) with x ~ p/q, or None when no partial quotient becomes
    integral (to within tol) before the denominator exceeds max_denominator.
    """
    p0, q0 = 0, 1
    p1, q1 = 1, 0
    while True:
        a = math.floor(x)
        frac = x - a
        if frac > 1 - tol:
            a += 1
            frac = 0.0
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > max_denominator:
            return None
        if frac <= tol:
            return p1, q1
        x = 1.0 / frac


def real_gcd(
    values,
    max_denominator: int = DEFAULT_MAX_DENOMINATOR,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
) -> CommensurabilityResult:
    """Largest chi such that every value is (nearly) an integer multiple of it.

    Ratios value_k / value_0 are rationalized by continued fractions with the
    residual tolerance as the noise floor; the verdict is negative when any
    ratio resists rationalization at the denominator bound, or when the
    reconstruction residual exceeds residual_tol.
    """
    values = [float(v) for v in values]
    if not values:
        raise DegenerateInput("values must be nonempty")
    if any(v <= residual_tol for v in values):
        raise DegenerateInput("all values must exceed the residual tolerance")
    fracs = []
    for v in values:
        pq = _rationalize(v / values[0], max_denominator, residual_tol)
        if pq is None:
            return CommensurabilityResult(False, 0.0, (), max_denominator, math.inf)
        fracs.append(Fraction(*pq))
    lcm = math.lcm(*(f.denominator for f in fracs))
    z = [int(f * lcm) for f in fracs]
    g = math.gcd(*z)
    z = [zi // g for zi in z]
    # least-squares chi, then verify the reconstruction
    chi = sum(v * zi for v, zi in zip(values, z)) / sum(zi * zi for zi in z)
    residual = max(abs(v - chi * zi) for v, zi in zip(values, z))
    if residual > residual_tol:
        return CommensurabilityResult(False, 0.0, (), max_denominator, residual)
    return CommensurabilityResult(True, chi, tuple(z), max_denominator, residual)
