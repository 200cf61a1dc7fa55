"""Spectral engine: degeneracy-grouped eigendecompositions, exact integer
characteristic polynomials, integrality tests, and real-number gcd detection.

decompose takes one Hermitian matrix, validates it and decomposes it by one
eigh call.  Only the census stacks: _decompose_stack decomposes m matrices
of one size and kind by one eigh call into one SpectralDecomposition, and
the decomposition of one matrix is the stack of one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import _require_vertices


class EigensolverFailure(RuntimeError):
    pass


class DegenerateInput(ValueError):
    pass


HERMITIAN_RTOL = 1e-10  # largest accepted asymmetry, relative to the largest entry
GROUPING_TOL = 1e-8  # relative gap below which eigenvalues share an eigenspace
MAX_DENOMINATOR = 10**6  # largest denominator real_gcd tries for a gap ratio; 4R caps it
RESIDUAL_TOL = 1e-9  # noise floor of real_gcd's fractions and its reconstruction


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues grouped into eigenspaces, with one eigenvector matrix.

    eigenvalues[k] is the (mean) eigenvalue of eigenspace k, strictly
    increasing.  vectors is the (n, n) C-ordered matrix of orthonormal
    eigenvectors, and eigenspace k is spanned by its columns starts[k] to
    starts[k] + multiplicities[k].  real tells whether the decomposed matrix
    has no imaginary part; then it was decomposed by the real symmetric
    solver, and vectors is float64, else complex128.

    The census stacks m matrices of one size and kind (_decompose_stack):
    vectors is then (n, m n), matrix i has its columns i n to i n + n - 1
    and the eigenspaces from offsets[i] on, whose eigenvalues increase, and
    caps[i] caps the denominators of its gap ratios.  One matrix is the
    stack of one, and the constructor takes neither field.
    """

    eigenvalues: tuple
    vectors: np.ndarray = field(repr=False, compare=False)
    starts: np.ndarray = field(repr=False, compare=False)  # first column of each eigenspace
    real: bool
    offsets: tuple = field(default=(0,), init=False, repr=False, compare=False)
    caps: tuple = field(default=(MAX_DENOMINATOR,), init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def num_eigenspaces(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def multiplicities(self) -> np.ndarray:
        """The dimension of each eigenspace."""
        return np.diff(self.starts, append=self.vectors.shape[1])

    @cached_property
    def column_space(self) -> np.ndarray:
        """The eigenspace of each column of vectors."""
        return np.repeat(np.arange(self.num_eigenspaces), self.multiplicities)

    def pair_coefficients(self, a: int, b: int) -> np.ndarray:
        """c_k = P_k[b,a], so that <b|e^{-iHt}|a> = sum_k c_k e^{-i lambda_k t}."""
        _require_vertices(self.n, (a, b))
        v = self.vectors
        return np.add.reduceat(v[a].conj() * v[b], self.starts)

    def _matrix(self, i: int) -> SpectralDecomposition:
        """Matrix i of a stack, as decompose gives it for that matrix alone."""
        if len(self.offsets) == 1:
            return self
        n, (o, e) = self.n, [*self.offsets, self.num_eigenspaces][i:i + 2]
        dec = SpectralDecomposition(self.eigenvalues[o:e],
                                    np.ascontiguousarray(self.vectors[:, i * n:i * n + n]),
                                    self.starts[o:e] - i * n, self.real)
        vars(dec)["caps"] = self.caps[i:i + 1]  # a field the constructor does not take
        return dec


def require_hermitian(h) -> np.ndarray:
    """h as a float64 array, or a complex128 one when its dtype is complex,
    once it is known to be a nonempty, square, finite and Hermitian matrix.

    Hermiticity is tested on the real and imaginary parts, against
    HERMITIAN_RTOL times their largest entry: a matrix built as D H D^dag
    carries a few ulps of rounding, while eigh, reading only one triangle,
    would silently answer for a different matrix than a genuinely
    non-Hermitian input.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1] or not h.size:
        raise ValueError(f"Hamiltonian must be a nonempty square matrix, got shape {h.shape}")
    integer = h.dtype.kind in "biu"  # every integer is finite as a float
    h = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)
    if not integer and not np.isfinite(h).all():
        raise ValueError("Hamiltonian has non-finite entries")
    # the real part symmetric, the imaginary part antisymmetric
    parts = (h.real, h.imag) if np.iscomplexobj(h) else (h.real,)
    asym = np.abs(parts[0] - parts[0].T)
    if len(parts) == 2:
        asym = np.maximum(asym, np.abs(parts[1] + parts[1].T))
    if asym.any():  # an exactly Hermitian matrix passes at any scale
        worst = asym.max()
        if worst > HERMITIAN_RTOL * max(np.abs(part).max() for part in parts):
            raise ValueError(f"Hamiltonian is not Hermitian (largest asymmetry {worst:.3g})")
    return h


def decompose(h) -> SpectralDecomposition:
    """Eigendecompose a Hermitian matrix, grouping near-equal eigenvalues.

    h is validated by require_hermitian first.  An h without imaginary part,
    of either dtype, goes to the real symmetric solver, and its eigenvectors
    are float64.  Consecutive eigenvalues closer than
    GROUPING_TOL * max(1, spectral radius) are merged into one eigenspace.
    An integer (or bool) matrix caps the denominators of its gap ratios at
    min(MAX_DENOMINATOR, 4R), R its largest absolute row sum: a support with
    commensurable gaps holds eigenvalues (alpha + b_k sqrt(Delta)) / 2 in
    [-R, R] (Godsil, ELA 23, 2012).  h is decomposed as the stack of one.
    """
    integer = np.asarray(h).dtype.kind in "biu"  # read before require_hermitian makes h float
    h = require_hermitian(h)
    real = not (np.iscomplexobj(h) and h.imag.any())
    return _decompose_stack((h.real if real else h)[None], real, integer)


def _decompose_stack(stack, real: bool, integer: bool) -> SpectralDecomposition:
    """The decomposition of an (m, n, n) stack of Hermitian matrices, by one
    eigh call; each matrix of an integer-valued stack has its own 4R cap."""
    try:
        vals, vecs = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        n = stack.shape[-1]
        raise EigensolverFailure(
            f"eigh failed on {n}x{n} matrix "
            f"(max |entry| {np.abs(stack).max():.3e}): {exc}"
        ) from exc
    m, n = vals.shape
    # an eigenspace is a run of eigenvalues whose consecutive gaps are <= gap
    gaps = [[GROUPING_TOL * max(1.0, abs(lam[0]), abs(lam[-1]))] for lam in vals.tolist()]
    new = np.ones((m, n), dtype=bool)  # eigenspace starts
    new[:, 1:] = ~(vals[:, 1:] - vals[:, :-1] <= gaps)
    starts = np.flatnonzero(new)  # column c of matrix i is column i n + c side by side
    flat = vals.ravel()
    lams, bounds = flat.tolist(), [*starts.tolist(), m * n]
    eigenvalues = tuple([
        # np.mean's arithmetic (a sum, then one division) without its overhead
        lams[s] if e - s == 1 else float(np.add.reduce(flat[s:e]) / (e - s))
        for s, e in zip(bounds, bounds[1:])
    ])
    caps = (MAX_DENOMINATOR,) * m
    if integer:  # R, the largest absolute row sum, is exact in float64 below 2**53
        caps = tuple(min(MAX_DENOMINATOR, 4 * int(r))
                     for r in np.abs(stack).sum(axis=2).max(axis=1).tolist())
    dec = SpectralDecomposition(eigenvalues, vecs.transpose(1, 0, 2).reshape(n, m * n),
                                starts, real)
    offsets = (0, *itertools.accumulate(new.sum(axis=1).tolist()[:-1]))
    vars(dec).update(offsets=offsets, caps=caps)  # fields the constructor does not take
    return dec


def _decomposition(h) -> SpectralDecomposition:
    """h itself when it is a decomposition already, else decompose(h)."""
    return h if isinstance(h, SpectralDecomposition) else decompose(h)


# -- exact integer characteristic polynomial ---------------------------------


def integer_char_poly(h) -> list:
    """Coefficients [a_0, ..., a_n] of det(lambda*I - H), exact integers.

    Faddeev-LeVerrier, with the matrix products in numpy's loop; every
    division by the step index is exact.  Every eigenvalue lies within R,
    the largest absolute row sum, so n 2^n R^(n+1) bounds every entry,
    partial sum and trace of the loop: it runs on int64 when that bound
    fits, else on Python ints in an object array, with the same (Python int)
    coefficients.  Raises ValueError unless every entry is a finite integer
    (integer-valued floats are accepted).
    """
    return _char_poly_and_radius(h)[0]


def _char_poly_and_radius(h) -> tuple:
    """(integer_char_poly(h), R), R the largest absolute row sum of h in
    Python ints: a float row sum could round below a root at +-R."""
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("matrix must be square")
    n = h.shape[0]
    if h.dtype.kind in "biu":
        m = h.astype(np.int64) if h.dtype == bool else h  # no Python bool in m
    else:
        try:
            m = np.array([[int(x) for x in row] for row in h], dtype=object).reshape(n, n)
        except (TypeError, ValueError, OverflowError):  # NaN, infinite, not a number
            m = None
        if m is None or not (m == h).all():
            raise ValueError("matrix entries must be finite integers")
    radius = max(map(sum, np.abs(m.astype(object, copy=False)).tolist()), default=0)
    fits = n * 2**n * max(radius, 1) ** (n + 1) <= np.iinfo(np.int64).max
    m = m.astype(np.int64 if fits else object, copy=False)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mk = np.zeros((n, n), dtype=m.dtype)  # M_0 = 0
    c = 1
    for k in range(1, n + 1):
        # M_k = A (M_{k-1} + c_{n-k+1} I)
        mk.ravel()[::n + 1] += c  # mk is C-contiguous: ravel is a view
        mk = m.dot(mk)
        tr = int(mk.trace())
        assert tr % k == 0
        c = -tr // k
        coeffs[n - k] = c
    return coeffs, radius


_SCAN_RADIUS = 2**12  # largest R whose window [-R, R] is scanned integer by integer


def is_integral_spectrum(h):
    """Decide exactly whether the integer matrix has all-integer eigenvalues.

    Returns (True, sorted integer roots with multiplicity) or (False, None).
    Every eigenvalue lies within R, the largest absolute row sum (Gershgorin).
    Up to R = _SCAN_RADIUS the search for integer roots tries every r in
    [-R, R], so it makes at most 2R + 1 + n divisions by (x - r): R <= n - 1
    for an adjacency matrix, R <= 2(n - 1) for a Laplacian.  Past it, the
    candidates come from a bisection of the window (_root_candidates), whose
    cost grows with log R, not R.
    """
    roots = _char_poly_and_roots(h)[1]
    return roots is not None, roots


def _char_poly_and_roots(h):
    """integer_char_poly(h), and its ascending integer roots or None."""
    coeffs, radius = _char_poly_and_radius(h)
    quotient = coeffs
    if radius <= _SCAN_RADIUS:
        candidates = range(-radius, radius + 1)
    else:
        candidates = _root_candidates(coeffs, radius)
    roots = []
    for r in candidates:
        # a nonzero integer root divides the constant term
        while len(quotient) > 1 and (r == 0 or quotient[0] % r == 0):
            q, rem = _synth_div(quotient, r)
            if rem:
                break
            roots.append(r)
            quotient = q
    return coeffs, roots if len(quotient) == 1 else None


def _root_candidates(coeffs, radius: int) -> list:
    """Ascending integers x in [-R, R] such that (x - 1, x] may hold a root
    of the polynomial, every root of which lies in [-R, R].

    V(x), the sign changes of the Taylor coefficients of p at x, bounds the
    number of roots above x, and V(lo) - V(hi) bounds the number in
    (lo, hi] from above (Budan-Fourier), with equality when every root is
    real, as every root of an integral spectrum is.  So a bisection of
    [-R - 1, R] on integers that drops each interval with V(lo) = V(hi)
    misses no root.  The drops V(lo) - V(hi) of the intervals of one level
    add up to at most n, so it makes O(n log R) counts of n synthetic
    divisions each.  The caller divides by each candidate exactly.
    """
    def above(x):
        signs = []
        quotient = coeffs
        while len(quotient) > 1:  # the remainders are p(x), p'(x), p''(x)/2, ...
            quotient, rem = _synth_div(quotient, x)
            if rem:
                signs.append(rem > 0)
        signs.append(quotient[0] > 0)
        return sum(s != t for s, t in zip(signs, signs[1:]))

    found = []
    intervals = [(-radius - 1, above(-radius - 1), radius, above(radius))]
    while intervals:
        lo, above_lo, hi, above_hi = intervals.pop()
        if above_lo == above_hi:
            continue
        if hi - lo == 1:
            found.append(hi)
            continue
        mid = (lo + hi) // 2
        above_mid = above(mid)
        # the lower half is popped first, so found ascends
        intervals += [(mid, above_mid, hi, above_hi), (lo, above_lo, mid, above_mid)]
    return found


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


def _rationalize(x: float, max_denominator: int = MAX_DENOMINATOR):
    """Continued-fraction expansion of x, terminated at the noise floor
    RESIDUAL_TOL.

    Returns (p, q) with x ~ p/q, or None when no partial quotient becomes
    integral (to within RESIDUAL_TOL) before the denominator exceeds
    max_denominator.  For x >= 0, q > 0 and p/q is in lowest terms: each
    step keeps p1 q0 - p0 q1 = +-1, whatever its partial quotient.
    """
    p0, q0 = 0, 1
    p1, q1 = 1, 0
    while True:
        a = math.floor(x)
        frac = x - a
        if frac > 1 - RESIDUAL_TOL:
            a += 1
            frac = 0.0
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > max_denominator:
            return None
        if frac <= RESIDUAL_TOL:
            return p1, q1
        x = 1.0 / frac


def real_gcd(values) -> CommensurabilityResult:
    """Largest chi such that every value is (nearly) an integer multiple of it.

    Ratios value_k / value_0 are rationalized by continued fractions with
    RESIDUAL_TOL as the noise floor; the verdict is negative when any ratio
    resists rationalization below MAX_DENOMINATOR, or when the
    reconstruction residual exceeds RESIDUAL_TOL.  Raises DegenerateInput
    unless the values are finite and above RESIDUAL_TOL, and at least one.
    """
    values = [float(v) for v in values]
    if not all(map(math.isfinite, values)):
        raise DegenerateInput("values must be finite")
    return _real_gcd(values, MAX_DENOMINATOR)


def _real_gcd(values, max_denominator: int) -> CommensurabilityResult:
    """real_gcd(values) with denominators up to max_denominator."""
    values = [float(v) for v in values]
    if not values:
        raise DegenerateInput("values must be nonempty")
    if any(v <= RESIDUAL_TOL for v in values):
        raise DegenerateInput("all values must exceed the residual tolerance")
    fracs = [(1, 1)]  # values[0] / values[0]
    for v in values[1:]:
        pq = _rationalize(v / values[0], max_denominator)
        if pq is None:
            return CommensurabilityResult(False, 0.0, ())
        fracs.append(pq)
    # each p/q is in lowest terms with q > 0, so p * (lcm / q) is exact
    lcm = math.lcm(*(q for _, q in fracs))
    z = [p * (lcm // q) for p, q in fracs]
    g = math.gcd(*z)
    z = [zi // g for zi in z]
    # least-squares chi, then verify the reconstruction
    chi = sum(v * zi for v, zi in zip(values, z)) / sum(zi * zi for zi in z)
    if max(abs(v - chi * zi) for v, zi in zip(values, z)) > RESIDUAL_TOL:
        return CommensurabilityResult(False, 0.0, ())
    return CommensurabilityResult(True, chi, tuple(z))
