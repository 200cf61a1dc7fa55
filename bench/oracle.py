"""Independent answers that the benchmark checks pstlab's outputs against.

Nothing here calls pstlab's decision procedure, spectral engine or bounds:
fidelities come from `scipy.linalg.expm`, determinants from fraction-free
elimination over the integers, spectra from `numpy.linalg.eigvalsh`,
distances from a breadth-first search, and the census reference from a
brute-force scan of |<b|e^{-iHt}|a>|.  scipy is imported on the first
call of `expm`, after a run's timed part, so it shows neither in the set-up
time nor in the peak memory of the program.
"""

from __future__ import annotations

import math
from collections import deque
from functools import lru_cache
from pathlib import Path

import numpy as np

FIDELITY_TOL = 1e-9  # a perfect transfer reaches 1 - FIDELITY_TOL
PHASE_TOL = 1e-6
EIG_TOL = 1e-6  # eigenvalues closer than this are one eigenvalue

REFERENCE = Path(__file__).resolve().parent / "data" / "census-n7-perfect.txt"


# -- dynamics ------------------------------------------------------------------


def expm(m) -> np.ndarray:
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(m)


def amplitude(h, a: int, b: int, t: float) -> complex:
    """<b| expm(-iHt) |a>."""
    return complex(expm(-1j * t * np.asarray(h, dtype=complex))[b, a])


def amplitude_row(h, a: int, t: float) -> np.ndarray:
    """<b| expm(-iHt) |a> for every b."""
    return expm(-1j * t * np.asarray(h, dtype=complex))[:, a]


def perfect_at(h, a, b, t0, phase=None) -> str | None:
    """None when the transfer a -> b is perfect at t0 with the given phase."""
    if t0 is None or not t0 > 0:
        return f"t0 = {t0} is not a positive time"
    amp = amplitude(h, a, b, t0)
    if abs(amp) < 1 - FIDELITY_TOL:
        return f"expm fidelity {abs(amp):.12f} at t0 = {t0!r}"
    if phase is not None and abs(amp - phase) > PHASE_TOL:
        return f"expm amplitude {amp:.9f} at t0 differs from the reported phase {phase:.9f}"
    return None


# -- spectra, determinants and distances ------------------------------------------


def distinct_eigenvalues(h) -> list:
    """Sorted distinct eigenvalues of a Hermitian matrix, EIG_TOL apart."""
    vals = np.linalg.eigvalsh(np.asarray(h, dtype=complex))
    out = [float(vals[0])]
    for v in vals[1:]:
        if v - out[-1] > EIG_TOL * max(1.0, abs(v)):
            out.append(float(v))
    return out


def integer_roots(values) -> list | None:
    """The values rounded and sorted when each is within EIG_TOL of an integer, else None."""
    rounded = [round(float(v)) for v in values]
    if all(abs(v - r) <= EIG_TOL for v, r in zip(values, rounded)):
        return sorted(rounded)
    return None


def integer_spectrum(a) -> list | None:
    """Sorted integer eigenvalues when every eigenvalue is an integer, else None."""
    return integer_roots(np.linalg.eigvalsh(np.asarray(a, dtype=float)))


def bareiss_det(m) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    m = [list(map(int, row)) for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def char_poly_at(a, x: int) -> int:
    """det(xI - A) for an integer matrix A."""
    a = np.asarray(a, dtype=np.int64)
    return bareiss_det(x * np.eye(len(a), dtype=np.int64) - a)


def poly_value(coeffs, x: int) -> int:
    """sum_i coeffs[i] x^i."""
    return sum(int(c) * x ** i for i, c in enumerate(coeffs))


def bfs_distances(adj, source: int) -> list:
    """Hop distances from source in the graph with this 0/1 adjacency (None: unreachable)."""
    adj = np.asarray(adj) != 0
    dist = [None] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in np.flatnonzero(adj[u]):
            if dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(int(v))
    return dist


def bfs_diameter(adj) -> int | None:
    worst = 0
    for s in range(len(adj)):
        d = bfs_distances(adj, s)
        if None in d:
            return None
        worst = max(worst, max(d))
    return worst


def support(h) -> np.ndarray:
    """0/1 adjacency of the off-diagonal couplings of H."""
    h = np.asarray(h)
    adj = (h != 0).astype(int)
    np.fill_diagonal(adj, 0)
    return adj


# -- graph6 and the census reference -----------------------------------------------


def graph6(n: int, edges) -> str:
    """graph6 text of a graph on n < 63 vertices (upper triangle, column order)."""
    es = {tuple(sorted(e)) for e in edges}
    bits = [1 if (i, j) in es else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chunks = [bits[i:i + 6] for i in range(0, len(bits), 6)]
    return chr(n + 63) + "".join(chr(63 + int("".join(map(str, c)), 2)) for c in chunks)


def model_matrix(n: int, edges, model: str) -> np.ndarray:
    a = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        a[u, v] = a[v, u] = 1
    if model == "adjacency":
        return a
    return np.diag(a.sum(axis=1)) - a


def _golden_max(f, lo, hi, tol=1e-13):
    invphi = (math.sqrt(5) - 1) / 2
    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    return max(fc, fd)


def perfect_pairs(h, horizon: float = 4 * math.pi, grid: int = 1 << 14) -> set:
    """Pairs (a, b), a < b, with max |<b|e^{-iHt}|a>| >= 1 - FIDELITY_TOL on (0, horizon].

    H is a Hermitian matrix, real or complex.  Brute force: every local
    maximum of the amplitude above 0.999 on a uniform grid is refined by
    golden-section search.  For an integer
    matrix the first perfect transfer time is pi / (g sqrt(Delta)) with
    integers g, Delta >= 1 (Godsil, "When can perfect state transfer
    occur?", 2012), so at most pi; the default horizon covers four times that.
    """
    lam, vec = np.linalg.eigh(np.asarray(h))
    n = len(lam)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    coef = np.array([vec[b] * vec[a].conj() for a, b in pairs]).T  # (eigen, pair)
    times = np.linspace(0.0, horizon, grid + 1)[1:]
    mags = np.abs(np.exp(-1j * np.outer(times, lam)) @ coef)
    found = set()
    for j in np.flatnonzero(mags.max(axis=0) > 0.999):
        col = mags[:, j]
        peaks = [i for i in range(1, grid - 1)
                 if col[i] > 0.999 and col[i] >= col[i - 1] and col[i] >= col[i + 1]]
        for i in peaks:
            best = _golden_max(lambda t: abs(np.exp(-1j * lam * t) @ coef[:, j]),
                               times[i - 1], times[i + 1])
            if best >= 1 - FIDELITY_TOL:
                found.add(pairs[j])
                break
    return found


def census_keys(graphs) -> list:
    """Sorted (graph6, model, source, target) of every perfect pair, by brute force."""
    keys = []
    for g in graphs:
        g6 = graph6(g.n, g.edges)
        for model in ("adjacency", "laplacian"):
            for a, b in perfect_pairs(model_matrix(g.n, g.edges, model)):
                keys.append((g6, model, a, b))
    return sorted(keys)


@lru_cache(maxsize=None)
def census_reference() -> dict:
    """graph6 -> set of (model, source, target) from the committed reference list."""
    ref = {}
    for line in REFERENCE.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            g6, model, a, b = line.split()
            ref.setdefault(g6, set()).add((model, int(a), int(b)))
    return ref
