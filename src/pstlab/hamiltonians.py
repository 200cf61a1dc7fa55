"""Single-excitation Hamiltonian matrices built from coupling graphs.

All constructors return plain numpy arrays: exact int64 matrices for the
uniformly coupled models (adjacency / Laplacian) and complex Hermitian
matrices for weighted couplings with on-site fields.  The way back, from a
matrix to its coupling graph, is graphs.support_graph.
"""

from __future__ import annotations

import math

import numpy as np

from .graphs import Graph, _normalize_edge


class EdgeNotInGraph(ValueError):
    """A coupling was supplied for a pair that is not an edge."""


class NonPositiveCoupling(ValueError):
    """Chain couplings must be strictly positive."""


def adjacency_hamiltonian(g: Graph) -> np.ndarray:
    """H1 = A for the uniformly coupled XX model."""
    return g.adjacency()


def laplacian_hamiltonian(g: Graph) -> np.ndarray:
    """H1 = L = D - A for the uniformly coupled Heisenberg model."""
    return _model_matrix(g.adjacency(), "laplacian")


MODELS = ("adjacency", "laplacian")  # the uniformly coupled models, by name


def model_hamiltonian(g: Graph, model: str) -> np.ndarray:
    """The int64 matrix of a uniformly coupled model, named as in MODELS."""
    return _model_matrix(g.adjacency(), model)


def _model_matrix(a: np.ndarray, model: str) -> np.ndarray:
    """The matrix of a model named in MODELS, from the adjacency matrix a, or
    from each matrix of a stack of them: A itself, or L = D - A."""
    if model == "adjacency":
        return a
    if model == "laplacian":
        lap = -a
        diagonal = np.arange(a.shape[-1])
        lap[..., diagonal, diagonal] += a.sum(axis=-1)
        return lap
    raise ValueError(f"unknown model {model!r}")


def weighted_hamiltonian(g: Graph, couplings: dict, fields=None) -> np.ndarray:
    """Hermitian H1 with couplings J on the edges of g and fields B on the diagonal.

    couplings maps an edge (u, v) to J_{uv}; the stored value applies to the
    (u, v) entry with u < v and the mirror entry is its conjugate.  fields is
    a list of at most n values, or a dict from vertex to value; a vertex
    outside 0..n-1 raises ValueError.
    """
    h = np.zeros((g.n, g.n), dtype=complex)
    for (u, v), j in couplings.items():
        e = _normalize_edge(u, v)
        if e not in g.edges:
            raise EdgeNotInGraph(f"({u},{v}) is not an edge of the graph")
        if (u, v) != e:
            j = np.conjugate(j)
        h[e[0], e[1]] = j
        h[e[1], e[0]] = np.conjugate(j)
    if fields is not None:
        for v, b in (fields.items() if isinstance(fields, dict) else enumerate(fields)):
            if not (isinstance(v, (int, np.integer)) and type(v) is not bool and 0 <= v < g.n):
                raise ValueError(f"field vertex {v!r} is not in 0..{g.n - 1}")
            h[v, v] = float(b)
    return h


def chain_hamiltonian(couplings, fields=None) -> np.ndarray:
    """Open chain on len(couplings)+1 sites with nearest-neighbour couplings."""
    from .graphs import path_graph

    n = len(couplings) + 1
    g = path_graph(n)
    cmap = {(i, i + 1): j for i, j in enumerate(couplings)}
    return weighted_hamiltonian(g, cmap, fields)


# -- the paper-style worked chains ------------------------------------------


def asymmetric_5chain_couplings(j2: float):
    """Couplings (J1, J2, J3, J4) of the non-mirror-symmetric 5-site chain.

    J1 = sqrt(5/2 - J2^2), J3 = 3/(2 J2), J4 = sqrt(5/2 - 9/(4 J2^2)),
    which gives transfer between sites 1 and 3 (zero-indexed) at t0 = pi.
    Real couplings require 3/sqrt(10) <= J2 <= sqrt(5/2).
    """
    if j2 <= 0:
        raise NonPositiveCoupling("J2 must be strictly positive")
    j1_sq = 5 / 2 - j2 * j2
    j4_sq = 5 / 2 - 9 / (4 * j2 * j2)
    if j1_sq <= 0 or j4_sq <= 0:
        raise NonPositiveCoupling(
            f"J2={j2} is outside the range giving real positive couplings"
        )
    return (math.sqrt(j1_sq), j2, 3 / (2 * j2), math.sqrt(j4_sq))


def standard_pst_chain_couplings(n: int):
    """J_k = sqrt(k (n - k)) for k = 1..n-1: the mirror-symmetric PST chain."""
    return tuple(math.sqrt(k * (n - k)) for k in range(1, n))


COUPLING_IDENTITY_RTOL = 1e-12


def check_coupling_identity_5chain(j) -> bool:
    """J1^2 + J2^2 == J3^2 + J4^2, to within COUPLING_IDENTITY_RTOL."""
    if len(j) != 4:
        raise ValueError("expected four couplings")
    if any(x <= 0 for x in j):
        raise NonPositiveCoupling("all couplings must be strictly positive")
    lhs = j[0] ** 2 + j[1] ** 2
    rhs = j[2] ** 2 + j[3] ** 2
    return abs(lhs - rhs) <= COUPLING_IDENTITY_RTOL * max(abs(lhs), abs(rhs))
