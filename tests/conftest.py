import numpy as np
import pytest
from scipy.optimize import minimize_scalar


def scan_max_fidelity(h, a, b, t_hi, grid=10**4):
    """Brute-force oracle: max |<b|e^{-iHt}|a>| over (0, t_hi], grid + refinement.

    Deliberately ignorant of pstlab: it calls np.linalg.eigh itself, sums the
    amplitude over single eigenvectors without grouping eigenspaces, and
    refines with scipy's Brent minimizer rather than pstlab's refine_extrema.
    """
    lams, vecs = np.linalg.eigh(np.asarray(h, dtype=complex))
    coeffs = vecs[a].conj() * vecs[b]
    times = np.linspace(t_hi / grid, t_hi, grid)
    mags = np.abs(np.exp(-1j * np.outer(times, lams)) @ coeffs)
    i = int(np.argmax(mags))
    lo = times[max(0, i - 1)]
    hi = times[min(grid - 1, i + 1)]

    def neg(t):
        return -abs(np.exp(-1j * lams * t) @ coeffs)

    opt = minimize_scalar(neg, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-14})
    return float(opt.x), -float(opt.fun)


def projectors(dec):
    """P_k = B_k B_k^dag per eigenspace, B_k the columns of dec.vectors from
    dec.starts[k] to the next start."""
    return [b @ b.conj().T for b in np.split(dec.vectors, dec.starts[1:], axis=1)]


@pytest.fixture(scope="session")
def small_connected_graphs():
    from pstlab import enumerate_connected_graphs

    return {n: list(enumerate_connected_graphs(n)) for n in range(1, 7)}


@pytest.fixture(scope="session")
def connected_graphs_7():
    """The 853 connected graphs on 7 vertices, enumerated once per session."""
    from pstlab import enumerate_connected_graphs

    return list(enumerate_connected_graphs(7))


@pytest.fixture
def eigh_calls(monkeypatch):
    """A one-element list counting the numpy.linalg.eigh calls of the test."""
    calls = [0]
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls[0] += 1
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls
