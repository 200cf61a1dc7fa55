import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from pstlab import decompose, fidelity_curve


def scan_max_fidelity(h, a, b, t_hi, grid=10**4):
    """Brute-force oracle: max |<b|e^{-iHt}|a>| over (0, t_hi], grid + refinement.

    Deliberately ignorant of the symbolic decision path (gap structure,
    parities); it only uses the raw amplitude curve, and refines with
    scipy's Brent minimizer rather than pstlab's refine_extrema.
    """
    dec = decompose(np.asarray(h, dtype=complex))
    times = np.linspace(t_hi / grid, t_hi, grid)
    mags = np.abs(fidelity_curve(dec, a, b, times))
    i = int(np.argmax(mags))
    lo = times[max(0, i - 1)]
    hi = times[min(grid - 1, i + 1)]
    lams = np.asarray(dec.eigenvalues)
    coeffs = np.array([np.vdot(basis[a], basis[b]) for basis in dec.bases])

    def neg(t):
        return -abs(np.exp(-1j * lams * t) @ coeffs)

    opt = minimize_scalar(neg, bounds=(lo, hi), method="bounded",
                          options={"xatol": 1e-14})
    return float(opt.x), -float(opt.fun)


@pytest.fixture(scope="session")
def small_connected_graphs():
    from pstlab import enumerate_connected_graphs

    return {n: list(enumerate_connected_graphs(n)) for n in range(1, 7)}


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
