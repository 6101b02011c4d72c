"""Fixtures shared across test modules."""

import pytest

from spectral_cusum import spectral


@pytest.fixture(params=["dsyevr", "eigh"])
def solver(request, monkeypatch):
    """Run the test once on each eigensolver path of top_m_eigs: LAPACKE
    dsyevr from numpy's OpenBLAS, and the np.linalg.eigh fallback, forced by
    unbinding the solver."""
    if request.param == "eigh":
        monkeypatch.setattr(spectral, "_DSYEVR", None)
    elif spectral._DSYEVR is None:
        pytest.skip("numpy's bundled OpenBLAS exports no LAPACKE_dsyevr here")
    return request.param
