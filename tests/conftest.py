"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from entosc.oscillator_basis import _BARE_SEED, _chi_rows


@pytest.fixture
def bare_row():
    """(n, x) -> row n of the bare recurrence at an array x, the orthonormal Hermite polynomial chi_n(x) e^{x^2/2}."""

    def row(n, x):
        x = np.asarray(x, dtype=float)
        *_, value = _chi_rows(n, x, np.full(x.shape, _BARE_SEED))
        return value

    return row
