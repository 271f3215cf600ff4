"""The argument contract: validators, the byte budget, and the library inputs they guard."""

import math
import re
import time

import numpy as np
import pytest

from entosc import errors
from entosc.covariant_inner import CovariantState
from entosc.entangled_series import coefficient, eigenvalue_residual, schmidt_series, series_sum
from entosc.errors import DomainError, budget, finite, integer, positive, rapidity
from entosc.phase_space import GridFunction2D
from entosc.planar_transforms import bargmann_decompose, shear_as_rotated_squeeze, wigner_decompose
from entosc.reduced_state import eta_for_temperature, reduced_density


class TestValidators:
    @pytest.mark.parametrize("value", [0, 3, 3.0, np.int64(7), np.float64(2.0), 10**400])
    def test_integer_accepts_whole_numbers(self, value):
        assert integer("n", value) == value and type(integer("n", value)) is int

    @pytest.mark.parametrize("value", [-1, 2.5, math.nan, math.inf, -math.inf, "3", None, 1j])
    def test_integer_rejects(self, value):
        with pytest.raises(DomainError, match=f"^{re.escape(f'n must be an integer >= 0, got {value!r}')}$"):
            integer("n", value)

    def test_integer_bounds_name_the_range(self):
        assert integer("order", 370, low=2, high=370) == 370
        with pytest.raises(DomainError, match=r"order must be an integer in \[2, 370\], got 371"):
            integer("order", 371, low=2, high=370)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_positive(self, value):
        assert positive("tol", 1e-300) == 1e-300
        with pytest.raises(DomainError, match="tol must be positive and finite"):
            positive("tol", value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_finite(self, value):
        assert finite("lam", -1e300) == -1e300
        with pytest.raises(DomainError, match="lam must be finite"):
            finite("lam", value)

    def test_rapidity(self):
        assert rapidity(errors.ETA_MAX) == 25.0 and rapidity(-1) == -1.0
        for eta in (25.000001, math.nan, math.inf):
            with pytest.raises(DomainError, match=r"\|eta\| <= 25.0"):
                rapidity(eta)

    def test_budget_reads_the_module_constant(self, monkeypatch):
        budget(errors.BYTE_BUDGET, "exactly the budget")
        for nbytes in (errors.BYTE_BUDGET + 1, math.inf, math.nan):
            with pytest.raises(DomainError, match="needs up to .* GiB; the budget is 4 GiB"):
                budget(nbytes, "a grid")
        monkeypatch.setattr(errors, "BYTE_BUDGET", 2**20)
        with pytest.raises(DomainError, match="the budget is 0.000977 GiB"):
            budget(2**20 + 1, "a grid")


# Inputs that returned nan, or raised ValueError, ZeroDivisionError or
# OverflowError, or (the last two) would have built meshes of about 1e10 points.
BAD_LIBRARY_CALLS = {
    "eta_for_temperature-nan": lambda: eta_for_temperature(math.nan),
    "bargmann_decompose-nan": lambda: bargmann_decompose(math.nan),
    "shear_as_rotated_squeeze-nan": lambda: shear_as_rotated_squeeze(math.nan),
    "wigner_decompose-lam-nan": lambda: wigner_decompose(1.0, math.nan),
    "grid-spacing-nan": lambda: GridFunction2D(origin=(0.0, 0.0), spacing=(math.nan, 0.1), values=np.zeros((2, 2))),
    "schmidt_series-tol-nan": lambda: schmidt_series(0, 0.5, tol=math.nan),
    "series_sum-tol-nan": lambda: series_sum(0, 0.5, 0.0, 0.0, tol=math.nan),
    "reduced_density-tol-nan": lambda: reduced_density(0, 0.5, tol=math.nan),
    "coefficient-n-nan": lambda: coefficient(math.nan, 0, 0.5),
    "CovariantState-n-nan": lambda: CovariantState(math.nan, 0.0),
    "eigenvalue_residual-spacing-0": lambda: eigenvalue_residual(0, 0.5, spacing=0.0),
    "eigenvalue_residual-spacing-nan": lambda: eigenvalue_residual(0, 0.5, spacing=math.nan),
    "eigenvalue_residual-half_width-inf": lambda: eigenvalue_residual(0, 0.5, half_width=math.inf),
    "eigenvalue_residual-spacing-1e-4": lambda: eigenvalue_residual(0, 0.5, spacing=1e-4),
    "from_function-half_width-1e5": lambda: GridFunction2D.from_function(lambda X, Y: X + Y, half_width=1e5),
}


@pytest.mark.parametrize("call", BAD_LIBRARY_CALLS.values(), ids=BAD_LIBRARY_CALLS.keys())
def test_bad_library_inputs_raise_domain_error_fast(call):
    started = time.perf_counter()
    with pytest.raises(DomainError):
        call()
    assert time.perf_counter() - started < 0.05
