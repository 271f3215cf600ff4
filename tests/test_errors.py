"""The argument contract: validators, the byte budget, and the library inputs they guard."""

import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from entosc import errors
from entosc.covariant_inner import contraction_factor
from entosc.entangled_series import coefficient, eigenvalue_residual, schmidt_series, series_sum, squeezed_wavefunction
from entosc.errors import DomainError, budget, finite, integer, positive, rapidity
from entosc.phase_space import GridFunction2D, PhasePoint, ground_state_grid, wigner_section, wigner_transform, wigner_xp
from entosc.planar_transforms import (
    bargmann_decompose,
    bargmann_reconstruct,
    boost,
    rotated_squeeze_form,
    rotation,
    shear,
    shear_as_rotated_squeeze,
    sheared_gaussian_form,
    wigner_decompose,
)
from entosc.reduced_state import eta_for_temperature, position_density, reduced_density, temperature, thermo_point, width


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

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: positive("a", None), "a must be positive and finite, got None"),
            (lambda: positive("a", "x"), "a must be positive and finite, got 'x'"),
            (lambda: finite("a", "x"), "a must be finite, got 'x'"),
            (lambda: finite("a", 1j), "a must be finite, got 1j"),
            (lambda: finite("a", -(10**400)), "a must be finite, got -1" + "0" * 400),
            (lambda: rapidity("x"), "rapidity must be finite with |eta| <= 25.0, got 'x'"),
            (lambda: rapidity(None), "rapidity must be finite with |eta| <= 25.0, got None"),
            (lambda: temperature("x"), "rapidity must be finite with |eta| <= 25.0, got 'x'"),
            (lambda: width(None), "rapidity must be finite with |eta| <= 25.0, got None"),
            (lambda: coefficient(0, 0, "x"), "rapidity must be finite with |eta| <= 25.0, got 'x'"),
            (lambda: thermo_point("x"), "beta_sq must be finite, got 'x'"),
            (lambda: thermo_point(None), "beta_sq must be finite, got None"),
            (lambda: contraction_factor(1, "x"), "beta must be finite, got 'x'"),
            (lambda: contraction_factor(1, None), "beta must be finite, got None"),
        ],
        ids=["positive-None", "positive-str", "finite-str", "finite-complex", "finite-huge-int", "rapidity-str",
             "rapidity-None", "temperature-str", "width-None", "coefficient-str", "thermo_point-str",
             "thermo_point-None", "contraction_factor-str", "contraction_factor-None"],
    )
    def test_non_numbers_raise_domain_error(self, call, message):
        # the validators convert inside their own try, as `integer` does: no TypeError or ValueError escapes
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call()

    def test_budget_reads_the_module_constant(self, monkeypatch):
        budget(errors.BYTE_BUDGET, "exactly the budget")
        for nbytes in (errors.BYTE_BUDGET + 1, math.inf, math.nan):
            with pytest.raises(DomainError, match="needs up to .* GiB; the budget is 4 GiB"):
                budget(nbytes, "a grid")
        monkeypatch.setattr(errors, "BYTE_BUDGET", 2**20)
        with pytest.raises(DomainError, match="the budget is 0.000977 GiB"):
            budget(2**20 + 1, "a grid")


PSI = ground_state_grid(half_width=5.0, spacing=0.25)

# Inputs that returned nan, or raised ValueError, ZeroDivisionError or
# OverflowError, or would have built meshes of about 1e10 points, or summed
# a Wigner window before failing on a non-finite momentum.
BAD_LIBRARY_CALLS = {
    "eta_for_temperature-nan": lambda: eta_for_temperature(math.nan),
    "eta_for_temperature-1e22": lambda: eta_for_temperature(1e22),
    "wigner_transform-p-nan": lambda: wigner_transform(PSI, PhasePoint(0.0, 0.0, math.nan, 0.0)),
    "wigner_transform-q-inf": lambda: wigner_transform(PSI, PhasePoint(0.0, 0.0, 0.0, math.inf)),
    "wigner_section-p-nan": lambda: wigner_section(PSI, 0.0, 0.0, [0.0, math.nan], [0.0]),
    "wigner_section-q--inf": lambda: wigner_section(PSI, 0.0, 0.0, [0.0], [-math.inf]),
    "wigner_xp-p-nan": lambda: wigner_xp(PSI, 0.0, [math.nan]),
    "wigner_xp-p-inf": lambda: wigner_xp(PSI, 0.0, [0.0, math.inf]),
    "bargmann_decompose-nan": lambda: bargmann_decompose(math.nan),
    "shear_as_rotated_squeeze-nan": lambda: shear_as_rotated_squeeze(math.nan),
    "wigner_decompose-lam-nan": lambda: wigner_decompose(1.0, math.nan),
    "grid-spacing-nan": lambda: GridFunction2D(origin=(0.0, 0.0), spacing=(math.nan, 0.1), values=np.zeros((2, 2))),
    "schmidt_series-tol-nan": lambda: schmidt_series(0, 0.5, tol=math.nan),
    "series_sum-tol-nan": lambda: series_sum(0, 0.5, 0.0, 0.0, tol=math.nan),
    "reduced_density-tol-nan": lambda: reduced_density(0, 0.5, tol=math.nan),
    "coefficient-n-nan": lambda: coefficient(math.nan, 0, 0.5),
    "squeezed_wavefunction-n-nan": lambda: squeezed_wavefunction(math.nan, 0.0, 0.0, 0.0),
    "eigenvalue_residual-spacing-0": lambda: eigenvalue_residual(0, 0.5, spacing=0.0),
    "eigenvalue_residual-spacing-nan": lambda: eigenvalue_residual(0, 0.5, spacing=math.nan),
    "eigenvalue_residual-half_width-inf": lambda: eigenvalue_residual(0, 0.5, half_width=math.inf),
    "eigenvalue_residual-spacing-1e-4": lambda: eigenvalue_residual(0, 0.5, spacing=1e-4),
    "from_function-half_width-1e5": lambda: GridFunction2D.from_function(lambda X, Y: X + Y, half_width=1e5),
    # the planar constructors: ValueError, OverflowError or TypeError from math, or nan and inf entries
    "rotation-inf": lambda: rotation(math.inf),
    "rotation-nan": lambda: rotation(math.nan),
    "boost-1e300": lambda: boost(1e300),
    "boost-nan": lambda: boost(math.nan),
    "shear-str": lambda: shear("x"),
    "shear-nan": lambda: shear(math.nan),
    "shear-1e308": lambda: shear(1e308),
    "rotated_squeeze_form-eta-1e300": lambda: rotated_squeeze_form(0.0, 1e300),
    "bargmann_reconstruct-eta-1e300": lambda: bargmann_reconstruct(0.0, 1e300),
    "bargmann_reconstruct-eta-710.4": lambda: bargmann_reconstruct(0.5, 710.4),
    "sheared_gaussian_form-1e300": lambda: sheared_gaussian_form(1e300),
}


@pytest.mark.parametrize("call", BAD_LIBRARY_CALLS.values(), ids=BAD_LIBRARY_CALLS.keys())
def test_bad_library_inputs_raise_domain_error_fast(call):
    started = time.perf_counter()
    with pytest.raises(DomainError):
        call()
    assert time.perf_counter() - started < 0.05


MESH = np.linspace(-5.0, 5.0, 1000)
# each call allocates planes of 8 MB, past a 1 MiB budget, from arguments of 8 kB (series_sum was charged already)
GRID_CALLS = {
    "series_sum": lambda: series_sum(0, 0.5, MESH[:, None], MESH[None, :]),
    "squeezed_wavefunction": lambda: squeezed_wavefunction(0, 0.5, MESH[:, None], MESH[None, :]),
    "position_density": lambda: position_density(0.5, MESH[:, None], MESH[None, :]),
    "wigner_section": lambda: wigner_section(PSI, 0.0, 0.0, MESH, MESH),
    "wigner_xp": lambda: wigner_xp(PSI, 0.0, MESH),
}


@pytest.mark.parametrize("call", GRID_CALLS.values(), ids=GRID_CALLS.keys())
def test_allocations_that_outgrow_their_arguments_are_charged_first(call, monkeypatch):
    monkeypatch.setattr(errors, "BYTE_BUDGET", 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="the budget is 0.000977 GiB"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**17


def test_eta_for_temperature_names_its_argument():
    # the refusal used to name the rapidity 346.08... that the caller never passed; the domain is unchanged
    with pytest.raises(DomainError, match=r"^temperature must be at most 1\.29618e\+21 \(\|eta\| <= 25\.0\), got 1e\+300$"):
        eta_for_temperature(1e300)
    assert eta_for_temperature(temperature(errors.ETA_MAX)) == errors.ETA_MAX
