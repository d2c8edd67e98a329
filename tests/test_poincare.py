import cmath
import math

import numpy as np
import pytest

from polqpdf.errors import DegenerateInputError, PoleError, ValidationError
from polqpdf.poincare import (
    PoincareParams,
    PolarizationIndex,
    amplitudes_to_poincare,
    index_of_polarization,
    poincare_to_amplitudes,
)


def test_amplitude_round_trip_random():
    """amplitudes -> sphere -> amplitudes is the identity."""
    rng = np.random.default_rng(101)
    for _ in range(500):
        ax = complex(*rng.normal(0.0, 2.0, 2))
        ay = complex(*rng.normal(0.0, 2.0, 2))
        params = amplitudes_to_poincare(ax, ay)
        bx, by = poincare_to_amplitudes(params)
        assert abs(ax - bx) <= 1e-12
        assert abs(ay - by) <= 1e-12


def test_canonical_params_round_trip():
    # canonical representatives (delta0 away from +-pi, phi away from 2*pi)
    # must come back unchanged, not just up to the joint shift
    rng = np.random.default_rng(102)
    for _ in range(300):
        params = PoincareParams(
            a0=rng.uniform(0.1, 3.0),
            chi0=rng.uniform(0.01, math.pi - 0.01),
            delta0=rng.uniform(-math.pi + 1e-6, math.pi - 1e-6),
            phi=rng.uniform(0.0, 2.0 * math.pi - 1e-6),
        )
        back = amplitudes_to_poincare(*poincare_to_amplitudes(params))
        assert abs(back.a0 - params.a0) <= 1e-12
        assert abs(back.chi0 - params.chi0) <= 1e-12
        assert abs(back.delta0 - params.delta0) <= 1e-12
        assert abs(back.phi - params.phi) <= 1e-12


def test_index_matches_amplitude_ratio():
    """p = a_y/a_x equals tan(chi0/2) e^{i delta0} of the same pair."""
    rng = np.random.default_rng(103)
    for _ in range(300):
        ax = complex(*rng.normal(0.0, 1.5, 2))
        ay = complex(*rng.normal(0.0, 1.5, 2))
        if ax == 0:
            continue
        params = amplitudes_to_poincare(ax, ay)
        p_ratio = index_of_polarization(ax, ay).value
        p_angles = math.tan(params.chi0 / 2.0) * cmath.exp(1j * params.delta0)
        assert abs(p_ratio - p_angles) <= 1e-12 * max(1.0, abs(p_ratio))


def test_index_from_angles():
    p = PolarizationIndex.from_angles(math.pi / 2, math.pi / 4)
    assert abs(p.value - cmath.exp(0.25j * math.pi)) <= 1e-15
    assert complex(p) == p.value
    with pytest.raises(PoleError):
        PolarizationIndex.from_angles(math.pi, 0.0)
    with pytest.raises(ValidationError):
        PolarizationIndex.from_angles(-0.1, 0.0)
    with pytest.raises(ValidationError):
        PolarizationIndex(complex("inf"))


def test_pole_canonicalization():
    # y-dark: chi0 = 0, phase carried by phi
    params = amplitudes_to_poincare(1.2 * cmath.exp(0.8j), 0j)
    assert params.chi0 == 0.0
    assert params.delta0 == 0.0
    assert abs(params.phi - 0.8) <= 1e-12
    # x-dark: chi0 = pi
    params = amplitudes_to_poincare(0j, 2j)
    assert params.chi0 == math.pi
    assert params.delta0 == 0.0
    assert abs(params.phi - math.pi / 2) <= 1e-12


def test_degenerate_and_pole_errors():
    with pytest.raises(DegenerateInputError):
        amplitudes_to_poincare(0j, 0j)
    with pytest.raises(PoleError):
        index_of_polarization(0j, 1 + 0j)


@pytest.mark.parametrize(
    "field,value",
    [("a0", -1.0), ("chi0", 3.5), ("delta0", -4.0), ("phi", 7.0)],
)
def test_params_validation(field, value):
    kwargs = dict(a0=1.0, chi0=1.0, delta0=0.5, phi=1.0)
    kwargs[field] = value
    with pytest.raises(ValidationError):
        PoincareParams(**kwargs)
