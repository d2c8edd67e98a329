import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import expectation, transiting
from polqpdf import fock
from polqpdf.errors import PoleError, TruncationError, ValidationError
from polqpdf.fock import (
    TwoModeState,
    coherent_vector,
    fock_vector,
    required_dim,
    two_mode_coherent_density,
)
from polqpdf.qpdf import (
    AxisKind,
    GridMeta,
    Method,
    PlaneQuadrature,
    QpdfGrid,
    RadialQuadrature,
    normalization_check,
    plane_grid_qpdf,
    poincare_sphere_qpdf,
    qpdf_coherent_closed,
    qpdf_polarization_section,
    qpdf_trace,
    qpdf_trace_single,
    sweep_modulus,
    sweep_phase,
)


def disc_point(rng, radius):
    r = radius * math.sqrt(rng.uniform())
    th = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(th), r * math.sin(th))


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_closed_form_at_peak():
    assert qpdf_coherent_closed(0j, 0j, 0j, 0j, 0.0) == 4.0
    beta, gamma = 1.1 - 0.3j, 0.4j
    assert qpdf_coherent_closed(beta, gamma, beta, gamma, 0.0) == 4.0


def test_closed_form_antinormal_limit():
    beta, gamma, ax, ay = 0.5j, 0.2 + 0.1j, -0.3 + 0.8j, 1.0 + 0j
    want = math.exp(-abs(ax - beta) ** 2 - abs(ay - gamma) ** 2)
    assert qpdf_coherent_closed(beta, gamma, ax, ay, -1.0) == pytest.approx(want)


def test_closed_form_vectorized():
    axs = np.array([0j, 1j, 2j])
    vals = qpdf_coherent_closed(0j, 0j, axs, np.zeros(3, complex), 0.0)
    assert vals.shape == (3,)
    assert vals[0] == 4.0
    assert vals[1] == pytest.approx(4.0 * math.exp(-2.0))


def test_section_is_a_slice_of_the_closed_form():
    beta, q, p, s = 0.7 + 0.1j, 0.3 - 0.2j, 1.1j, -0.5
    for ax in (0j, 0.5 + 0.5j, -2.0 + 1.0j):
        assert qpdf_polarization_section(beta, q, p, ax, s) == qpdf_coherent_closed(
            beta, q * beta, ax, p * ax, s
        )


def test_section_peak_on_manifold():
    beta = 0.9 - 0.2j
    p = 0.4 + 0.3j
    assert qpdf_polarization_section(beta, p, p, beta, 0.0) == pytest.approx(4.0)


def test_peak_phase_minimizes_displacement():
    """argmax over arg(ax) sits where |ax-b|^2 + |p ax - q b|^2 is least."""
    rng = np.random.default_rng(301)
    for _ in range(5):
        beta = disc_point(rng, 2.0)
        p = disc_point(rng, 1.5)
        q = disc_point(rng, 1.5)
        r = rng.uniform(0.5, 4.0)
        th = np.arange(2048) * (2.0 * math.pi / 2048)
        axs = r * np.exp(1j * th)
        vals = qpdf_polarization_section(beta, q, p, axs, 0.0)
        cost = np.abs(axs - beta) ** 2 + np.abs(p * axs - q * beta) ** 2
        assert int(np.argmax(vals)) == int(np.argmin(cost))


# ---------------------------------------------------------------------------
# trace route
# ---------------------------------------------------------------------------

def test_trace_matches_closed_form():
    rng = np.random.default_rng(302)
    for i in range(30):
        beta, gamma, ax, ay = (disc_point(rng, 2.5) for _ in range(4))
        s = (-1.0, -0.5, 0.0)[i % 3]
        state = two_mode_coherent_density(beta, gamma, 60)
        got = qpdf_trace(state, ax, ay, s)
        want = qpdf_coherent_closed(beta, gamma, ax, ay, s)
        assert abs(got - want) <= 1e-8


def test_trace_density_route_matches_ket_route():
    dim = 24
    ket = two_mode_coherent_density(0.5 + 0.1j, -0.3j, dim)
    dens = TwoModeState.from_density(np.asarray(ket.density), dim)
    for s in (-1.0, -0.5, 0.0):
        a = qpdf_trace(ket, 0.7 + 0.1j, -0.2 + 0.4j, s)
        b = qpdf_trace(dens, 0.7 + 0.1j, -0.2 + 0.4j, s)
        assert abs(a - b) <= 1e-12


def test_trace_refuses_cancellation_at_positive_s():
    # the Fock sum alternates at s > 0; at (2, -i) the closed form is
    # 2.4e-26 at s = 0.9, where an unchecked sum returned 2.7e34
    state = two_mode_coherent_density(1.0, 0.5j, 60)
    for s in (0.9, 0.99):
        with pytest.raises(TruncationError, match="cancellation"):
            qpdf_trace(state, 2.0, -1j, s)
    for s in (0.3, 0.5):
        want = qpdf_coherent_closed(1.0, 0.5j, 2.0, -1j, s)
        assert abs(qpdf_trace(state, 2.0, -1j, s) - want) <= 1e-9
    with pytest.raises(TruncationError, match="cancellation"):
        normalization_check(state, 0.3, PlaneQuadrature(40, 6.0))


@st.composite
def _small_states(draw):
    """A random entangled ket or a 2-3 component mixture, support below k.

    Returns (pairs, k): unit kets as k x k coefficient matrices of the
    levels n_x, n_y < k, and weights summing to 1.
    """
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 3))
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    pairs = []
    for _ in range(n):
        c = np.array(draw(st.lists(parts, min_size=2 * k * k, max_size=2 * k * k)))
        c = (c[::2] + 1j * c[1::2]).reshape(k, k)
        if np.linalg.norm(c) < 0.1:
            c[0, 0] += 1.0
        pairs.append(c / np.linalg.norm(c))
    w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    return list(zip(w / w.sum(), pairs)), k


def _embedded(pairs, dim):
    kets = []
    for w, c in pairs:
        big = np.zeros((dim, dim), dtype=complex)
        big[: c.shape[0], : c.shape[1]] = c
        kets.append((w, big.reshape(-1)))
    return TwoModeState.from_kets(kets, dim)


# the state dim must meet required_dim at every point, and the density
# form's eigen decomposition grows with dim^6, so the points stay small
_POINT = st.one_of(
    st.just(0j),
    st.builds(complex, st.floats(-0.2, 0.2), st.floats(-0.2, 0.2)),
)
_ORDER = st.one_of(st.sampled_from([-1.0, -0.5, 0.0]), st.floats(-1.0, 0.0))


@settings(max_examples=12, deadline=None)
@given(_small_states(), _POINT, _POINT, _ORDER)
def test_engine_matches_dense_reference(states, ax, ay, s):
    """Ket and density forms agree with the kron kernel at a padded dim.

    The engine's kernel elements are exact; the d x d kron kernel is
    truncated, so the reference embeds the state at a larger dim, where
    the kernel rows the state reaches are converged.
    """
    pairs, k = states
    dim = required_dim(0.3)
    kets = _embedded(pairs, dim)
    dens = TwoModeState.from_density(kets.density, dim)
    ref = _embedded(pairs, dim + 4)

    def reference(x, y):
        return expectation(ref, transiting(x, y, s, dim + 4)).real

    want = reference(ax, ay)
    for state in (kets, dens):
        assert abs(qpdf_trace(state, ax, ay, s) - want) <= 1e-10
    grid = plane_grid_qpdf(kets, s, 0.2, 3, alpha_y=ay)
    axis = grid.axis_values
    want = np.array([reference(complex(a, b), ay) for a in axis for b in axis])
    for state in (kets, dens):
        got = plane_grid_qpdf(state, s, 0.2, 3, alpha_y=ay).values
        assert np.max(np.abs(got - want)) <= 1e-10


def test_trace_requires_adequate_dim():
    state = two_mode_coherent_density(0j, 0j, 20)
    with pytest.raises(TruncationError, match="alpha_x"):
        qpdf_trace(state, 3.0 + 0j, 0j, 0.0)
    with pytest.raises(TruncationError, match="alpha_y"):
        qpdf_trace(state, 0j, 3.0 + 0j, 0.0)


def test_trace_single_mode():
    one = fock_vector(1, 20)
    assert qpdf_trace_single(np.outer(one, one), 0j, 0.0) == pytest.approx(-2.0)
    beta = 0.8 - 0.5j
    v = coherent_vector(beta, 60)
    rho = np.outer(v, v.conj())
    for alpha in (0j, 0.5 + 0.5j, -1.2j):
        want = 2.0 * math.exp(-2.0 * abs(alpha - beta) ** 2)
        assert qpdf_trace_single(rho, alpha, 0.0) == pytest.approx(want, abs=1e-10)
    v = coherent_vector(0.5, 60)
    rho = np.outer(v, v.conj())
    for s in (-1.0, -0.5, 0.2):
        kappa = 2.0 / (1.0 - s)
        want = kappa * math.exp(-kappa * abs(0.4 + 0.3j - 0.5) ** 2)
        assert abs(qpdf_trace_single(rho, 0.4 + 0.3j, s) - want) <= 1e-9
    # closed forms 1.0e-53 and 5.6e-11: the alternating Fock sum cannot
    # hold them to 1e-10 (a dense contraction returned -4.7e40 and -2.1e-7)
    for s in (0.9, 0.5):
        with pytest.raises(TruncationError, match="cancellation"):
            qpdf_trace_single(rho, 3.0, s)
    # a thin tail at |40> that the kernel weights by r^40: trimming it away
    # returned 4.0 at s = 0.5, where the value is 2.4e7
    thin = np.diag(np.r_[1.0 - 5e-13, np.zeros(39), 5e-13, np.zeros(19)])
    for s in (0.5, 0.2, 0.0, -0.5):
        want = 2.0 / (1.0 - s) * (1.0 - 5e-13 + 5e-13 * ((1.0 + s) / (s - 1.0)) ** 40)
        try:
            got = qpdf_trace_single(thin, 0j, s)
        except TruncationError:
            assert s > 0.0
            continue
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
    with pytest.raises(ValidationError):
        qpdf_trace_single(np.zeros((3, 4)), 0j, 0.0)
    bad = np.outer(one, one)
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        qpdf_trace_single(bad, 0j, 0.0)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_phase_axis_and_meta():
    grid = sweep_phase(0.5j, 0.2, 0.1j, 1.0, -0.5, n_points=128)
    assert grid.axis_kind is AxisKind.PHASE
    assert grid.axis_values.shape == (128,)
    assert grid.axis_values[0] == 0.0
    assert grid.axis_values[-1] < 2.0 * math.pi
    assert grid.meta.method is Method.CLOSED_FORM
    assert grid.meta.dim_used is None
    assert grid.meta.s == -0.5


def test_sweep_methods_agree_on_constant_state():
    # p = q and |ax| = |beta| keeps the sweep on the state's own manifold
    beta = 1.0 + 0.5j
    p = 0.6 - 0.3j
    a = sweep_phase(beta, p, p, abs(beta), 0.0, n_points=64)
    b = sweep_phase(beta, p, p, abs(beta), 0.0, n_points=64,
                    method=Method.TRACE_ORACLE)
    assert b.meta.dim_used is not None
    assert np.max(np.abs(a.values - b.values)) <= 1e-8


def test_sweep_modulus_axis_and_decay():
    grid = sweep_modulus(2j, 0.0049 * (1 + 1j), 0.0049 * (1 + 1j),
                         math.pi / 4, 0.0, max_modulus=8.0, n_points=512)
    assert grid.axis_kind is AxisKind.MODULUS
    assert grid.axis_values[0] == 0.0
    assert grid.axis_values[-1] == 8.0
    peak = int(np.argmax(grid.values))
    assert np.all(np.diff(grid.values[peak:]) < 0.0)


def test_sweep_modulus_trace_route():
    a = sweep_modulus(0.3 + 0.2j, 0.5, 0.4j, 0.7, -0.5, max_modulus=3.0,
                      n_points=32)
    b = sweep_modulus(0.3 + 0.2j, 0.5, 0.4j, 0.7, -0.5, max_modulus=3.0,
                      n_points=32, method=Method.TRACE_ORACLE)
    assert np.max(np.abs(a.values - b.values)) <= 1e-8


def test_sweep_validation():
    with pytest.raises(ValidationError):
        sweep_phase(0j, 0j, 0j, -1.0, 0.0)
    with pytest.raises(ValidationError):
        sweep_phase(0j, 0j, 0j, 1.0, 0.0, n_points=1)
    with pytest.raises(ValidationError):
        sweep_modulus(0j, 0j, 0j, 0.0, 0.0, max_modulus=0.0)
    for bad in (complex(math.nan, 0.5), complex(math.inf, 0.5)):
        with pytest.raises(ValidationError, match="finite"):
            qpdf_coherent_closed(bad, 0j, 0j, 0j, 0.0)
        with pytest.raises(ValidationError, match="finite"):
            qpdf_coherent_closed(0j, bad, 0j, 0j, 0.0)


def test_grid_validation():
    meta = GridMeta(0.0, 0j, 0j, 0j, None, Method.CLOSED_FORM)
    with pytest.raises(ValidationError, match="increasing"):
        QpdfGrid(AxisKind.PHASE, np.array([0.0, 0.0, 1.0]), np.zeros(3), meta)
    with pytest.raises(ValidationError, match="length"):
        QpdfGrid(AxisKind.PHASE, np.array([0.0, 1.0]), np.zeros(3), meta)
    with pytest.raises(ValidationError, match="length 4"):
        QpdfGrid(AxisKind.PLANE, np.array([0.0, 1.0]), np.zeros(3), meta)
    with pytest.raises(ValidationError, match="finite"):
        QpdfGrid(AxisKind.PHASE, np.array([0.0, 1.0]),
                 np.array([0.0, math.inf]), meta)
    # plane grids take n^2 values
    QpdfGrid(AxisKind.PLANE, np.array([0.0, 1.0]), np.zeros(4), meta)


# ---------------------------------------------------------------------------
# plane integrals
# ---------------------------------------------------------------------------

def test_normalization_of_test_states():
    quad = PlaneQuadrature(nodes_per_axis=120, half_width=6.0)
    coh = two_mode_coherent_density(0.8 + 0.3j, 0.4 - 0.1j, 40)
    one = TwoModeState.from_kets(
        [(1.0, np.kron(fock_vector(1, 30), fock_vector(0, 30)))], 30
    )
    for state in (coh, one):
        for s in (-1.0, 0.0):
            res = normalization_check(state, s, quad)
            assert abs(res.total - 1.0) <= 1e-4
            assert abs(res.mode_x - 1.0) <= 1e-4
            assert abs(res.mode_y - 1.0) <= 1e-4
            assert res.box_ok
            assert res.warnings == ()


def test_normalization_of_entangled_state():
    bell = (
        np.kron(fock_vector(0, 24), fock_vector(1, 24))
        + np.kron(fock_vector(1, 24), fock_vector(0, 24))
    ) / math.sqrt(2.0)
    state = TwoModeState.from_kets([(1.0, bell)], 24)
    res = normalization_check(state, 0.0, PlaneQuadrature(100, 6.0))
    assert abs(res.total - 1.0) <= 1e-4
    assert abs(res.mode_x - 1.0) <= 1e-4


def test_normalization_box_warning():
    # amplitude 3 wants a half-width of 8; the undersized box is flagged
    state = two_mode_coherent_density(3.0, 0j, 40)
    res = normalization_check(state, -1.0, PlaneQuadrature(60, 6.0))
    assert not res.box_ok
    assert res.recommended_half_width == pytest.approx(8.0, abs=0.05)
    assert len(res.warnings) == 1


def test_quadrature_validation():
    with pytest.raises(ValidationError):
        PlaneQuadrature(1, 6.0)
    with pytest.raises(ValidationError):
        PlaneQuadrature(100, -1.0)
    with pytest.raises(ValidationError):
        RadialQuadrature(1, 64)
    with pytest.raises(ValidationError):
        RadialQuadrature(max_radius=-2.0)


# ---------------------------------------------------------------------------
# sphere section integral
# ---------------------------------------------------------------------------

def test_sphere_integral_against_gaussian_reduction():
    """Polar quadrature reproduces the analytic plane-Gaussian integral.

    Reducing the section to a single 2D Gaussian gives
    kappa^2 (pi/a) exp(-kappa (1+|q|^2)|beta|^2 + |c|^2/a) with
    a = kappa (1+|p|^2) and c = kappa (1 + conj(p) q) beta.
    """
    cases = [
        # (beta, q, chi0, delta0, s, frozen value of the reduction)
        (1.0 + 0.5j, 0.2 + 0.1j, math.pi / 3, 0.7, -0.4, 2.819383341604808),
        (0.1 + 0.2j, complex(math.sqrt(0.5), math.sqrt(0.5)),
         2.0 * math.atan(1.0), math.pi / 4, 0.0, 3.1415926535897936),
        (2j, 0.0049 * (1 + 1j), 2.5, 3.0, -1.0, 0.00843088656128402),
    ]
    for beta, q, chi0, d0, s, frozen in cases:
        got = poincare_sphere_qpdf(beta, q, (chi0, d0), s)
        assert got == pytest.approx(frozen, rel=1e-10)


def test_sphere_integral_nonnegative_at_lowest_order():
    got = poincare_sphere_qpdf(0.5 - 0.5j, 1.2j, (1.0, -2.0), -1.0)
    assert got >= 0.0


def test_sphere_integral_pole():
    with pytest.raises(PoleError):
        poincare_sphere_qpdf(0.5, 0.2, (math.pi, 0.0), 0.0)


def test_sphere_integral_explicit_radius():
    val_auto = poincare_sphere_qpdf(0.3j, 0.1, (0.8, 0.0), -0.5)
    val_wide = poincare_sphere_qpdf(0.3j, 0.1, (0.8, 0.0), -0.5,
                                    RadialQuadrature(200, 256, max_radius=12.0))
    assert val_auto == pytest.approx(val_wide, rel=1e-9)


# ---------------------------------------------------------------------------
# plane grids
# ---------------------------------------------------------------------------

def test_plane_grid_values_match_pointwise():
    state = two_mode_coherent_density(0.4 - 0.2j, 0.1j, 48)
    grid = plane_grid_qpdf(state, -1.0, 2.0, 12, alpha_y=0.3 + 0.1j)
    assert grid.axis_kind is AxisKind.PLANE
    assert grid.values.shape == (144,)
    ax = grid.axis_values
    for i, j in ((0, 0), (3, 7), (11, 11)):
        z = complex(ax[i], ax[j])
        want = qpdf_trace(state, z, 0.3 + 0.1j, -1.0)
        assert grid.values[i * 12 + j] == pytest.approx(want, abs=1e-12)


def test_plane_grid_nonnegative_q_function():
    state = two_mode_coherent_density(0.4 - 0.2j, 0.1j, 48)
    grid = plane_grid_qpdf(state, -1.0, 2.0, 24)
    assert grid.values.min() >= -1e-10
