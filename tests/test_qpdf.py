import cmath
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    _BLOCK_CAP,
    _TRACE_TRIM,
    _checked,
    _coefficients,
    _contract,
    _kernel_block,
    _kernel_sums,
    _plane_nodes,
    _trace_points,
    _x_dot,
    _x_stream,
    _y_side,
    normalization_check,
    plane_grid_qpdf,
    poincare_sphere_qpdf,
    qpdf_coherent_closed,
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


def test_section_peak_on_manifold():
    beta = 0.9 - 0.2j
    p = 0.4 + 0.3j
    assert qpdf_coherent_closed(beta, p * beta, beta, p * beta, 0.0) == pytest.approx(4.0)


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
        vals = qpdf_coherent_closed(beta, q * beta, axs, p * axs, 0.0)
        cost = np.abs(axs - beta) ** 2 + np.abs(p * axs - q * beta) ** 2
        assert int(np.argmax(vals)) == int(np.argmin(cost))


# ---------------------------------------------------------------------------
# trace route
# ---------------------------------------------------------------------------

def _kernel_finite_sum(a, s, k):
    """<m|t(a, s)|n> with r^n L_n^(m-n) as an exact rational sum.

    r^n L_n^(m-n)(4|a|^2/(1-s^2)) = sum_j C(m, n-j) r^(n-j) (kappa^2 |a|^2)^j / j!
    is rational in the binary values of s and a, so only the prefactor
    kappa e^(-kappa|a|^2) sqrt(n!/m!) (kappa a)^(m-n) is rounded.
    """
    sf, a2 = Fraction(s), Fraction(a.real) ** 2 + Fraction(a.imag) ** 2
    kappa, r = 2 / (1 - sf), (sf + 1) / (sf - 1)
    rp = [r**i for i in range(k)]
    up = [(kappa**2 * a2) ** j / math.factorial(j) for j in range(k)]
    out = np.zeros((k, k), dtype=complex)
    for m in range(k):
        for n in range(m + 1):
            tot = sum(math.comb(m, n - j) * rp[n - j] * up[j] for j in range(n + 1))
            log = (math.log(kappa) - float(kappa * a2)
                   + (m - n) * math.log(float(kappa) * abs(a))
                   + (math.lgamma(n + 1) - math.lgamma(m + 1)) / 2)
            out[m, n] = float(tot) * cmath.exp(log + 1j * (m - n) * cmath.phase(a))
            out[n, m] = out[m, n].conjugate()
    return out


def test_kernel_block_matches_exact_finite_sum():
    # independent of eval_genlaguerre; near s = -1 the Laguerre argument
    # diverges while r -> 0, at s = 0.9 the elements reach 1e21
    for s in (-0.999, -0.5, 0.0, 0.3, 0.5, 0.7, 0.9):
        want = _kernel_finite_sum(1.3 - 0.7j, s, 25)
        got = _kernel_block([1.3 - 0.7j], s, 25)[0]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # at s = -1 the block is the coherent projector, returned as its amplitudes
    c = _kernel_block([1.3 - 0.7j], -1.0, 25)[0]
    assert np.allclose(c, coherent_vector(1.3 - 0.7j, 60)[:25], rtol=0.0, atol=1e-15)


def test_kernel_block_does_not_depend_on_the_batch():
    # a batch too large for the coefficient table forms each recurrence
    # row as it goes; the arithmetic, and so every bit, stays the same
    rng = np.random.default_rng(7)
    pts = 3.0 * (rng.normal(size=300) + 1j * rng.normal(size=300))
    for s in (-0.5, 0.0, 0.3):
        batch = _kernel_block(pts, s, 30)
        single = np.concatenate([_kernel_block([a], s, 30) for a in pts])
        assert np.array_equal(batch, single)


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
    # the Fock sum alternates at s > 0; here the closed form is 0.32 and
    # the terms reach 1e7, more than a 1e-10 rounding bound allows
    state = two_mode_coherent_density(3.0, 0j, 120)
    with pytest.raises(TruncationError, match="cancellation"):
        qpdf_trace(state, 1.0, 0j, 0.3)
    state = two_mode_coherent_density(1.0, 0.5j, 60)
    for s in (0.3, 0.5):
        want = qpdf_coherent_closed(1.0, 0.5j, 2.0, -1j, s)
        assert abs(qpdf_trace(state, 2.0, -1j, s) - want) <= 1e-9
    res = normalization_check(state, 0.3, PlaneQuadrature(40, 6.0))
    assert abs(res.total - 0.9999983523876) <= 1e-9
    assert res.recommended_half_width == pytest.approx(6.0, abs=1e-9)


def test_trace_refuses_weight_at_the_top_level_at_positive_s():
    # at (2, -i) the closed form is 2.4e-26 at s = 0.9, where an unchecked
    # sum returned 2.7e34: |r|^59 amplifies what dim 60 cut off
    state = two_mode_coherent_density(1.0, 0.5j, 60)
    for s in (0.9, 0.99):
        with pytest.raises(TruncationError, match="top level 59"):
            qpdf_trace(state, 2.0, -1j, s)
    with pytest.raises(TruncationError, match="top level"):
        normalization_check(state, 0.9, PlaneQuadrature(40, 6.0))


def test_positive_s_values_the_row_sums_got_wrong():
    # the displaced row sums scaled their rounding by |r|^rows: -8.0e6 here
    state = two_mode_coherent_density(0.5, 0j, 60)
    assert abs(qpdf_trace(state, 1.0, 0j, 0.9) - 2.6951787996341854) <= 1e-9
    # and 1.8076e-6 with no error, where the closed form is 1.8006e-6
    state = two_mode_coherent_density(2j, 0j, 60)
    want = qpdf_coherent_closed(2j, 0j, 0j, 0j, 0.5)
    try:
        assert abs(qpdf_trace(state, 0j, 0j, 0.5) - want) <= 1e-9
    except TruncationError:
        pass


def _thermal(nbar, dim):
    w = (nbar / (1.0 + nbar)) ** np.arange(dim)
    return np.diag(w / w.sum()).astype(complex)


def test_rotated_thermal_density_matches_dense_reference():
    """A full-rank density with no product structure, against the kron kernel.

    The stacked Schmidt vectors of such a state needed a 20 GiB block at
    dim 30; the engine contracts rho itself.  rho lives on 12 levels per
    mode and is embedded at a larger dim, where the truncated kron kernel
    rows it reaches are converged.
    """
    dim, big = 12, 28
    rng = np.random.default_rng(5)
    z = rng.normal(size=(dim * dim, 2 * dim * dim)).view(complex)
    u = np.linalg.qr(z)[0]
    th = _thermal(0.3, dim)
    rho = u @ np.kron(th, th) @ u.conj().T
    padded = np.zeros((big,) * 4, dtype=complex)
    padded[:dim, :dim, :dim, :dim] = rho.reshape((dim,) * 4)
    padded = padded.reshape(big * big, big * big)
    state = TwoModeState.from_density((padded + padded.conj().T) / 2.0, big)
    for s in (-1.0, -0.5, 0.0):
        for ax, ay in ((0j, 0j), (0.2 - 0.1j, 0.15j), (-0.1 + 0.25j, -0.2)):
            want = expectation(state, transiting(ax, ay, s, big)).real
            assert abs(qpdf_trace(state, ax, ay, s) - want) <= 1e-12


def test_displaced_thermal_plane_is_fast_and_exact():
    # 3175 stacked Schmidt vectors made this 4 x 4 plane take 2.9 s
    nbar, dim, s = 0.3, 30, -0.5
    amps = (0.8 + 0.3j, -0.5j)
    modes = []
    for b in amps:
        d = fock._displacement_block(np.array([b]), dim, dim)[0]
        modes.append(d @ _thermal(nbar, dim) @ d.conj().T)
    rho = np.kron(*modes)
    rho = (rho + rho.conj().T) / (2.0 * np.trace(rho).real)
    state = TwoModeState.from_density(rho, dim)
    start = time.perf_counter()
    grid = plane_grid_qpdf(state, s, 1.0, 4, alpha_y=0.2j)
    assert time.perf_counter() - start < 1.0
    axis = grid.axis_values
    pts = np.array([complex(a, b) for a in axis for b in axis])
    g = 1.0 - s + 2.0 * nbar
    want = 4.0 / g**2 * np.exp(-2.0 * (abs(pts - amps[0]) ** 2
                                       + abs(0.2j - amps[1]) ** 2) / g)
    assert np.max(np.abs(grid.values - want)) <= 1e-10


@settings(max_examples=150, deadline=None)
@given(
    st.builds(cmath.rect, st.floats(0.0, 1.5), st.floats(-math.pi, math.pi)),
    st.builds(cmath.rect, st.floats(0.0, 1.5), st.floats(-math.pi, math.pi)),
    st.builds(cmath.rect, st.floats(0.0, 2.0), st.floats(-math.pi, math.pi)),
    st.builds(cmath.rect, st.floats(0.0, 2.0), st.floats(-math.pi, math.pi)),
    st.floats(-1.0, 0.95),
)
def test_trace_matches_closed_form_wherever_it_answers(beta, gamma, ax, ay, s):
    """Sized for s, a coherent pair's trace is right or refused as truncation."""
    grow = max(1.0, math.sqrt(abs((1.0 + s) / (1.0 - s))))
    dim = required_dim(grow * max(abs(beta) + abs(ax), abs(gamma) + abs(ay)))
    state = two_mode_coherent_density(beta, gamma, dim)
    try:
        got = qpdf_trace(state, ax, ay, s)
    except TruncationError:
        return
    assert abs(got - qpdf_coherent_closed(beta, gamma, ax, ay, s)) <= 1e-9


@st.composite
def _small_states(draw, max_parts=3):
    """A random entangled ket or a mixture of up to max_parts, support below k.

    Returns (pairs, k): unit kets as k x k coefficient matrices of the
    levels n_x, n_y < k, and weights summing to 1.
    """
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, max_parts))
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


# the kron reference needs kernel rows converged at the state's dim, and the
# density form's factorization grows with dim^4, so the points stay small
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


@settings(max_examples=25, deadline=None)
@given(
    _small_states(max_parts=5),
    st.builds(cmath.rect, st.floats(0.0, 0.28), st.floats(-math.pi, math.pi)),
    st.builds(cmath.rect, st.floats(0.0, 0.28), st.floats(-math.pi, math.pi)),
    st.sampled_from([-1.0, -0.5, 0.0]),
)
def test_density_route_matches_ket_route_on_mixtures(states, ax, ay, s):
    """from_density of a mixture's density gives the mixture's own values."""
    kets = _embedded(states[0], required_dim(0.28))
    dens = TwoModeState.from_density(kets.density, kets.dim)
    assert abs(qpdf_trace(dens, ax, ay, s) - qpdf_trace(kets, ax, ay, s)) <= 1e-12


def _outcome(f, *args):
    """A value, or the type of the refusal it raised."""
    try:
        return f(*args)
    except (TruncationError, ValidationError) as err:
        return type(err)


def test_zero_padding_leaves_every_value_unchanged():
    """Kernel elements are exact, so dim sizes only the state, at any point.

    A dim-40 coherent pair gives the bitwise value (or refusal) of its
    zero-padded dim-120 copy far beyond |alpha| = 2.48, where `required_dim`
    stops at dim 40.  Pairs stay within |beta| <= 1.2, whose level-39
    weight stays below the support cut even amplified by |r|^39 at s = 0.3.
    """
    rng = np.random.default_rng(17)
    for _ in range(20):
        beta, gamma = disc_point(rng, 1.2), disc_point(rng, 1.2)
        small = two_mode_coherent_density(beta, gamma, 40)
        padded = _embedded([(1.0, small.components[0][1].reshape(40, 40))], 120)
        ax, ay = disc_point(rng, 12.0), disc_point(rng, 12.0)
        for s in (-1.0, -0.5, 0.0, 0.3):
            assert (_outcome(qpdf_trace, small, ax, ay, s)
                    == _outcome(qpdf_trace, padded, ax, ay, s))
    for s in (-1.0, -0.5, 0.0, 0.3):
        for n in (4, 5):  # the odd grid has a node at the origin, alpha = 0
            a, b = (_outcome(lambda x: plane_grid_qpdf(x, s, 12.0, n, alpha_y=ay).values, x)
                    for x in (small, padded))
            assert a is b if isinstance(a, type) else np.array_equal(a, b)
    # the dim-20 vacuum at alpha_x = 3, once refused as too small a space
    vac = two_mode_coherent_density(0j, 0j, 20)
    want = qpdf_coherent_closed(0j, 0j, 3.0, 0j, 0.0)
    assert abs(qpdf_trace(vac, 3.0, 0j, 0.0) - want) <= 1e-12
    big = np.zeros((60, 60), dtype=complex)
    big[1, 1] = 1.0  # |1><1|, and its dim-20 block
    assert qpdf_trace_single(big[:20, :20], 3.0, 0.0) == qpdf_trace_single(big, 3.0, 0.0)


def _assert_stream_matches_blocks(state, axs, ay, s):
    """Streamed shared-alpha_y traces against `_x_dot` of kernel blocks.

    Both routes must refuse alike.  At s <= 0 each value is held to 1e-13
    of its terms' magnitude sum; at s > 0 values and magnitude sums to the
    rounding bound that sum sets, grown by the logs both forms exponentiate.
    """
    got = _outcome(_trace_points, state, axs, [ay], s)
    try:
        coef, sx, sy, _ = _coefficients(state, s, _TRACE_TRIM)
        ys = _y_side(coef, _kernel_block([ay], s, sy), s)
        if s == -1.0:  # rank-1 amplitudes on both routes
            assert np.array_equal(got, _contract(ys, _kernel_block(axs, s, sx), s))
            return
        dots, scale, want_mag = np.zeros(axs.size, complex), np.zeros(axs.size), None
        if s > 0.0:
            want_mag = np.zeros(axs.size)
        for i, z in enumerate(axs):  # one block at a time: k may be large
            t = _kernel_block([z], s, sx)
            dots[i], scale[i] = _x_dot(ys[0], t)[0], _x_dot(np.abs(ys[0]), np.abs(t))[0].real
            if s > 0.0:
                want_mag[i] = _x_dot(ys[1], np.abs(t))[0].real
        want = _checked(dots, want_mag, sx + ys[2], s)
    except (TruncationError, ValidationError) as err:
        assert got is type(err)
        return
    vals, mags = _x_stream(ys, axs, s, sx)
    if s <= 0.0:
        bound = 1e-13 * scale
        assert mags is None
    else:
        a = np.abs(axs[axs != 0])
        logs = np.max(2.0 / (1.0 - s) * a**2 + sx * np.abs(np.log(a)), initial=0.0)
        bound = (8 * sx + logs) * np.finfo(float).eps * want_mag
        assert np.all(np.abs(mags - want_mag) <= bound)
    assert np.all(np.abs(vals - dots) <= bound)
    assert np.all(np.abs(got - want) <= bound)


@settings(max_examples=60, deadline=None)
@given(
    _small_states(),
    st.booleans(),
    st.sampled_from([0, 2]),
    st.lists(st.builds(cmath.rect, st.floats(0.0, 3.0), st.floats(-math.pi, math.pi)),
             min_size=1, max_size=4),
    st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.one_of(st.just(-1.0), st.floats(-1.0, 0.6)),
)
def test_streamed_traces_match_kernel_blocks(states, dense, pad, points, ay, s):
    # alpha, i alpha, -alpha and conj(alpha) share a radius, and the origin
    # is one of its own; with no padding the top level holds weight, which
    # s > 0 refuses on both routes
    pairs, k = states
    state = _embedded(pairs, k + pad)
    if dense:
        state = TwoModeState.from_density(state.density, state.dim)
    axs = np.array([0j] + [z for a in points for z in (a, 1j * a, -a, a.conjugate())])
    _assert_stream_matches_blocks(state, axs, ay, s)


def test_wide_plane_streams_like_the_blocks():
    # support 282 over the 6 radii of a 5 x 5 plane: the rows are dotted one
    # by one and dropped.  At half-width 20 the rows r^n L_n overflow, and
    # both routes refuse
    state = two_mode_coherent_density(12.0, 12j, 286)
    for width in (14.0, 20.0):
        axis = np.linspace(-width, width, 5)
        pts = (axis[:, None] + 1j * axis[None, :]).reshape(-1)
        for s in (-0.5, 0.0):
            _assert_stream_matches_blocks(state, pts, 12j, s)
    with pytest.raises(TruncationError, match="not finite"):
        plane_grid_qpdf(state, 0.0, 20.0, 5, alpha_y=12j)


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
    # closed forms 1.0e-53 and 5.6e-11, where a dense contraction returned
    # -4.7e40 and -2.1e-7 and the row sums refused both
    for s, rel in ((0.9, 1e-2), (0.5, 1e-6)):
        kappa = 2.0 / (1.0 - s)
        want = kappa * math.exp(-kappa * 2.5**2)
        got = qpdf_trace_single(rho, 3.0, s)
        assert abs(got - want) <= 1e-9
        assert got == pytest.approx(want, rel=rel)
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
    # the sizing rule, at the displaced moduli per mode, is the only way
    # a sweep gets its dimension
    axs = abs(beta) * np.exp(1j * a.axis_values)
    mx, my = np.max(np.abs(axs)), np.max(np.abs(p * axs))
    rule = max(required_dim(mx + abs(beta)), required_dim(my + abs(p * beta)))
    assert b.meta.dim_used == rule
    assert np.max(np.abs(a.values - b.values)) <= 1e-8


def test_trace_sweep_is_sized_for_positive_s():
    # |r| > 1 weights level n by |r|^n, so the coherent pair needs
    # sqrt(|r|) times the displaced modulus; sized without it, this refused
    grid = sweep_phase(0.87, 0.3 + 0.1j, 0.5 + 0.2j, 5.0, 0.35, n_points=16,
                       method=Method.TRACE_ORACLE)
    assert grid.meta.dim_used == 142
    axs = 5.0 * np.exp(1j * grid.axis_values)
    want = qpdf_coherent_closed(0.87, 0.87 * (0.3 + 0.1j), axs, (0.5 + 0.2j) * axs, 0.35)
    assert np.max(np.abs(grid.values - want)) <= 1e-9


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
    state = two_mode_coherent_density(0j, 0j, 20)
    for n in (0, 1):
        with pytest.raises(ValidationError, match="n_points"):
            plane_grid_qpdf(state, 0.0, 1.0, n)


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


def test_normalization_refuses_non_finite_kernel_elements():
    # the Laguerre factor overflows where exp(-|xi|^2/2) underflows: the
    # total came back NaN with only a RuntimeWarning
    state = two_mode_coherent_density(0.8 + 0.3j, 0.1, 40)
    with pytest.raises(TruncationError, match="not finite"):
        normalization_check(state, 0.0, PlaneQuadrature(2, 1e20))


def _kernel_sums_reference(nodes, weights, s, k):
    """(1/pi) sum_g w_g t(alpha_g, s) and sum_g w_g |t| from per-node kernel blocks."""
    t = _kernel_block(nodes, s, k)
    if t.ndim == 2:  # s = -1: coherent amplitudes, t = c c^H
        t = t[:, :, None] * t[:, None, :].conj()
    w = np.asarray(weights) / math.pi
    return np.tensordot(w, t, 1), np.tensordot(w, np.abs(t), 1)


def _underflow_allowance(nodes, weights, s, k):
    """What subnormal intermediates can cost each element of the s > 0 sums.

    A factor formed below 2^-1022 keeps only an absolute precision of
    2^-1074.  The reference forms whole elements by exp and weights them
    by w/pi.  The sums form u = e^(-kappa|a|^2) (kappa a)^d / sqrt(d!) by
    exp, multiply it by a sum of w/pi, and that product, itself possibly
    subnormal, by the row r^n L_n^(d)(x), |.| <= |r|^n C(n + d, n) e^(x/2),
    and by sqrt(n! d!/(n + d)!).  Each route rounds at most twice per node
    at that precision, and a rounding there costs 2^-1074 even where the
    factor after it is below 1, so 4 x nodes multiples of 2^-1074, times
    the largest factor or 1, hold both.
    """
    p = np.minimum.outer(np.arange(k), np.arange(k))
    d = np.abs(np.subtract.outer(np.arange(k), np.arange(k)))
    x = 4.0 * np.max(np.abs(nodes)) ** 2 / (1.0 - s * s)
    root_comb = np.sqrt(np.vectorize(math.comb)(p + d, p).astype(float))
    row = abs((s + 1.0) / (s - 1.0)) ** p * root_comb * math.exp(x / 2)
    return 2.0**-1074 * (4 * len(nodes) * row * max(1.0, np.sum(weights) / math.pi))


def _assert_sums_match(nodes, weights, s, k, logs=0.0):
    want, want_mag = _kernel_sums_reference(nodes, weights, s, k)
    got, got_mag = (x[0] for x in _kernel_sums(nodes, weights, s, k))
    if s <= 0.0:
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert not got_mag.any()
    else:
        # the alternating sums cancel far below their terms: hold each
        # element to the rounding bound its magnitude sum sets, and to what
        # subnormal intermediates allow where that sum is itself subnormal
        bound = ((8 * k + logs) * np.finfo(float).eps * want_mag
                 + _underflow_allowance(nodes, weights, s, k))
        assert np.all(np.abs(got - want) <= bound)
        assert np.all(np.abs(got_mag - want_mag) <= bound)


def test_kernel_sums_match_per_node_blocks():
    # an odd count puts a node at the origin, the zero radius; at s = -1 the
    # rows (|a|^2)^n / n! grow fastest with the box
    for quad, orders in ((PlaneQuadrature(40, 6.0), (-1.0, -0.999, -0.5, 0.0, 0.3, 0.7)),
                         (PlaneQuadrature(41, 6.0), (-1.0, -0.999, -0.5, 0.0, 0.3, 0.7)),
                         (PlaneQuadrature(60, 12.0), (-1.0,)),
                         (PlaneQuadrature(60, 20.0), (-1.0,))):
        nodes, weights = _plane_nodes(quad)
        for k in (1, 2, 13, 22):
            for s in orders:
                _assert_sums_match(nodes, weights, s, k)
    # with 200 levels on this box the rows (|a|^2)^n / n! alone would overflow;
    # their rounding grows with n.  At s = -1, t = c c^H
    nodes, weights = _plane_nodes(PlaneQuadrature(60, 50.0))
    c = _kernel_block(nodes, -1.0, 200)
    want = (c.T * (weights / math.pi)) @ c.conj()
    got = _kernel_sums(nodes, weights, -1.0, 200)[0][0]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_kernel_sums_slice_to_every_smaller_support():
    for n in (40, 41):
        nodes, weights = _plane_nodes(PlaneQuadrature(n, 6.0))
        for s in (-1.0, -0.5, 0.0, 0.3, 0.7):
            big = _kernel_sums(nodes, weights, s, 22)
            for j in (1, 2, 13, 21):
                for got, want in zip(big, _kernel_sums(nodes, weights, s, j)):
                    got = got[:, :j, :j]
                    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


_NODES_WEIGHTS = st.lists(
    st.tuples(st.builds(complex, st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
              st.floats(1e-6, 1.0)), min_size=1, max_size=30)
_SUM_ORDERS = st.one_of(st.just(-1.0), st.floats(-1.0, 0.6))


def _assert_sums_match_anywhere(nodes_weights, s, k):
    nodes, weights = (np.array(v) for v in zip(*nodes_weights))
    # both forms exponentiate sums of logs, which round to eps times their
    # size: a lone node far out or near 0 sets the elements it dominates
    a = np.abs(nodes[nodes != 0])
    logs = np.max(2.0 / (1.0 - s) * a**2 + k * np.abs(np.log(a)), initial=0.0)
    _assert_sums_match(nodes, weights, s, k, logs)


@settings(max_examples=60, deadline=None)
@given(_NODES_WEIGHTS, _SUM_ORDERS, st.integers(1, 12))
@example([(1.8e-100 - 3.2e-101j, 0.7), (1.2e-81 - 2.0e-82j, 0.3)], 0.53, 12)
def test_kernel_sums_match_per_node_blocks_anywhere(nodes_weights, s, k):
    _assert_sums_match_anywhere(nodes_weights, s, k)


@settings(max_examples=60, deadline=None)
@given(_NODES_WEIGHTS, _SUM_ORDERS, st.integers(1, 12))
def test_kernel_sums_match_per_node_blocks_on_orbits(nodes_weights, s, k):
    # alpha, i alpha, -alpha, -i alpha and conj(alpha) share a radius and a
    # weight, so the sums run over fewer radii than nodes
    _assert_sums_match_anywhere([(z, w) for a, w in nodes_weights
                                 for z in (a, 1j * a, -a, -1j * a, a.conjugate())], s, k)


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
    """The automatic radius agrees with a wider polar rule out to 12."""
    beta, q, chi0, d0, s = 0.3j, 0.1, 0.8, 0.0, -0.5
    p = math.tan(chi0 / 2.0) * complex(math.cos(d0), math.sin(d0))
    x, w = np.polynomial.legendre.leggauss(200)
    r, wr = 6.0 * (x + 1.0), 6.0 * w
    th = np.arange(256) * (2.0 * math.pi / 256)
    z = r[:, None] * np.exp(1j * th)
    vals = qpdf_coherent_closed(beta, q * beta, z, p * z, s)
    val_wide = float(np.sum(vals * (r * wr)[:, None])) * (2.0 * math.pi / 256)
    val_auto = poincare_sphere_qpdf(beta, q, (chi0, d0), s)
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
    # the plane's 48 radii hold more than _BLOCK_CAP entries of 74-level rows,
    # so its rows are dotted one by one and dropped; a single point's rows
    # are stacked and contracted at once
    state = two_mode_coherent_density(5.0, 5j, 74)
    ax = np.linspace(-6.0, 6.0, 12)
    assert np.unique(np.abs(ax[:, None] + 1j * ax)).size * 74**2 > _BLOCK_CAP
    for s in (-0.5, 0.0):
        grid = plane_grid_qpdf(state, s, 6.0, 12, alpha_y=4.5j)
        picks = range(0, 144, 5)
        want = [qpdf_trace(state, complex(ax[i // 12], ax[i % 12]), 4.5j, s) for i in picks]
        assert grid.values[list(picks)] == pytest.approx(want, abs=1e-12)


def test_plane_grid_nonnegative_q_function():
    state = two_mode_coherent_density(0.4 - 0.2j, 0.1j, 48)
    grid = plane_grid_qpdf(state, -1.0, 2.0, 24)
    assert grid.values.min() >= -1e-10
