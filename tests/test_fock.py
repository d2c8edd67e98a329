import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import gammaln, pdtrc

from polqpdf import fock
from polqpdf.coherence import _mode_power_operator
from polqpdf.errors import (
    SingularOrderError,
    TruncationError,
    ValidationError,
)
from polqpdf.fock import (
    OrderParameter,
    TwoModeState,
    coherent_vector,
    fock_vector,
    kernel,
    required_dim,
    state_components,
    two_mode_coherent_density,
)
from polqpdf.qpdf import qpdf_trace

from dense_reference import (
    expectation,
    reduced_modes,
    transiting,
    transiting_restricted,
)


def _displacement(xi, dim):
    return fock._displacement_block(np.array([xi]), dim, dim)[0]


def test_ladder_entries():
    a = _mode_power_operator(0, 1, 4)
    assert a[0, 1] == 1.0
    assert a[1, 2] == pytest.approx(math.sqrt(2.0))
    assert a[2, 3] == pytest.approx(math.sqrt(3.0))
    assert np.count_nonzero(a) == 3
    assert np.array_equal(_mode_power_operator(1, 0, 4), a.conj().T)
    n = _mode_power_operator(1, 1, 5)
    assert np.count_nonzero(n - np.diag(np.diag(n))) == 0
    assert np.diag(n).real == pytest.approx(np.arange(5.0), rel=1e-14)


def test_order_parameter():
    assert float(OrderParameter(-0.5)) == -0.5
    with pytest.raises(SingularOrderError):
        OrderParameter(1.0)
    with pytest.raises(ValidationError):
        OrderParameter(1.5)
    with pytest.raises(ValidationError):
        OrderParameter(-1.2)


def test_coherent_vector_statistics():
    beta = 1.2 + 0.5j
    v = coherent_vector(beta, 50)
    assert abs(np.vdot(v, v) - 1.0) <= 1e-12
    n = np.diag(np.arange(50.0))
    assert abs(np.vdot(v, n @ v) - abs(beta) ** 2) <= 1e-10
    a = np.diag(np.sqrt(np.arange(1.0, 50.0)), k=1)
    # approximate eigenvector of the annihilation operator
    assert np.linalg.norm(a @ v - beta * v) <= 1e-9


def test_coherent_vector_tail_guard():
    # poisson.isf(1e-12, 6.25) + 1
    with pytest.raises(TruncationError, match="need dim >= 32$"):
        coherent_vector(2.5, 10)
    # |beta|^2 overflows a float
    with pytest.raises(TruncationError, match="no Fock dim"):
        coherent_vector(1e200, 10)
    for bad in (complex(math.nan, 0.5), complex(math.inf, 0.5)):
        with pytest.raises(ValidationError, match="finite"):
            coherent_vector(bad, 10)


def test_required_dim_rule():
    assert required_dim(0.0) == 19
    assert required_dim(2.5) == 41
    assert required_dim(7.0) == 110
    assert required_dim(10.0) == 179
    # above M = 10.49 (M + 3)^2 + 10 alone keeps a tail above 1e-12
    for m in (10.5, 15.0, 20.0, 50.0):
        assert pdtrc(required_dim(m) - 1, m * m) < 1e-12
    coherent_vector(20.0, required_dim(20.0))
    # no array index, or no float at all, holds (M + 3)^2
    for m in (1e10, 1e200):
        with pytest.raises(TruncationError, match="no Fock dim"):
            required_dim(m)


def test_required_dim_tail_bound_at_large_moduli():
    # at lam = 1e8 pdtrc put the tail of dim 100069979 below 1e-12; summed
    # directly it is 1.3e-12.  Here 1e5 pmf terms are summed in logs from
    # k + 1 on, the first from math.lgamma and the rest by ratios lam / j.
    lam = 1e8

    def tail(k):
        steps = np.log(lam / np.arange(k + 2, k + 100_001))
        logp = ((k + 1) * math.log(lam) - lam - math.lgamma(k + 2)
                + np.concatenate(([0.0], np.cumsum(steps))))
        return float(np.exp(logp).sum())

    dim = required_dim(1e4)
    assert tail(dim - 1) < 1e-12 <= tail(dim - 2)


def test_log_factorial_table_matches_gammaln():
    n = np.arange(5000)[::-1].reshape(50, 100)
    np.testing.assert_allclose(fock._log_factorial(n), gammaln(n + 1.0), rtol=1e-15, atol=0)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1e5), st.floats(-10.0, 35.0))
def test_poisson_tail_matches_pdtrc(lam, z):
    k = max(0, int(lam + z * math.sqrt(lam + 1.0)))
    want = pdtrc(k, lam)
    assume(want >= 1e-300)
    assert fock._poisson_tail(k, lam) == pytest.approx(want, rel=1e-8, abs=0.0)


def test_displacement_against_matrix_exponential():
    """Closed-form entries agree with expm(xi a^dag - conj(xi) a)."""
    rng = np.random.default_rng(201)
    big, crop = 160, 40
    a = np.diag(np.sqrt(np.arange(1.0, big)), k=1)
    for _ in range(5):
        xi = complex(*rng.uniform(-1.5, 1.5, 2))
        gen = xi * a.conj().T - xi.conjugate() * a
        want = expm(gen)[:crop, :crop]
        got = _displacement(xi, big)[:crop, :crop]
        assert np.max(np.abs(got - want)) <= 1e-12


def test_displacement_identity_at_zero():
    d = _displacement(0j, 12)
    assert np.array_equal(d, np.eye(12))


def test_displacement_of_vacuum_is_coherent():
    xi = 0.9 - 0.4j
    dim = required_dim(abs(xi))
    vac = fock_vector(0, dim)
    assert np.max(np.abs(_displacement(xi, dim) @ vac
                         - coherent_vector(xi, dim))) <= 1e-10


def test_displacement_unitarity_half_block():
    dim = 160
    half = dim // 2
    for xi in (3.0 + 0j, 2.1 - 2.1j, 0.3j):
        d = _displacement(xi, dim)
        left = (d.conj().T @ d - np.eye(dim))[:half, :half]
        assert np.max(np.abs(left)) <= 1e-8
        both = (d @ _displacement(-xi, dim) - np.eye(dim))[:half, :half]
        assert np.max(np.abs(both)) <= 1e-8


def test_kernel_is_coherent_projector_at_lowest_order():
    alpha = 1.1 - 0.6j
    dim = required_dim(abs(alpha))
    v = coherent_vector(alpha, dim)
    proj = np.outer(v, v.conj())
    assert np.max(np.abs(kernel(alpha, -1.0, dim).entries - proj)) <= 1e-10


def test_kernel_parity_diagonal():
    t = kernel(0j, 0.0, 9).entries
    assert np.array_equal(np.diag(t), 2.0 * np.power(-1.0, np.arange(9)))
    assert np.count_nonzero(t - np.diag(np.diag(t))) == 0


@pytest.mark.parametrize("s", [-1.0, -0.5, 0.0])
def test_kernel_hermitian(s):
    for alpha in (0.8 + 0.3j, 2.0j, -1.7 + 0.1j):
        t = kernel(alpha, s, 50).entries
        assert np.max(np.abs(t - t.conj().T)) <= 1e-10


def test_kernel_refuses_non_finite_elements():
    """A displacement block that overflows is a truncation failure, with no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TruncationError, match="finite"):
            kernel(1e20, 0.0, 12)


def test_kernel_coherent_expectation():
    """<beta|t(alpha, 0)|beta> matches the Gaussian 2 exp(-2|a-b|^2)."""
    rng = np.random.default_rng(202)
    for _ in range(20):
        r = 2.5 * np.sqrt(rng.uniform(0, 1, 2))
        th = rng.uniform(0, 2 * math.pi, 2)
        alpha = complex(r[0] * math.cos(th[0]), r[0] * math.sin(th[0]))
        beta = complex(r[1] * math.cos(th[1]), r[1] * math.sin(th[1]))
        v = coherent_vector(beta, 60)
        got = np.vdot(v, kernel(alpha, 0.0, 60).entries @ v)
        want = 2.0 * math.exp(-2.0 * abs(alpha - beta) ** 2)
        assert abs(got - want) <= 1e-8


def test_kernel_completeness():
    """(1/pi) integral of <m|t(alpha,s)|n> over the plane is delta_mn.

    64x64 Gauss-Legendre on [-8,8]^2; the integrand is assembled from
    displacement columns (t = c D diag(r) D^dag) and spot-checked
    against the public kernel entries.
    """
    x, w = np.polynomial.legendre.leggauss(64)
    xs, ws = 8.0 * x, 8.0 * w
    nodes = (xs[:, None] + 1j * xs[None, :]).reshape(-1)
    weights = np.outer(ws, ws).reshape(-1)
    nsub = 6

    for s, cols in ((-1.0, 1), (-0.5, 45), (0.0, None)):
        kappa = 2.0 / (1.0 - s)
        if s == 0.0:
            # t(alpha, 0) = 2 D(2 alpha) Pi
            block = fock._displacement_block(2.0 * nodes, nsub, nsub)
            signs = np.power(-1.0, np.arange(nsub))
            integral = (kappa / math.pi) * np.einsum(
                "g,gmn,n->mn", weights, block, signs
            )
        else:
            r = fock._kernel_diagonal(s, cols)
            block = fock._displacement_block(nodes, nsub, cols)
            integral = (kappa / math.pi) * np.einsum(
                "g,gmk,k,gnk->mn", weights, block, r, block.conj()
            )
        assert np.max(np.abs(integral - np.eye(nsub))) <= 2e-3

        # integrand must be what kernel() reports, node by node (nodes
        # near the origin, where dim=120 resolves the kernel entries)
        for g in (29 * 64 + 33, 34 * 64 + 30):
            alpha = nodes[g]
            assert abs(alpha) < 3.0
            if s == 0.0:
                point = kappa * block[g] * signs[None, :]
            else:
                point = kappa * np.einsum("mk,k,nk->mn", block[g], r, block[g].conj())
            ref = kernel(alpha, s, 120).entries[:nsub, :nsub]
            assert np.max(np.abs(point - ref)) <= 1e-9


def test_transiting_index_convention():
    # index n_x * dim + n_y: an x-only operator acts on the slow index
    dim = 3
    tx = kernel(0.4 + 0.1j, -0.5, dim).entries
    ty = kernel(-0.2j, -0.5, dim).entries
    big = transiting(0.4 + 0.1j, -0.2j, -0.5, dim).entries
    assert np.max(np.abs(big - np.kron(tx, ty))) == 0.0
    assert big[0 * dim + 1, 2 * dim + 1] == pytest.approx(tx[0, 2] * ty[1, 1])


def test_transiting_product_state_factorizes():
    beta, gamma = 0.8 - 0.2j, 0.5j
    alpha_x, alpha_y, s = 0.3 + 0.4j, -0.6j, -0.5
    dim = 40
    state = two_mode_coherent_density(beta, gamma, dim)
    both = expectation(state, transiting(alpha_x, alpha_y, s, dim))
    vb = coherent_vector(beta, dim)
    vg = coherent_vector(gamma, dim)
    ex = np.vdot(vb, kernel(alpha_x, s, dim).entries @ vb)
    ey = np.vdot(vg, kernel(alpha_y, s, dim).entries @ vg)
    assert abs(both - ex * ey) <= 1e-12


def test_transiting_restricted_matches_section():
    p = 0.3 - 0.8j
    got = transiting_restricted(0.5 + 0.5j, p, -0.5, 12).entries
    want = transiting(0.5 + 0.5j, p * (0.5 + 0.5j), -0.5, 12).entries
    assert np.array_equal(got, want)


def test_transiting_dim_guard():
    with pytest.raises(ValidationError):
        transiting(0j, 0j, 0.0, 131)


def test_two_mode_state_routes_agree():
    beta, gamma = 0.6 + 0.3j, -0.4 + 0.1j
    dim = 24
    ket_state = two_mode_coherent_density(beta, gamma, dim)
    rho = np.asarray(ket_state.density)
    dens_state = TwoModeState.from_density(rho, dim)

    op = transiting(0.2 - 0.1j, 0.3j, -0.5, dim)
    assert abs(expectation(ket_state, op) - expectation(dens_state, op)) <= 1e-12

    for a, b in zip(reduced_modes(ket_state), reduced_modes(dens_state)):
        assert np.max(np.abs(a - b)) <= 1e-12
        assert abs(np.trace(a) - 1.0) <= 1e-12

    comps = state_components(dens_state)
    assert sum(w for w, _ in comps) == pytest.approx(1.0, abs=1e-9)


def test_state_components_caches_density_decomposition():
    dim = 12
    ka = np.kron(fock_vector(0, dim), fock_vector(1, dim))
    kb = np.kron(fock_vector(1, dim), fock_vector(0, dim))
    rho = 0.6 * np.outer(ka, ka.conj()) + 0.4 * np.outer(kb, kb.conj())
    state = TwoModeState.from_density(rho, dim)
    first = state_components(state)
    assert state_components(state) is first
    assert len(first) == 2
    assert sorted(w for w, _ in first) == pytest.approx([0.4, 0.6], abs=1e-12)
    with pytest.raises(ValueError):
        first[0][1][0] = 99.0


def test_reduced_modes_of_product_state():
    beta, gamma = 0.7j, 0.2 - 0.4j
    dim = 30
    rho_x, rho_y = reduced_modes(two_mode_coherent_density(beta, gamma, dim))
    vb, vg = coherent_vector(beta, dim), coherent_vector(gamma, dim)
    assert np.max(np.abs(rho_x - np.outer(vb, vb.conj()))) <= 1e-12
    assert np.max(np.abs(rho_y - np.outer(vg, vg.conj()))) <= 1e-12


def test_state_validation():
    dim = 6
    v = np.kron(fock_vector(0, dim), fock_vector(1, dim))
    with pytest.raises(ValidationError, match="weights"):
        TwoModeState.from_kets([(0.5, v)], dim)
    with pytest.raises(ValidationError, match="unit"):
        TwoModeState.from_kets([(1.0, 2.0 * v)], dim)
    rho = np.outer(v, v.conj())
    bad = rho.copy()
    bad[0, 1] = 0.5
    with pytest.raises(ValidationError):
        TwoModeState.from_density(bad, dim)
    with pytest.raises(ValidationError, match="trace"):
        TwoModeState.from_density(2.0 * rho, dim)
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        TwoModeState.from_density(np.diag([1.2, -0.2] + [0.0] * (dim * dim - 2)), dim)
    # non-finite input
    with pytest.raises(ValidationError, match="weights"):
        TwoModeState.from_kets([(np.nan, v)], dim)
    nan_ket = v.copy()
    nan_ket[3] = np.nan
    with pytest.raises(ValidationError, match="unit"):
        TwoModeState.from_kets([(1.0, nan_ket)], dim)
    for value in (np.nan, np.inf):
        bad = rho.copy()
        bad[0, 0] = value
        with pytest.raises(ValidationError, match="finite"):
            TwoModeState.from_density(bad, dim)


def test_density_acceptance_contract():
    """A density is accepted iff its pivoted Cholesky factor reproduces it within 1e-10."""

    def diag(*vals):
        return np.diag(list(vals) + [0.0] * (36 - len(vals))).astype(complex)

    TwoModeState.from_density(diag(0.5, 0.5 + 5e-11, -5e-11), 6)
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        TwoModeState.from_density(diag(0.5, 0.5 + 2e-10, -2e-10), 6)

    # a PSD rank-3 density whose upper triangle carries noise inside the
    # Hermitian check but above 1e-10 in Frobenius norm: the factorization
    # reads only the lower triangle, and so does the residual
    rng = np.random.default_rng(12)
    dim = 30
    kets = rng.normal(size=(3, dim * dim)) + 1j * rng.normal(size=(3, dim * dim))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    rho = sum(w * np.outer(v, v.conj()) for w, v in zip((0.5, 0.3, 0.2), kets))
    rho += np.triu(rng.uniform(-3e-13, 3e-13, rho.shape), 1)
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
    assert np.linalg.norm(rho - rho.conj().T) > 1e-10
    assert len(state_components(TwoModeState.from_density(rho, dim))) == 3

    pure = two_mode_coherent_density(0.6 - 0.2j, 0.3j, dim)
    (w, v), = state_components(TwoModeState.from_density(pure.density, dim))
    assert abs(w - 1.0) <= 1e-12
    assert abs(abs(np.vdot(v, pure.components[0][1])) - 1.0) <= 1e-12

    pairs = [(0.5, (0.4 + 0.3j, -0.2)), (0.3, (-0.6j, 0.5 + 0.1j)), (0.2, (0.1, 0.7j))]
    kets = [np.kron(coherent_vector(b, dim), coherent_vector(g, dim)) for _, (b, g) in pairs]
    rho = sum(w * np.outer(v, v.conj()) for (w, _), v in zip(pairs, kets))
    comps = state_components(TwoModeState.from_density(rho, dim))
    rebuilt = sum(w * np.outer(v, v.conj()) for w, v in comps)
    assert np.max(np.abs(rebuilt - rho)) <= 1e-12
    assert max(abs(np.linalg.norm(v) - 1.0) for _, v in comps) <= 1e-12


def test_thermal_product_density_matches_exact_value():
    """A full-rank density: the product thermal state, nbar = 0.3 per mode.

    W_s = prod over the modes of (2/g) exp(-2|alpha|^2/g), g = 1 - s + 2 nbar;
    the weights p^n, p = nbar/(1+nbar), are renormalized at dim 30 (tail 7e-20).
    """
    nbar, dim = 0.3, 30
    w = (nbar / (1.0 + nbar)) ** np.arange(dim)
    rho1 = np.diag(w / w.sum()).astype(complex)
    state = TwoModeState.from_density(np.kron(rho1, rho1), dim)
    for s in (-1.0, -0.5, 0.0):
        g = 1.0 - s + 2.0 * nbar
        for ax, ay in ((0j, 0j), (0.3 + 0.2j, -0.5j), (-0.7 + 0.1j, 0.4 - 0.4j)):
            want = 4.0 / g**2 * math.exp(-2.0 * (abs(ax) ** 2 + abs(ay) ** 2) / g)
            assert abs(qpdf_trace(state, ax, ay, s) - want) <= 1e-10


def test_dense_density_limit():
    state = two_mode_coherent_density(0j, 0j, 131)
    with pytest.raises(ValidationError):
        state.density  # noqa: B018


def test_operators_are_immutable():
    t = kernel(0.5, -0.5, 8)
    with pytest.raises(ValueError):
        t.entries[0, 0] = 99.0
    state = two_mode_coherent_density(0.1, 0.2, 8)
    with pytest.raises(ValueError):
        state.components[0][1][0] = 99.0
