"""Truncated Fock-space operators for one and two optical modes.

Everything here is dense numpy on photon numbers 0..dim-1.  The trace
engine in `qpdf` never builds a displacement block.  `_displacement_block`
and `kernel` are the tests' dense reference: displacement matrix elements
from the closed-form associated-Laguerre expression with log-factorial
stabilization, accurate at moderate amplitudes (up to dim of a few
hundred; overflow in the Laguerre factor would start near dim ~ 400).

Two-mode states use the flattened index n_x * dim + n_y.  Always go
through `TwoModeState` and the helpers here instead of doing raw index
arithmetic.

Truncation sizing: a coherent amplitude of modulus M is well represented
once dim >= (M + 3)^2 + 10 and the Poisson(M^2) tail beyond dim is below
1e-12; `required_dim` takes the larger of the two, which is the quadratic
rule up to M = 10.49.  `coherent_vector` verifies the discarded Poisson
tail explicitly rather than trusting the rule.

Importing the package loads numpy alone: log-factorials and Poisson tails
are computed here, `from_density` loads scipy.linalg on first use, and the
test-only `_displacement_block` scipy.special.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import SingularOrderError, TruncationError, ValidationError

__all__ = [
    "OrderParameter",
    "TruncatedOperator",
    "TwoModeState",
    "required_dim",
    "fock_vector",
    "coherent_vector",
    "kernel",
    "two_mode_coherent_density",
    "state_components",
]

_TAIL_TOL = 1e-12
# dense two-mode matrices above this per-mode dim are refused (memory)
_DENSE_DIM_LIMIT = 130
# (M + 3)^2 + 10 stays below the largest int64 array index
_MAX_MODULUS = 3e9
# `_poisson_tail` from k = 100 on: Gauss-Legendre nodes, and the drop e^-40
# of the integrand at which the integral stops
_TAIL_NODES = 48
_TAIL_SPAN = 40.0


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderParameter:
    """Ordering parameter s of the distribution family, -1 <= s < 1.

    s = -1, 0, 1 would be the antinormal / symmetric / normal ordered
    cases; s = 1 itself makes the kernel singular and is rejected.
    """

    s: float

    def __post_init__(self) -> None:
        s = float(self.s)
        if not math.isfinite(s):
            raise ValidationError(f"s must be finite, got {self.s!r}")
        if s == 1.0:
            raise SingularOrderError("s = 1: kernel prefactor 2/(1-s) diverges")
        if not -1.0 <= s < 1.0:
            raise ValidationError(f"s must lie in [-1, 1), got {s}")
        object.__setattr__(self, "s", s)

    def __float__(self) -> float:
        return self.s


def _order_value(s) -> float:
    if isinstance(s, OrderParameter):
        return s.s
    return OrderParameter(float(s)).s


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TruncatedOperator:
    """A dense single-mode operator on photon numbers 0..dim-1."""

    dim: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        ent = np.array(self.entries, dtype=complex)
        if ent.shape != (self.dim, self.dim):
            raise ValidationError(
                f"entries must be {self.dim}x{self.dim}, got {ent.shape}"
            )
        if not np.all(np.isfinite(ent)):
            raise ValidationError("operator entries must be finite")
        object.__setattr__(self, "entries", _freeze(ent))


class TwoModeState:
    """A two-mode density operator, held as a mixture of (weight, ket) pairs.

    States built from kets keep those pairs and materialize the dense
    density only on demand.  `from_density` validates a density matrix and
    factors it once: the factor's orthonormal columns become the mixture.
    """

    __slots__ = ("dim", "_mixture", "_density", "_from_kets")

    def __init__(self, dim: int, *, components, density=None):
        if dim < 1:
            raise ValidationError(f"dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self._mixture = components
        self._density = density
        self._from_kets = density is None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_kets(cls, pairs, dim: int) -> "TwoModeState":
        """Convex mixture of pure states given as (weight, ket) pairs."""
        d2 = dim * dim
        comps = []
        total = 0.0
        for w, ket in pairs:
            w = float(w)
            if not w >= 0.0:
                raise ValidationError(f"weights must be >= 0, got {w}")
            v = np.array(ket, dtype=complex).reshape(-1)
            if v.shape != (d2,):
                raise ValidationError(f"ket length must be dim^2 = {d2}")
            nrm = np.linalg.norm(v)
            if not abs(nrm - 1.0) <= 1e-10:
                raise ValidationError(f"component kets must be unit norm, got {nrm}")
            comps.append((w, _freeze(v)))
            total += w
        if not abs(total - 1.0) <= 1e-9:
            raise ValidationError(f"weights must sum to 1, got {total}")
        return cls(dim, components=tuple(comps))

    @classmethod
    def from_density(cls, density: np.ndarray, dim: int) -> "TwoModeState":
        """Validate a dense density and factor it once.

        Pivoted Cholesky (zpstrf, pivots above 1e-13) gives rho ~ F F^H; the
        thin SVD of F gives the orthonormal mixture, weighted by sigma^2.
        Accepted iff sqrt(2) ||tril(rho - F F^H)||_F <= 1e-10, so
        lambda_min >= -1e-10; this refuses a density the factor misses by
        more even when lambda_min lies in [-1e-10, 0).
        """
        d2 = dim * dim
        rho = np.array(density, dtype=complex)
        if rho.shape != (d2, d2):
            raise ValidationError(f"density must be {d2}x{d2}, got {rho.shape}")
        if not np.all(np.isfinite(rho)):
            raise ValidationError("density entries must be finite")
        herm = np.max(np.abs(rho - rho.conj().T))
        if herm > 1e-12:
            raise ValidationError(f"density not Hermitian, residual {herm:.3e}")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > 1e-9:
            raise ValidationError(f"density trace must be 1, got {tr!r}")
        from scipy.linalg import eigh  # LAPACK loads with the first density state
        from scipy.linalg.lapack import zpstrf

        c, piv, rank, _ = zpstrf(rho, lower=1, tol=1e-13)
        f = np.zeros((d2, rank), dtype=complex)
        f[piv - 1] = np.tril(c[:, :rank])
        del c  # free it before the residual, which is built in place
        res = f @ f.conj().T
        res -= rho
        resid = math.sqrt(2.0) * np.linalg.norm(res[np.tri(d2, dtype=bool)])
        if not resid <= 1e-10:
            low = eigh(rho, eigvals_only=True, subset_by_index=[0, 0])[0]
            raise ValidationError(f"density has negative eigenvalue {low:.3e} "
                                  f"(factor residual {resid:.3e})")
        u, sig, _ = np.linalg.svd(f, full_matrices=False)
        eig = tuple(zip((sig**2).tolist(), _freeze(u.T.copy())))
        return cls(dim, components=eig, density=_freeze(rho))

    # -- views ---------------------------------------------------------------

    @property
    def components(self):
        """(weight, ket) pairs when the state was built from kets, else None."""
        return self._mixture if self._from_kets else None

    @property
    def density(self) -> np.ndarray:
        if self._density is None:
            if self.dim > _DENSE_DIM_LIMIT:
                raise ValidationError(
                    f"refusing to materialize a dense {self.dim**2}x{self.dim**2} "
                    f"density; per-mode dim is limited to {_DENSE_DIM_LIMIT}"
                )
            d2 = self.dim * self.dim
            rho = np.zeros((d2, d2), dtype=complex)
            for w, v in self._mixture:
                rho += w * np.outer(v, v.conj())
            self._density = _freeze(rho)
        return self._density


# ---------------------------------------------------------------------------
# truncation sizing
# ---------------------------------------------------------------------------

_log_fact = np.zeros(1)  # log(j!) = math.lgamma(j + 1) for j < size, grown on demand


def _log_factorial(n) -> np.ndarray:
    """log(n!) of a non-negative integer array, read from a cached table."""
    global _log_fact
    n = np.asarray(n)
    size = int(n.max(initial=0)) + 1
    if size > _log_fact.size:
        size = max(size, 2 * _log_fact.size)
        new = np.fromiter(map(math.lgamma, range(_log_fact.size + 1, size + 1)), float)
        _log_fact = np.concatenate((_log_fact, new))
    return _log_fact[n]


@lru_cache(maxsize=16)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@np.errstate(divide="ignore")  # a node at u = -1 has zero density
def _poisson_tail(k: int, lam: float) -> float:
    """P(N > k) for N ~ Poisson(lam) and k >= 0.

    Below k = 100 the pmf is summed on the smaller side of k, from its term
    next to k (formed in logs) by the ratios of neighbouring terms.  From
    k = 100 on the tail is P(T < lam) for T ~ Gamma(k + 1): with t = k(1 + u)
    its density is C exp(-k (u - log1p u)), C = sqrt(k / 2 pi) e^(-stirlerr k),
    and Gauss-Legendre integrates it over the smaller side of u = lam/k - 1,
    as far as the integrand falls by e^-40 (Numerical Recipes' gammpapprox).
    Against mpmath it is within 4e-13 relative for lam <= 1e5 and tails down
    to 1e-300.  Near 1e-12 it is within 2e-10 up to lam = 1e12 and 4e-7 at
    8e18, as u - log1p(u) cancels.
    """
    if lam == 0.0:
        return 0.0
    if k < 100:
        below = lam < k + 1
        j, part = (k + 1 if below else k), 0.0
        term = math.exp(j * math.log(lam) - lam - math.lgamma(j + 1.0))
        while term > 1e-17 * part:
            part += term
            term *= lam / (j + 1) if below else j / lam
            j += 1 if below else -1
        return part if below else 1.0 - part
    kf = float(k)
    u0 = (lam - kf) / kf
    if u0 == -1.0:  # lam is below the last digit of k: the tail is below 1e-1600
        return 0.0
    # widths where k (phi(u) - phi(u0)) >= _TAIL_SPAN surely holds, with
    # phi(u) = u - log1p(u) and g = |phi'(u0)|: phi'' >= 1 on (-1, 0], and
    # phi(u0 + w) - phi(u0) >= max(g w, w^2 / (2 (1 + w))) above u0 >= 0
    below = u0 < 0.0
    g, c = abs(u0) / (1.0 + u0), _TAIL_SPAN / kf
    if below:
        width = min(1.0 + u0, 2.0 * c / (g + math.sqrt(g * g + 2.0 * c)))
    else:
        width = min(c / g if g else math.inf, c + math.sqrt(c * c + 2.0 * c))
    x, w = _gl_nodes(_TAIL_NODES)
    u = u0 + (0.5 * width) * (x - 1.0 if below else x + 1.0)
    stirlerr = (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * kf * kf)) / (kf * kf)) / kf
    logc = 0.5 * math.log(kf / (2.0 * math.pi)) - stirlerr
    part = 0.5 * width * float(w @ np.exp(logc - kf * (u - np.log1p(u))))
    return part if below else 1.0 - part


def _poisson_dim(lam: float) -> int:
    """Smallest dim whose discarded Poisson tail P(N > dim - 1) is below 1e-12."""
    lo, hi = 0, 1  # dim 0 discards everything; double hi until it holds
    while not _poisson_tail(hi - 1, lam) < _TAIL_TOL:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _poisson_tail(mid - 1, lam) < _TAIL_TOL else (mid, hi)
    return hi


def required_dim(max_modulus: float) -> int:
    """Fock-space size that comfortably holds amplitudes up to a modulus.

    The larger of (M + 3)^2 + 10 and the smallest dim that keeps the
    discarded coherent (Poisson(M^2)) tail below 1e-12; the quadratic
    rule wins up to M = 10.49.  Callers comparing against closed forms at
    tolerances tighter than ~1e-6 should size with the relevant
    *displaced* modulus instead (the amplitude of the state as seen from
    the evaluation point).  A modulus whose size is no valid array index
    raises `TruncationError`.
    """
    m = float(max_modulus)
    if not math.isfinite(m) or m < 0.0:
        raise ValidationError(f"modulus must be finite and >= 0, got {max_modulus!r}")
    if not m < _MAX_MODULUS:
        raise TruncationError(f"no Fock dim can be sized for modulus {m:.4g}")
    dim = int(math.ceil((m + 3.0) ** 2 + 10.0))
    return dim if _poisson_tail(dim - 1, m * m) < _TAIL_TOL else _poisson_dim(m * m)


# ---------------------------------------------------------------------------
# single-mode building blocks
# ---------------------------------------------------------------------------

def fock_vector(n: int, dim: int) -> np.ndarray:
    if not 0 <= n < dim:
        raise ValidationError(f"need 0 <= n < dim, got n={n}, dim={dim}")
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return v


def coherent_vector(beta: complex, dim: int) -> np.ndarray:
    """Normalized truncated coherent state |beta>.

    The Poisson weight discarded by the truncation must stay below 1e-12;
    otherwise a TruncationError reports the dim that would suffice.
    """
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    beta = complex(beta)
    if not cmath.isfinite(beta):
        raise ValidationError(f"amplitude must be finite, got {beta!r}")
    if not abs(beta) < _MAX_MODULUS:
        raise TruncationError(f"no Fock dim can hold |beta|={abs(beta):.4g}")
    lam = abs(beta) ** 2
    tail = _poisson_tail(dim - 1, lam)
    if not tail < _TAIL_TOL:
        raise TruncationError(
            f"dim={dim} keeps a coherent tail of {tail:.3e} for |beta|={abs(beta):.4g}; "
            f"need dim >= {_poisson_dim(lam)}"
        )
    n = np.arange(dim)
    if lam == 0.0:
        return fock_vector(0, dim)
    # exp(n*log|b| - lgamma(n+1)/2 - |b|^2/2) with the phase reattached
    logmag = n * math.log(abs(beta)) - 0.5 * _log_factorial(n) - lam / 2.0
    v = np.exp(logmag) * np.exp(1j * n * math.atan2(beta.imag, beta.real))
    v /= np.linalg.norm(v)
    return v


@lru_cache(maxsize=128)
def _laguerre_grids(rows: int, cols: int):
    m = np.arange(rows)[:, None]
    n = np.arange(cols)[None, :]
    p = np.minimum(m, n)
    k = np.abs(m - n)
    logratio = 0.5 * (_log_factorial(p) - _log_factorial(p + k))
    upper = m < n  # the branch that picks up (-xi*)^(n-m)
    for arr in (p, k, logratio, upper):
        arr.setflags(write=False)
    return p, k, logratio, upper


def _displacement_block(xis: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """<m|D(xi)|n> for m < rows, n < cols, batched over xi.

    Closed form: for m >= n
        sqrt(n!/m!) * xi^(m-n) * exp(-|xi|^2/2) * L_n^{m-n}(|xi|^2)
    and the m < n branch swaps the roles with xi -> -conj(xi).
    """
    from scipy.special import eval_genlaguerre  # only the dense reference kernel needs it

    xis = np.asarray(xis, dtype=complex).reshape(-1)
    p, k, logratio, upper = _laguerre_grids(rows, cols)
    x = (np.abs(xis) ** 2)[:, None, None]
    out = np.empty((xis.size, rows, cols), dtype=complex)
    nz = x[:, 0, 0] > 0.0
    if np.any(~nz):
        out[~nz] = np.eye(rows, cols, dtype=complex)[None]
    if np.any(nz):
        xz = x[nz]
        lag = eval_genlaguerre(p, k, xz)
        with np.errstate(divide="ignore"):
            lx = np.log(xz)
        klx = np.where(k == 0, 0.0, 0.5 * k * lx)
        mag = np.exp(logratio + klx - xz / 2.0) * lag
        theta = np.angle(xis[nz])[:, None, None]
        sgn = np.where(upper, -1.0, 1.0)
        parity = np.where(upper, np.power(-1.0, k), 1.0)
        out[nz] = mag * parity * np.exp(1j * (k * sgn) * theta)
    return out


def _kernel_diagonal(s: float, dim: int) -> np.ndarray:
    """Diagonal of ((s+1)/(s-1))^n, with exact special cases."""
    n = np.arange(dim)
    if s == 0.0:
        return np.power(-1.0, n)  # exact alternating signs
    if s == -1.0:
        r = np.zeros(dim)
        r[0] = 1.0
        return r
    return np.power((s + 1.0) / (s - 1.0), n)


@np.errstate(over="ignore", invalid="ignore")  # non-finite entries are refused below
def kernel(alpha: complex, s, dim: int) -> TruncatedOperator:
    """Kernel (transiting) operator of the s-family at phase-space point alpha.

    t(alpha, s) = 2/(1-s) * D(alpha) ((s+1)/(s-1))^n D(alpha)+.
    At s = -1 it is the coherent projector |alpha><alpha|, at s = 0 twice
    the displaced parity operator.  Entries that come out non-finite, e.g.
    where a Laguerre factor overflows, raise TruncationError.
    """
    sv = _order_value(s)
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    pref = 2.0 / (1.0 - sv)
    r = _kernel_diagonal(sv, dim)
    if complex(alpha) == 0:
        return TruncatedOperator(dim, np.diag(pref * r).astype(complex))
    d = _displacement_block(np.array([alpha]), dim, dim)[0]
    t = pref * ((d * r[None, :]) @ d.conj().T)
    if not np.all(np.isfinite(t)):
        raise TruncationError(f"kernel entries at |alpha|={abs(alpha):.4g} are not finite")
    return TruncatedOperator(dim, t)


# ---------------------------------------------------------------------------
# two-mode composites
# ---------------------------------------------------------------------------

def two_mode_coherent_density(beta: complex, gamma: complex, dim: int) -> TwoModeState:
    """Pure product coherent state |beta, gamma><beta, gamma|."""
    vx = coherent_vector(beta, dim)
    vy = coherent_vector(gamma, dim)
    return TwoModeState.from_kets([(1.0, np.kron(vx, vy))], dim)


def state_components(state: TwoModeState) -> tuple[tuple[float, np.ndarray], ...]:
    """Mixture decomposition (weight, ket) of any state.

    The stored kets, or the orthonormal factor columns (eigenpairs of rho
    within 1e-10) that `from_density` froze on; every call returns the same tuple.
    """
    return state._mixture
