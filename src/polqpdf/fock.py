"""Truncated Fock-space operators for one and two optical modes.

Everything here is dense numpy on photon numbers 0..dim-1.  Displacement
matrix elements come from the closed-form associated-Laguerre expression
with log-factorial stabilization, so no matrix exponential is needed and
individual elements stay accurate at moderate amplitudes (the builder is
safe up to dim of a few hundred; overflow in the Laguerre factor would
start near dim ~ 400).

Two-mode states use the flattened index n_x * dim + n_y.  Always go
through `TwoModeState` and the helpers here instead of doing raw index
arithmetic.

Truncation sizing: a coherent amplitude of modulus M is well represented
once dim >= (M + 3)^2 + 10 (`required_dim`); `coherent_vector` verifies
the discarded Poisson tail explicitly rather than trusting the rule.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh
from scipy.special import eval_genlaguerre, gammaln
from scipy.stats import poisson

from .errors import SingularOrderError, TruncationError, ValidationError

__all__ = [
    "OrderParameter",
    "TruncatedOperator",
    "TwoModeState",
    "required_dim",
    "annihilation",
    "creation",
    "number_operator",
    "fock_vector",
    "coherent_vector",
    "displacement",
    "kernel",
    "two_mode_coherent_density",
    "state_components",
    "reduced_modes",
]

_TAIL_TOL = 1e-12
# dense two-mode matrices above this per-mode dim are refused (memory)
_DENSE_DIM_LIMIT = 130


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

    def dagger(self) -> "TruncatedOperator":
        return TruncatedOperator(self.dim, self.entries.conj().T)


class TwoModeState:
    """A two-mode density operator, held as a mixture of (weight, ket) pairs.

    States built from kets keep those pairs and materialize the dense
    density only on demand.  `from_density` validates a density matrix and
    decomposes it once: its eigenpairs above 1e-13 become the mixture.
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
        vals, vecs = eigh(rho)
        if vals[0] < -1e-10:
            raise ValidationError(f"density has negative eigenvalue {vals[0]:.3e}")
        keep = vals > 1e-13
        eig = tuple(zip(vals[keep].tolist(), _freeze(vecs[:, keep].T.copy())))
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

def required_dim(max_modulus: float) -> int:
    """Fock-space size that comfortably holds amplitudes up to a modulus.

    (M + 3)^2 + 10 keeps the discarded coherent (Poisson) tail below
    1e-12; callers comparing against closed forms at tolerances tighter
    than ~1e-6 should size with the relevant *displaced* modulus instead
    (the amplitude of the state as seen from the evaluation point).
    """
    m = float(max_modulus)
    if not math.isfinite(m) or m < 0.0:
        raise ValidationError(f"modulus must be finite and >= 0, got {max_modulus!r}")
    return int(math.ceil((m + 3.0) ** 2 + 10.0))


# ---------------------------------------------------------------------------
# single-mode building blocks
# ---------------------------------------------------------------------------

def annihilation(dim: int) -> TruncatedOperator:
    """Photon annihilation operator, sqrt(n) on the superdiagonal."""
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1).astype(complex)
    return TruncatedOperator(dim, a)


def creation(dim: int) -> TruncatedOperator:
    return annihilation(dim).dagger()


def number_operator(dim: int) -> TruncatedOperator:
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    return TruncatedOperator(dim, np.diag(np.arange(dim, dtype=complex)))


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
    lam = abs(beta) ** 2
    tail = float(poisson.sf(dim - 1, lam))
    if not tail < _TAIL_TOL:
        needed = int(poisson.isf(_TAIL_TOL, lam)) + 1
        raise TruncationError(
            f"dim={dim} keeps a coherent tail of {tail:.3e} for |beta|={abs(beta):.4g}; "
            f"need dim >= {needed}"
        )
    n = np.arange(dim)
    if lam == 0.0:
        return fock_vector(0, dim)
    # exp(n*log|b| - lgamma(n+1)/2 - |b|^2/2) with the phase reattached
    logmag = n * math.log(abs(beta)) - 0.5 * gammaln(n + 1.0) - lam / 2.0
    v = np.exp(logmag) * np.exp(1j * n * math.atan2(beta.imag, beta.real))
    v /= np.linalg.norm(v)
    return v


@lru_cache(maxsize=128)
def _laguerre_grids(rows: int, cols: int):
    m = np.arange(rows)[:, None]
    n = np.arange(cols)[None, :]
    p = np.minimum(m, n)
    k = np.abs(m - n)
    logratio = 0.5 * (gammaln(p + 1.0) - gammaln(p + k + 1.0))
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


def displacement(xi: complex, dim: int) -> TruncatedOperator:
    """Displacement operator D(xi) = exp(xi a+ - xi* a), truncated."""
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    return TruncatedOperator(dim, _displacement_block(np.array([xi]), dim, dim)[0])


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


def kernel(alpha: complex, s, dim: int) -> TruncatedOperator:
    """Kernel (transiting) operator of the s-family at phase-space point alpha.

    t(alpha, s) = 2/(1-s) * D(alpha) ((s+1)/(s-1))^n D(alpha)+.
    At s = -1 it is the coherent projector |alpha><alpha|, at s = 0 twice
    the displaced parity operator.
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

    The stored kets, or the eigenpairs above 1e-13 that `from_density`
    froze onto a density-backed state; every call returns the same tuple.
    """
    return state._mixture


def reduced_modes(state: TwoModeState) -> tuple[np.ndarray, np.ndarray]:
    """Partial traces (rho_x, rho_y) as dense dim x dim matrices."""
    d = state.dim
    rho_x = np.zeros((d, d), dtype=complex)
    rho_y = np.zeros((d, d), dtype=complex)
    for w, v in state_components(state):
        m = v.reshape(d, d)
        rho_x += w * (m @ m.conj().T)
        rho_y += w * (m.T @ m.conj())
    return rho_x, rho_y
