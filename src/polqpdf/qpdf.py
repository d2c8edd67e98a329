"""Quasi-probability distributions of the s-ordered kernel family.

Two evaluation routes are kept deliberately separate:

* `qpdf_coherent_closed` is the analytic product-Gaussian value for a
  two-mode coherent state, exact for all -1 <= s < 1;
* `qpdf_trace` is the brute-force trace of the state against the
  two-mode kernel: the state's own Fock coefficients are contracted
  against exact Cahill-Glauber kernel elements <m| t(alpha, s) |n>, so
  `dim` sizes only the state, never the kernel.  At s > 0 the sum
  alternates; a value whose rounding bound exceeds 1e-10, or a state
  with weight at its top level, raises `TruncationError`.

Traces whose y side is one point (`qpdf_trace`, `qpdf_trace_single`,
`plane_grid_qpdf`) contract the y mode once and stream the x mode: each
Laguerre row is dotted into per-radius sums and dropped, and no
(points, k, k) block is formed.  Trace sweeps move alpha_y with alpha_x
and still contract chunks of kernel blocks.

Tests and the CLI `oracle` command compare the two; nothing in this
module ever substitutes one for the other.

Values carry no 1/pi factors: normalization is (1/pi) * integral(W) = 1
per mode, and the 1/pi is applied by whoever integrates (see
`normalization_check`).  Sweeps return `QpdfGrid`, which the CLI
serializes to CSV.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import fock
from .errors import TruncationError, ValidationError
from .fock import (TwoModeState, _gl_nodes, _laguerre_grids, _log_factorial, _order_value,
                   required_dim)
from .poincare import PolarizationIndex

__all__ = [
    "AxisKind",
    "Method",
    "GridMeta",
    "QpdfGrid",
    "PlaneQuadrature",
    "NormalizationResult",
    "MEASURE_NOTE",
    "qpdf_trace",
    "qpdf_trace_single",
    "qpdf_coherent_closed",
    "sweep_phase",
    "sweep_modulus",
    "plane_grid_qpdf",
    "normalization_check",
    "poincare_sphere_qpdf",
]

_IMAG_TOL = 1e-9
# supports keep the levels whose reduced populations exceed these squared.
# Traces are held to 1e-9, which trimming at 1e-9 only just met; the
# normalization integral is held to 1e-4, and is 1.35-1.5x slower at 1e-12
_TRACE_TRIM = 1e-12
_TRIM_TOL = 1e-9
# at s > 0, values whose rounding bound exceeds this are refused
_CANCEL_TOL = 1e-10
# elements per block of kernel rows or, in trace sweeps, of kernel elements;
# streamed traces stack all their Laguerre rows below it and stream them above
_BLOCK_CAP = 250_000
# trace sweeps build their coherent pair as one dim^2 ket (144 MB at this dim)
_SWEEP_DIM_LIMIT = 3000
# polar rule of the sphere section integral: Gauss-Legendre radii, uniform angles
_SPHERE_RADII = 160
_SPHERE_ANGLES = 256

MEASURE_NOTE = "d2alpha=dRe*dIm; values carry no 1/pi factors"


class AxisKind(enum.Enum):
    PHASE = "phase_sweep"
    MODULUS = "amplitude_sweep"
    PLANE = "plane"


class Method(enum.Enum):
    CLOSED_FORM = "closed_form"
    TRACE_ORACLE = "trace_oracle"


@dataclass(frozen=True)
class GridMeta:
    """Parameters a grid was produced with (enough to reproduce it)."""

    s: float
    p: complex
    q: complex
    beta: complex
    dim_used: int | None
    method: Method
    measure: str = MEASURE_NOTE


@dataclass(frozen=True)
class QpdfGrid:
    """Sampled distribution values over one axis (or a square plane).

    For PHASE/MODULUS sweeps `values[i]` belongs to `axis_values[i]`.
    For PLANE grids the axis holds the shared Re/Im nodes and `values`
    is row-major with index i*n + j -> point axis[i] + 1j*axis[j].
    """

    axis_kind: AxisKind
    axis_values: np.ndarray
    values: np.ndarray
    meta: GridMeta

    def __post_init__(self) -> None:
        ax = np.array(self.axis_values, dtype=float)
        vals = np.array(self.values, dtype=float)
        if ax.ndim != 1 or ax.size < 2:
            raise ValidationError("axis_values must be a 1-D array of >= 2 points")
        if not np.all(np.isfinite(ax)):
            raise ValidationError("axis_values must be finite")
        if not np.all(np.diff(ax) > 0.0):
            raise ValidationError("axis_values must be strictly increasing")
        expected = ax.size * ax.size if self.axis_kind is AxisKind.PLANE else ax.size
        if vals.shape != (expected,):
            raise ValidationError(
                f"values must have length {expected} for {self.axis_kind.value}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("values must be finite")
        ax.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "axis_values", ax)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class PlaneQuadrature:
    """Tensor Gauss-Legendre rule on the square [-L, L]^2."""

    nodes_per_axis: int = 200
    half_width: float = 6.0

    def __post_init__(self) -> None:
        if self.nodes_per_axis < 2:
            raise ValidationError("nodes_per_axis must be >= 2")
        if not (math.isfinite(self.half_width) and self.half_width > 0):
            raise ValidationError("half_width must be finite and > 0")


@dataclass(frozen=True)
class NormalizationResult:
    """Outcome of the plane-integral normalization check."""

    total: float
    mode_x: float
    mode_y: float
    half_width: float
    recommended_half_width: float
    warnings: tuple[str, ...] = field(default=())

    @property
    def box_ok(self) -> bool:
        return self.half_width >= self.recommended_half_width


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def qpdf_coherent_closed(beta: complex, gamma: complex, alpha_x, alpha_y, s):
    """Distribution of |beta, gamma> at (alpha_x, alpha_y), closed form.

    (2/(1-s))^2 * exp(-2(|ax-beta|^2 + |ay-gamma|^2)/(1-s)).  Vectorized
    over alpha_x/alpha_y.
    """
    sv = _order_value(s)
    if not (cmath.isfinite(complex(beta)) and cmath.isfinite(complex(gamma))):
        raise ValidationError(f"amplitudes must be finite, got {beta!r}, {gamma!r}")
    kappa = 2.0 / (1.0 - sv)
    ax = np.asarray(alpha_x, dtype=complex)
    ay = np.asarray(alpha_y, dtype=complex)
    val = kappa**2 * np.exp(
        -kappa * (np.abs(ax - complex(beta)) ** 2 + np.abs(ay - complex(gamma)) ** 2)
    )
    if val.ndim == 0:
        return float(val)
    return val


# ---------------------------------------------------------------------------
# brute-force traces
# ---------------------------------------------------------------------------

@np.errstate(divide="ignore")  # empty levels have log population -inf
def _support(pops: np.ndarray, sv: float, trim: float) -> int:
    """Levels 0..k-1 that hold every reduced population above trim^2.

    At s > 0 the kernel weights level n by |r|^n, and so are the populations
    (in logs); a state with weight at its top level dim - 1 is refused there.
    """
    logw = np.log(pops.clip(0.0))
    if sv > 0.0:
        logw += np.arange(pops.size) * math.log((1.0 + sv) / (1.0 - sv))
    k = 1 + int(np.flatnonzero(logw > 2.0 * math.log(trim)).max(initial=0))
    if sv > 0.0 and k == pops.size:
        raise TruncationError(
            f"s={sv:g}: the state keeps weight {pops[-1]:.3e} at its top level "
            f"{k - 1}, which the kernel amplifies by |r|^n; raise dim"
        )
    return k


def _coefficients(state: TwoModeState, sv: float, trim: float):
    """The state's own Fock coefficients on its trimmed support.

    Returns (coef, sx, sy, pops): coef is a list of (w, V) with V the
    n_x x n_y coefficient matrix of each ket, or for a density rho viewed
    as (x, y, x', y'); pops holds the populations of the levels (n_x, n_y).
    """
    d = state.dim
    if state.components is not None:
        coef = [(w, v.reshape(d, d)) for w, v in state.components]
        pops = sum(w * np.abs(v) ** 2 for w, v in coef)
    else:
        coef = state.density.reshape(d, d, d, d)
        pops = np.einsum("mnmn->mn", coef).real
    sx = _support(pops.sum(axis=1), sv, trim)
    sy = _support(pops.sum(axis=0), sv, trim)
    if isinstance(coef, list):
        return [(w, v[:sx, :sy]) for w, v in coef], sx, sy, pops
    return coef[:sx, :sy, :sx, :sy], sx, sy, pops


@lru_cache(maxsize=128)
def _recurrence(k: int):
    """2n + 1 + j, n + j and n + 1 over n < k - 1, j < k: the integers of
    `_laguerre_rows`' recurrence."""
    n, j = np.arange(k - 1, dtype=np.int32)[:, None, None], np.arange(k, dtype=np.int32)[:, None]
    tables = 2 * n + 1 + j, n + j, n + 1
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _laguerre_rows(a2: np.ndarray, sv: float, k: int, y0=1.0):
    """Rows y_n[j, p] = r^n L_n^(j)(4|a_p|^2/(1-s^2)) for n < k, valid for j < k - n.

    The three-term Laguerre recurrence in n times r^(n+1), with
    r = (s+1)/(s-1): r x = -kappa^2 |a|^2, so nothing diverges as s -> -1.
    Row n is yielded before row n + 1 is formed from it and row n - 1, so a
    caller that drops each row keeps only two alive.  The schedule follows
    the input size.  When the k x k coefficients of every point fit
    _BLOCK_CAP, they are formed at once and rows keep all k entries: over
    few points numpy's cost per call, not the arithmetic, sets the time.
    Otherwise rows shrink to the j < k - n entries that m + n < k reads, and
    each row's coefficients are formed as it goes.  The arithmetic of every
    entry is the same either way.  a2 holds |a|^2 per point, y0 scales its rows.
    """
    kappa, r = 2.0 / (1.0 - sv), (sv + 1.0) / (sv - 1.0)
    j1, nj, n1 = _recurrence(k)
    rj, d = r * j1, r * r * nj / n1
    ka2 = kappa**2 * a2
    c = (rj + ka2) / n1 if a2.size * k * k <= _BLOCK_CAP else None
    prev, y = np.zeros((k, a2.size)), np.ones((k, a2.size)) * y0
    for i in range(k - 1):
        yield y
        if c is not None:
            prev, y = y, c[i] * y - d[i] * prev
        else:
            m = k - i - 1
            prev, y = y[:m], (rj[i, :m] + ka2) / (i + 1) * y[:m] - d[i, :m] * prev[:m]
    yield y


def _log_radial(rho: np.ndarray, sv: float, k: int) -> np.ndarray:
    """log u[d, rho] for d < k, u = kappa^(d+1) e^(-kappa rho^2) rho^d / sqrt(d!):
    the radial factor of the elements <n + d| t |n>, shape (k, radii)."""
    kappa, d = 2.0 / (1.0 - sv), np.arange(k)[:, None]
    return ((d + 1) * math.log(kappa) - _log_factorial(d) / 2 - kappa * rho**2
            + np.where(d == 0, 0.0, d * np.log(rho)))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _kernel_block(points, sv: float, k: int) -> np.ndarray:
    """<m| t(alpha, s) |n> for m, n < k at each point, shape (points, k, k).

    Cahill-Glauber: for m >= n, with kappa = 2/(1-s) and r = (s+1)/(s-1),
    kappa e^(-kappa|a|^2) sqrt(n!/m!) (kappa a)^(m-n) r^n L_n^(m-n)(4|a|^2/(1-s^2)),
    and m < n by Hermitian conjugation, formed in logs.  At s = -1 the
    amplitudes c of t = c c^H come back instead, shape (points, k).
    Non-finite elements, e.g. where r^n L_n overflows, raise TruncationError.
    """
    a = np.asarray(points, dtype=complex).reshape(-1, 1, 1)
    a2, loga = np.abs(a) ** 2, np.log(np.abs(a))
    ph = np.exp(1j * np.arange(k) * np.angle(a[:, 0]))  # e^(i n arg a)
    if sv == -1.0:
        n = np.arange(k)
        out = ph * np.exp(np.where(n == 0, 0.0, n * loga[:, 0]) - _log_factorial(n) / 2
                         - a2[:, 0] / 2)
    else:
        kappa = 2.0 / (1.0 - sv)
        p, dk, logratio, _ = _laguerre_grids(k, k)
        y = np.zeros((a.size, k, k))  # y[:, n, j]; j >= k - n is never read
        for n, row in enumerate(_laguerre_rows(a2.reshape(-1), sv, k)):
            y[:, n, :len(row)] = row.T
        y = y[:, p, dk]
        logmag = (logratio + (dk + 1) * math.log(kappa) - kappa * a2
                  + np.where(dk == 0, 0.0, dk * loga) + np.log(np.abs(y)))
        out = np.sign(y) * np.exp(logmag) * (ph[:, :, None] * ph[:, None, :].conj())
    if not np.isfinite(out).all():
        raise TruncationError("kernel elements at these points are not finite")
    return out


def _chunks(n: int, per_point: int):
    """Slices of n points whose temporaries hold about _BLOCK_CAP elements."""
    step = max(1, _BLOCK_CAP // per_point)
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _y_first(coef, ty: np.ndarray) -> np.ndarray:
    """g[p, a, b] = sum rho[a, n, b, n'] ty[p, n', n]: the y mode contracted first."""
    if ty.ndim == 2:  # coherent amplitudes: t = c c^H
        ty = ty[:, :, None] * ty[:, None, :].conj()
    if isinstance(coef, list):
        return sum(w * (v @ ty.swapaxes(1, 2) @ v.conj().T) for w, v in coef)
    return np.tensordot(ty, coef, axes=([1, 2], [3, 1]))


def _x_dot(g: np.ndarray, tx: np.ndarray) -> np.ndarray:
    """sum g[p, a, b] tx[p, b, a] per x point; one g may serve all points."""
    if tx.ndim == 2:  # coherent amplitudes: t = c c^H
        return np.einsum("pa,pa->p", (tx.conj()[:, None] @ g)[:, 0], tx)
    return (tx.reshape(len(tx), 1, -1) @ g.swapaxes(1, 2).reshape(len(g), -1, 1))[:, 0, 0]


def _y_side(coef, ty, sv: float, my=None):
    """What `_contract` needs of ty: the y mode contracted first, at s > 0
    the same contraction of |rho| against the magnitudes my (default |ty|),
    and ty's size.  One result may serve every chunk of x points."""
    if sv <= 0.0:
        return _y_first(coef, ty), None, ty.shape[-1]
    acoef = [(w, np.abs(v)) for w, v in coef] if isinstance(coef, list) else np.abs(coef)
    return _y_first(coef, ty), _y_first(acoef, np.abs(ty) if my is None else my), ty.shape[-1]


def _contract(ys, tx, sv: float, mx=None) -> np.ndarray:
    """Tr[rho (tx (x) ty)] per point, real part, with ys = _y_side(rho, ty, s).

    At s > 0 the magnitude contraction, finished against mx (default |tx|),
    bounds the rounding (see `_checked`).
    """
    g, ag, ny = ys
    mags = _x_dot(ag, np.abs(tx) if mx is None else mx).real if sv > 0.0 else None
    return _checked(_x_dot(g, tx), mags, tx.shape[-1] + ny, sv)


@lru_cache(maxsize=128)
def _stream_tables(k: int):
    """Tables of `_x_stream` over (n, d), n + d < k: the flat positions of
    g[n, n + d] and g[n + d, n] in a k x k g, their weights
    sqrt(n! d!/(n + d)!) (0 for n + d >= k, and for the second at d = 0),
    and the mask n + d >= k."""
    n, d = np.arange(k)[:, None], np.arange(k)
    m, beyond = np.minimum(n + d, k - 1), n + d >= k
    w = np.exp((_log_factorial(n) + _log_factorial(d) - _log_factorial(n + d)) / 2) * ~beyond
    idx = np.stack((n * k + m, m * k + n)).astype(np.int32)
    tables = idx, np.stack((w, w * (d > 0))), beyond
    for arr in tables:
        arr.setflags(write=False)
    return tables


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _x_stream(ys, points, sv: float, k: int):
    """sum_ab g[a, b] <b| t(alpha_p, s) |a> per point for one shared g (s > -1),
    and at s > 0 the same sum of ag |t| (else None), with ys = _y_side(...).

    No kernel element is formed.  The rows y_n = r^n L_n^(d) run once per
    distinct radius rho: P[d, rho] and Q[d, rho] sum sqrt(n! d!/(n + d)!)
    y_n[d, rho] times g[n, n + d] and g[n + d, n] over n, and a point takes
    sum_d u[d, rho] (e^(i d arg alpha) P + e^(-i d arg alpha) Q), u from
    `_log_radial` combined with P and Q in logs.  Rows that fit _BLOCK_CAP
    are stacked and contracted at once, others dotted one by one and
    dropped.  Non-finite values raise TruncationError.
    """
    g, ag, _ = ys
    idx, wts, beyond = _stream_tables(k)
    gw = g.reshape(-1)[idx] * wts  # (2, n, d): the two diagonals, weighted
    c = np.concatenate((gw.real, gw.imag))  # re P, re Q, im P, im Q
    a = (ag.reshape(-1)[idx] * wts).sum(axis=0) if sv > 0.0 else None
    rho, inv = np.abs(points), np.zeros(1, int)
    if rho.size > 1:
        rho, inv = np.unique(rho, return_inverse=True)
    rows = _laguerre_rows(rho**2, sv, k)
    if rho.size * k * k <= _BLOCK_CAP:  # rows come with all k entries
        y = np.empty((k, k, rho.size))
        for n, row in enumerate(rows):
            y[n] = row
        y[beyond] = 0.0  # entries n + d >= k are never read, and may overflow
        sums = np.einsum("cnd,ndr->cdr", c, y)
        asum = None if a is None else np.einsum("nd,ndr->dr", a, np.abs(y))
    else:
        sums, asum = np.zeros((4, k, rho.size)), None if a is None else np.zeros((k, rho.size))
        for n, y in enumerate(rows):
            sums[:, :len(y)] += c[:, n, :len(y), None] * y
            if a is not None:
                asum[:len(y)] += a[n, :len(y), None] * np.abs(y)
    logu = _log_radial(rho, sv, k)
    pq = np.exp(logu + np.log(sums[:2] + 1j * sums[2:]))[:, :, inv]
    ph = np.exp(1j * np.arange(k)[:, None] * np.angle(points))  # e^(i d arg alpha)
    vals = np.einsum("dp,dp->p", pq[0], ph) + np.einsum("dp,dp->p", pq[1], ph.conj())
    mags = None if a is None else np.exp(logu + np.log(asum)).sum(axis=0)[inv]
    if not (np.isfinite(vals).all() and (mags is None or np.isfinite(mags).all())):
        raise TruncationError("kernel elements at these points are not finite")
    return vals, mags


def _trace_shared(ys, points, sv: float, k: int) -> np.ndarray:
    """`_contract` of one shared y side against the x points on k levels:
    streamed at s > -1, the rank-1 amplitudes at s = -1."""
    if sv == -1.0:
        return _contract(ys, _kernel_block(points, sv, k), sv)
    return _checked(*_x_stream(ys, points, sv, k), k + ys[2], sv)


def _checked(vals: np.ndarray, mags, size: int, sv: float) -> np.ndarray:
    """The real parts of trace values, refused where they cannot be trusted.

    At s > 0, mags (the contraction over magnitudes, per point) bounds the
    rounding by eps * size * max(mags): a value it cannot hold to 1e-10
    raises TruncationError.  The imaginary residue must stay below 1e-9.
    """
    if sv > 0.0:
        err = np.finfo(float).eps * size * np.max(mags)
        if not err <= _CANCEL_TOL:
            raise TruncationError(
                f"s={sv:g}: the alternating Fock sum cannot be held to {_CANCEL_TOL:g} "
                f"at these points (cancellation error up to {err:.1e})"
            )
    worst = float(np.max(np.abs(vals.imag)))
    if worst > _IMAG_TOL:
        raise ValidationError(
            f"trace has imaginary residue {worst:.3e}; state or s is unphysical"
        )
    return vals.real


def _trace_points(state: TwoModeState, axs, ays, sv: float) -> np.ndarray:
    """Tr[rho T(ax, ay, s)] per point.

    A single ay is shared by all points: the y mode is contracted once and
    the x mode is streamed (`_trace_shared`), with no (points, k, k) block.
    Sweeps move ay with ax, so they contract chunks of kernel blocks.
    """
    coef, sx, sy, _ = _coefficients(state, sv, _TRACE_TRIM)
    axs, ays = (np.asarray(z, dtype=complex).reshape(-1) for z in (axs, ays))
    if ays.size == 1:
        return _trace_shared(_y_side(coef, _kernel_block(ays, sv, sy), sv), axs, sv, sx)
    out = []
    for idx in _chunks(axs.size, max(sx, sy) ** 2):
        ys = _y_side(coef, _kernel_block(ays[idx], sv, sy), sv)
        out.append(_contract(ys, _kernel_block(axs[idx], sv, sx), sv))
    return np.concatenate(out)


def qpdf_trace(state: TwoModeState, alpha_x: complex, alpha_y: complex, s) -> float:
    """Tr[rho T(alpha_x, alpha_y, s)] for a state in a truncated Fock space.

    Contracts the state's Fock coefficients on the levels whose reduced
    populations exceed 1e-24 against exact kernel elements, so `dim`
    sizes only the state, and a zero-padded copy gives the same value at
    any point.  The imaginary residue must stay below 1e-9.  At s > 0 a state
    with weight at its top level, or a value whose rounding bound exceeds
    1e-10, raises `TruncationError`.
    """
    sv = _order_value(s)
    return float(_trace_points(state, [complex(alpha_x)], [complex(alpha_y)], sv)[0])


def qpdf_trace_single(rho: np.ndarray, alpha: complex, s) -> float:
    """Single-mode W(alpha, s) = Tr[rho t(alpha, s)] for a dense rho.

    The one-mode case of the `qpdf_trace` contraction, with its support
    rule (populations above 1e-24, weighted by |r|^n at s > 0) and refusals.
    """
    sv = _order_value(s)
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"rho must be square, got {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValidationError("rho entries must be finite")
    k = _support(np.diagonal(rho).real, sv, _TRACE_TRIM)
    coef = rho[:k, None, :k, None]
    ys = _y_side(coef, np.ones((1, 1, 1)), sv)
    return float(_trace_shared(ys, np.array([complex(alpha)]), sv, k)[0])


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _sweep(kind: AxisKind, axis, axs, beta, q, p, sv, method) -> QpdfGrid:
    """Values along alpha_y = p * alpha_x for the pair |beta, q*beta>."""
    pv, qv, bv = complex(p), complex(q), complex(beta)
    gamma = qv * bv
    ays = pv * axs
    dim_used = None
    if method is Method.CLOSED_FORM:
        vals = qpdf_coherent_closed(bv, gamma, axs, ays, sv)
    else:
        # size for the displaced moduli |alpha| + |amplitude| per mode, grown
        # by sqrt|r| at s > 0, where the kernel weights level n by |r|^n
        grow = max(1.0, math.sqrt(abs((1.0 + sv) / (1.0 - sv))))
        dim_used = required_dim(grow * max(float(np.max(np.abs(axs))) + abs(bv),
                                           float(np.max(np.abs(ays))) + abs(gamma)))
        if dim_used > _SWEEP_DIM_LIMIT:
            raise TruncationError(f"s={sv:g}: this trace sweep needs dim={dim_used}, above "
                                  f"the limit {_SWEEP_DIM_LIMIT} of its dim^2 ket")
        state = fock.two_mode_coherent_density(bv, gamma, dim_used)
        vals = _trace_points(state, axs, ays, sv)
    return QpdfGrid(kind, axis, vals, GridMeta(sv, pv, qv, bv, dim_used, method))


def sweep_phase(
    beta: complex,
    q: complex,
    p: complex,
    modulus: float,
    s,
    n_points: int = 512,
    method: Method = Method.CLOSED_FORM,
) -> QpdfGrid:
    """Scan arg(alpha_x) over [0, 2*pi) at fixed |alpha_x| = modulus."""
    sv = _order_value(s)
    if not (math.isfinite(modulus) and modulus >= 0):
        raise ValidationError(f"modulus must be finite and >= 0, got {modulus}")
    if n_points < 2:
        raise ValidationError("n_points must be >= 2")
    axis = np.arange(n_points) * (2.0 * math.pi / n_points)
    return _sweep(AxisKind.PHASE, axis, modulus * np.exp(1j * axis), beta, q, p, sv,
                  method)


def sweep_modulus(
    beta: complex,
    q: complex,
    p: complex,
    phase: float,
    s,
    max_modulus: float = 8.0,
    n_points: int = 512,
    method: Method = Method.CLOSED_FORM,
) -> QpdfGrid:
    """Scan |alpha_x| over [0, max_modulus] at fixed arg(alpha_x) = phase."""
    sv = _order_value(s)
    if not (math.isfinite(max_modulus) and max_modulus > 0):
        raise ValidationError(f"max_modulus must be finite and > 0, got {max_modulus}")
    if n_points < 2:
        raise ValidationError("n_points must be >= 2")
    axis = np.linspace(0.0, float(max_modulus), n_points)
    axs = axis * complex(math.cos(phase), math.sin(phase))
    return _sweep(AxisKind.MODULUS, axis, axs, beta, q, p, sv, method)


def plane_grid_qpdf(
    state: TwoModeState,
    s,
    half_width: float,
    n_points: int = 64,
    alpha_y: complex = 0j,
) -> QpdfGrid:
    """Trace-route values on an n x n grid in the alpha_x plane.

    alpha_y is held fixed; values are row-major over (Re, Im) nodes.
    """
    sv = _order_value(s)
    if not (math.isfinite(half_width) and half_width > 0):
        raise ValidationError("half_width must be finite and > 0")
    if n_points < 2:
        raise ValidationError("n_points must be >= 2")
    axis = np.linspace(-float(half_width), float(half_width), n_points)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    pts = (re + 1j * im).reshape(-1)
    vals = _trace_points(state, pts, [complex(alpha_y)], sv)
    meta = GridMeta(sv, 0j, 0j, complex(alpha_y), state.dim, Method.TRACE_ORACLE)
    return QpdfGrid(AxisKind.PLANE, axis, vals, meta)


# ---------------------------------------------------------------------------
# plane-integral normalization
# ---------------------------------------------------------------------------

def _plane_nodes(quad: PlaneQuadrature) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gl_nodes(quad.nodes_per_axis)
    L = quad.half_width
    if not math.isfinite(L * L):  # the weights L^2 w_i w_j would overflow
        raise TruncationError(f"no Fock dim can hold a box of half-width {L:.4g}")
    xs = L * x
    ws = L * w
    re, im = np.meshgrid(xs, xs, indexing="ij")
    ww = np.outer(ws, ws)
    return (re + 1j * im).reshape(-1), ww.reshape(-1)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _kernel_sums(nodes, weights, sv: float, k: int):
    """(1/pi) sum_g w_g t(alpha_g, s) as a (1, k, k) block, and at s > 0
    the same sum of |t|, which bounds its rounding (zeros otherwise).

    No kernel element is formed, and none depends on k: the block of j < k
    is this one sliced.  For m = n + d >= n the sum is
    sqrt(n! d!/m!) sum_rho u[d, rho] y_n[d, rho] over the distinct radii
    rho = |a| of the nodes: u = kappa^(d+1) e^(-kappa rho^2) rho^d / sqrt(d!),
    formed in logs (`_log_radial`), times the radius's sum of (w/pi)
    e^(i d arg a) (powers of the unit phase), and y_n = r^n L_n^(d) from
    `_laguerre_rows`: each row is dotted into the sums and dropped, over
    chunks of _BLOCK_CAP / k radii.
    Magnitude sums take sum w/pi per radius.  m < n by Hermitian conjugation.
    Non-finite sums, e.g. where r^n L_n overflows, raise TruncationError.
    """
    sums, mags = np.zeros((k, k, 2)), np.zeros((k, k))  # [n, d, re/im], [n, d]
    kappa = 2.0 / (1.0 - sv)
    rho = np.abs(nodes)
    order = np.argsort(rho, kind="stable")
    rho, w, z = rho[order], weights[order] / math.pi, np.exp(1j * np.angle(nodes[order]))
    starts = np.flatnonzero(np.r_[True, rho[1:] != rho[:-1]])  # first node of each radius
    ends = np.r_[starts[1:], rho.size]
    for idx in _chunks(starts.size, k):
        lo, hi = starts[idx][0], ends[idx][-1]
        r, wz, ph = rho[starts[idx]], w[lo:hi] + 0j, np.empty((k, starts[idx].size), complex)
        for j in range(k):  # ph[j] = sum of (w/pi) e^(i j arg a) per radius
            ph[j] = np.add.reduceat(wz, starts[idx] - lo)
            wz *= z[lo:hi]
        # at s = -1 the rows grow like e^(kappa rho^2); half of e^(-kappa rho^2) moves in
        h = kappa * r**2 / 2 if sv == -1.0 else 0.0
        u = np.exp(_log_radial(r, sv, k) + h)
        uri = np.stack(((u * ph).real, (u * ph).imag), axis=1)  # (k, 2, radii)
        for n, y in enumerate(_laguerre_rows(r**2, sv, k, np.exp(-h))):
            m = k - n
            sums[n, :m] += (uri[:m] @ y[:m, :, None])[..., 0]
            if sv > 0.0:
                mags[n, :m] += np.einsum("dr,dr->d", u[:m] * ph[0].real, np.abs(y[:m]))
    p, dk, logratio, upper = _laguerre_grids(k, k)
    scale = np.exp(logratio + _log_factorial(dk) / 2)
    tot = sums[p, dk, 0] + 1j * np.where(upper, -1.0, 1.0) * sums[p, dk, 1]
    tot, mag = scale * tot, scale * mags[p, dk]
    if not (np.isfinite(tot).all() and np.isfinite(mag).all()):
        raise TruncationError("kernel sums over these nodes are not finite")
    return tot[None], mag[None]


def normalization_check(
    state: TwoModeState, s, quadrature: PlaneQuadrature = PlaneQuadrature()
) -> NormalizationResult:
    """Check (1/pi per mode) * integral of W over the quadrature box.

    Returns the full 4-D integral estimate together with the two
    single-mode integrals of the reduced states, from the `qpdf_trace`
    contraction against one block of quadrature-weighted kernel sums,
    formed at the larger support and sliced for each mode (the identity on
    the other mode for a mode integral).  A box smaller than
    (max amplitude + 5) is flagged, not fatal.  At s > 0 the integrals
    are refused like `qpdf_trace` values, with `TruncationError`.
    """
    sv = _order_value(s)
    nodes, weights = _plane_nodes(quadrature)
    coef, sx, sy, pops = _coefficients(state, sv, _TRIM_TOL)
    w, a = _kernel_sums(nodes, weights, sv, max(sx, sy))
    wx, ax, wy, ay = w[:, :sx, :sx], a[:, :sx, :sx], w[:, :sy, :sy], a[:, :sy, :sy]
    ys = _y_side(coef, wy, sv, ay)
    total = float(_contract(ys, wx, sv, ax)[0])
    mode_x = float(_contract(_y_side(coef, np.eye(sy)[None], sv), wx, sv, ax)[0])
    mode_y = float(_contract(ys, np.eye(sx)[None], sv)[0])
    nbar = max(float(np.arange(p.size) @ p) for p in (pops.sum(axis=1), pops.sum(axis=0)))
    recommended = math.sqrt(nbar) + 5.0
    warnings: tuple[str, ...] = ()
    if quadrature.half_width < recommended:
        warnings = (
            f"quadrature box half-width {quadrature.half_width:.3g} is below "
            f"the recommended {recommended:.3g} for this state",
        )
    return NormalizationResult(
        total=total,
        mode_x=mode_x,
        mode_y=mode_y,
        half_width=quadrature.half_width,
        recommended_half_width=recommended,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# polarization-sphere section integral
# ---------------------------------------------------------------------------

def poincare_sphere_qpdf(
    beta: complex,
    q,
    p_direction: tuple[float, float],
    s,
) -> float:
    """Integral over the alpha_x plane of the closed form of |beta, q*beta>
    on the section alpha_y = p * alpha_x.

    p_direction = (chi0, delta0) fixes p = tan(chi0/2) exp(i delta0); the
    measure is the plane one written in polar form,
    integral over r in [0, inf), phi in [0, 2pi) of W(r e^{i phi}) r.
    No 1/pi factor is applied.  chi0 = pi is a pole of p and rejected.
    """
    sv = _order_value(s)
    pv = PolarizationIndex.from_angles(*p_direction).value
    qv = complex(q)
    bv = complex(beta)
    kappa = 2.0 / (1.0 - sv)
    a_quad = kappa * (1.0 + abs(pv) ** 2)
    center = abs(1.0 + pv.conjugate() * qv) * abs(bv) / (1.0 + abs(pv) ** 2)
    r_max = center + 10.0 / math.sqrt(a_quad) + 1.0

    xr, wr = _gl_nodes(_SPHERE_RADII)
    rr = 0.5 * r_max * (xr + 1.0)
    wr = 0.5 * r_max * wr
    th = np.arange(_SPHERE_ANGLES) * (2.0 * math.pi / _SPHERE_ANGLES)
    wth = 2.0 * math.pi / _SPHERE_ANGLES
    pts = rr[:, None] * np.exp(1j * th[None, :])
    vals = qpdf_coherent_closed(bv, qv * bv, pts, pv * pts, sv)
    return float(np.einsum("rt,r,r->", vals, rr, wr)) * wth
