"""Quasi-probability distributions of the s-ordered kernel family.

Two evaluation routes are kept deliberately separate:

* `qpdf_coherent_closed` is the analytic product-Gaussian value for a
  two-mode coherent state, exact for all -1 <= s < 1;
* `qpdf_trace` is the brute-force trace of the state against the
  two-mode kernel, built from exact kernel elements <u_i| t(alpha, s) |u_j>
  between the state's trimmed Schmidt vectors: `dim` sizes only the
  state, never the kernel.  At s > 0 the sum alternates, and a value
  whose estimated cancellation error exceeds 1e-10 raises `TruncationError`.

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
from scipy.linalg import block_diag
from scipy.special import i0e, logsumexp, pdtrc

from . import fock
from .errors import TruncationError, ValidationError
from .fock import (TwoModeState, _displacement_block, _kernel_diagonal, _order_value,
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
    "qpdf_polarization_section",
    "sweep_phase",
    "sweep_modulus",
    "plane_grid_qpdf",
    "normalization_check",
    "poincare_sphere_qpdf",
]

_IMAG_TOL = 1e-9
# Schmidt vectors are trimmed at these amplitudes, at s > 0 at _FINE_TRIM.
# Traces are held to 1e-9, which trimming at 1e-9 only just met; the
# normalization integral is held to 1e-4, and is 1.35-1.5x slower at 1e-12
_TRACE_TRIM = 1e-12
_TRIM_TOL = 1e-9
_FINE_TRIM = 1e-15
# at s > 0, values whose estimated cancellation error exceeds this are refused
_CANCEL_TOL = 1e-10
# points per displacement block, and the cap on elements per block
_CHUNK = 512
_BLOCK_CAP = 1_000_000
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


def qpdf_polarization_section(beta: complex, q, p, alpha_x, s):
    """Closed-form distribution on the section alpha_y = p * alpha_x.

    The state is the coherent pair (beta, q*beta); p fixes the slice of
    the four-dimensional phase space that is scanned.
    """
    pv = complex(p)
    qv = complex(q)
    ax = np.asarray(alpha_x, dtype=complex)
    return qpdf_coherent_closed(beta, qv * complex(beta), ax, pv * ax, s)


# ---------------------------------------------------------------------------
# brute-force traces
# ---------------------------------------------------------------------------

def _check_point_dim(dim: int, alpha: complex, label: str) -> None:
    need = required_dim(abs(alpha))
    if dim < need:
        raise TruncationError(
            f"dim={dim} is too small for |{label}|={abs(alpha):.4g}; need >= {need}"
        )


def _stacked_schmidt(state: TwoModeState, trim: float, sv: float):
    """Trimmed Schmidt vectors of every component of the state, per mode.

    Returns (ux, uy, m).  The columns of ux and uy are the Schmidt
    vectors of all components side by side on a common trimmed support;
    m holds w * sig_i * sig_j on each component's diagonal block, so
    Tr[rho (A x B)] = sum_ij m_ij <ux_i|A|ux_j> <uy_i|B|uy_j>.  At s > 0
    the kernel is unbounded and amplifies what trimming drops, so the
    vectors are trimmed at a few ulp there.
    """
    trim = trim if sv <= 0.0 else _FINE_TRIM
    comps = fock.state_components(state)
    mats = [np.abs(v.reshape(state.dim, state.dim)) > trim for _, v in comps]
    rx = 1 + max(int(np.flatnonzero(k.any(axis=1)).max(initial=0)) for k in mats)
    ry = 1 + max(int(np.flatnonzero(k.any(axis=0)).max(initial=0)) for k in mats)
    ux, uy, blocks = [], [], []
    for w, v in comps:
        V = v.reshape(state.dim, state.dim)[:rx, :ry]
        u, sig, wh = np.linalg.svd(V, full_matrices=False)
        keep = sig > trim
        ux.append(u[:, keep])
        uy.append(wh[keep].T)
        blocks.append(w * np.outer(sig[keep], sig[keep]))
    return np.hstack(ux), np.hstack(uy), block_diag(*blocks)


def _engine_rows(sv: float, dim_work: int) -> int:
    """Kernel diagonal length that keeps the discarded weight < 1e-18."""
    if sv == -1.0:
        return 1
    ratio = abs((sv + 1.0) / (sv - 1.0))
    if ratio < 1.0:
        cut = int(math.ceil(18.0 * math.log(10.0) / -math.log(ratio))) + 5
        return min(dim_work, cut)
    return dim_work


@np.errstate(over="ignore", invalid="ignore")  # non-finite outputs are refused below
def _kernel_elements(modes, sv: float, weights=None) -> list[np.ndarray]:
    """Exact <u_i| t(alpha, s) |u_j> per point for each (vecs, points) mode.

    Returns one (points, J, J) array per mode, or with quadrature weights
    (1/pi) sum_g w_g o_g.  At s = 0, t = 2 D(2 alpha) Pi (Royer, PRA 15,
    449, 1977) needs only support x support blocks.  Otherwise t = kappa
    D(alpha) r^n D(alpha)^+ needs the rows of D(-alpha) u that carry
    weight, which grow with the radius: each radius-sorted chunk sizes
    one block, shared by all vectors, by its outermost point.

    At s > 0 the sum alternates with |r| > 1; at displaced intensity lam
    its terms add up to amp = exp((|r|-1) lam) for Poisson photon numbers.
    With err = amp * (trim + row tail), points whose estimated error
    kappa^N sum_i err_i prod_(j != i) amp_j over the N modes exceeds 1e-10
    raise TruncationError before any block is built, and so do elements
    that come out non-finite, e.g. where a Laguerre factor overflows.
    """
    kappa = 2.0 / (1.0 - sv)
    modes = [(u, np.asarray(pts, dtype=complex).reshape(-1)) for u, pts in modes]
    # working dim per point: D(-alpha) u reaches (|alpha| + sqrt(support))^2
    work = [np.ceil((abs(p) + math.sqrt(u.shape[0]) + 2.0) ** 2) + 30 for u, p in modes]
    if not all(np.isfinite(w).all() for w in work):
        raise TruncationError("no Fock dim can hold these points: working dim overflows")
    if sv > 0.0:
        ratio = (1.0 + sv) / (1.0 - sv)
        logs = []  # (log amp, log err) per mode: in logs, nothing can overflow
        for (vecs, points), rows in zip(modes, work):
            # <u| D(a) n D(a)^+ |u> = nbar - 2 Re(conj(a) <u|a|u>) + |a|^2
            n = np.arange(vecs.shape[0])
            mean_a = np.einsum("mj,m,mj->j", vecs[:-1].conj(), np.sqrt(n[1:]), vecs[1:])
            lam = (n @ np.abs(vecs) ** 2 - 2.0 * (points.conj()[:, None] * mean_a).real
                   + np.abs(points[:, None]) ** 2).max(axis=1).clip(0.0)
            la = (ratio - 1.0) * lam
            le = la + np.log(_FINE_TRIM + pdtrc(rows - 1, ratio * lam))
            logs.append((la, le) if weights is None else
                        tuple(logsumexp(x, b=weights / math.pi) for x in (la, le)))
        total = len(modes) * math.log(kappa) + sum(la for la, _ in logs)
        terms = np.broadcast_arrays(*(total - la + le for la, le in logs))
        digits = float(np.max(logsumexp(terms, axis=0))) / math.log(10.0)
        r_overflows = max(w.max() for w in work) * math.log(ratio) >= 700.0
        if r_overflows or not digits <= math.log10(_CANCEL_TOL):
            raise TruncationError(
                f"s={sv:g}: the alternating Fock sum cannot be held to {_CANCEL_TOL:g} "
                f"at these points (estimated cancellation error 1e{digits:.1f})"
            )
    out = []
    for (vecs, points), dim_work in zip(modes, work):
        support, nvec = vecs.shape
        signs = np.power(-1.0, np.arange(support))
        order = np.argsort(np.abs(points))
        o = np.zeros((nvec, nvec) if weights is not None else (points.size, nvec, nvec),
                     dtype=complex)
        lo = 0
        while lo < points.size:
            idx = order[lo : lo + _CHUNK]
            rows = support if sv == 0.0 else _engine_rows(sv, int(dim_work[idx[-1]]))
            idx = idx[: max(1, _BLOCK_CAP // (rows * support))]
            lo += idx.size
            xi = 2.0 * points[idx] if sv == 0.0 else -points[idx]
            block = _displacement_block(xi, rows, support).reshape(-1, support)
            if sv == 0.0:
                phi = (block @ (signs[:, None] * vecs)).reshape(idx.size, rows, nvec)
                left = vecs.conj().T
            else:
                phi = (block @ vecs).reshape(idx.size, rows, nvec)
                left = phi.conj().transpose(0, 2, 1) * _kernel_diagonal(sv, rows)
            if weights is None:
                o[idx] = kappa * (left @ phi)
            else:
                o += np.tensordot(weights[idx], kappa * (left @ phi), 1) / math.pi
        if not np.isfinite(o).all():
            raise TruncationError("no Fock dim can hold these points: kernel elements "
                                  "are not finite")
        out.append(o)
    return out


def _trace_points(state: TwoModeState, axs, ays, sv: float) -> np.ndarray:
    """Tr[rho T(ax, ay, s)] per point; a single ay is shared by all points."""
    ux, uy, m = _stacked_schmidt(state, _TRACE_TRIM, sv)
    ox, oy = _kernel_elements(((ux, axs), (uy, ays)), sv)
    vals = (ox * oy).reshape(-1, m.size) @ m.reshape(-1)
    worst = float(np.max(np.abs(vals.imag)))
    if worst > _IMAG_TOL:
        raise ValidationError(
            f"trace has imaginary residue {worst:.3e}; state or s is unphysical"
        )
    return vals.real


def qpdf_trace(state: TwoModeState, alpha_x: complex, alpha_y: complex, s) -> float:
    """Tr[rho T(alpha_x, alpha_y, s)] for a state in a truncated Fock space.

    Built from exact kernel elements between the state's Schmidt vectors
    (trimmed at 1e-12), so `dim` sizes only the state; it must still meet
    the truncation rule for both moduli.  The imaginary residue must stay
    below 1e-9; the real part is returned.  At s > 0 a value whose
    estimated cancellation error exceeds 1e-10 raises `TruncationError`.
    """
    sv = _order_value(s)
    ax, ay = complex(alpha_x), complex(alpha_y)
    _check_point_dim(state.dim, ax, "alpha_x")
    _check_point_dim(state.dim, ay, "alpha_y")
    return float(_trace_points(state, [ax], [ay], sv)[0])


def qpdf_trace_single(rho: np.ndarray, alpha: complex, s) -> float:
    """Single-mode W(alpha, s) = Tr[rho t(alpha, s)] for a dense rho.

    Sums rho_ji <i| t(alpha, s) |j> over the leading k x k block of rho
    with the kernel elements and s > 0 refusal of the `qpdf_trace` engine.
    The entries left out, priced at kappa |rho_ij| sqrt(A_i A_j), sum to 1e-10
    at most, where A_n = <n| D(alpha) |r|^N D(alpha)^+ |n> is at most 1 for s <= 0, and
    for z = |r| > 1 at most e^((z-1)|alpha|^2) z^n I_0(2 sqrt(n (z-1)^2 |alpha|^2 / z)).
    """
    sv = _order_value(s)
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"rho must be square, got {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValidationError("rho entries must be finite")
    _check_point_dim(rho.shape[0], complex(alpha), "alpha")
    n, a2 = np.arange(rho.shape[0]), abs(complex(alpha)) ** 2
    log_a = np.zeros(n.size)
    if sv > 0.0:
        z = (1.0 + sv) / (1.0 - sv)
        y = 2.0 * np.sqrt(n * a2 * (z - 1.0) ** 2 / z)
        log_a = (z - 1.0) * a2 + n * math.log(z) + np.log(i0e(y)) + y
    mag = np.abs(rho)  # price / 1e-10 in logs, summed over shells n = max(i, j)
    price = np.log(mag, out=np.full(mag.shape, -np.inf), where=mag > 0.0)
    price += (log_a[:, None] + log_a) / 2.0 - math.log(_CANCEL_TOL * (1.0 - sv) / 2.0)
    shells = np.bincount(np.maximum.outer(n, n).ravel(), np.exp(price.clip(max=600.0)).ravel())
    k = max(1, int(np.count_nonzero(np.cumsum(shells[::-1]) > 1.0)))
    (o,) = _kernel_elements([(np.eye(k), [complex(alpha)])], sv)
    val = complex(np.sum(rho[:k, :k].T * o[0]))
    if abs(val.imag) > _IMAG_TOL:
        raise ValidationError(f"trace has imaginary residue {val.imag:.3e}")
    return val.real


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
        # the kernel shifts the state by the sweep point, so size the
        # space for the displaced moduli |alpha| + |amplitude| per mode
        mx, my = float(np.max(np.abs(axs))), float(np.max(np.abs(ays)))
        dim_used = max(required_dim(mx + abs(bv)), required_dim(my + abs(gamma)))
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
    _check_point_dim(state.dim, complex(abs(pts).max()), "alpha_x")
    _check_point_dim(state.dim, complex(alpha_y), "alpha_y")
    vals = _trace_points(state, pts, [complex(alpha_y)], sv)
    meta = GridMeta(sv, 0j, 0j, complex(alpha_y), state.dim, Method.TRACE_ORACLE)
    return QpdfGrid(AxisKind.PLANE, axis, vals, meta)


# ---------------------------------------------------------------------------
# plane-integral normalization
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


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


def normalization_check(
    state: TwoModeState, s, quadrature: PlaneQuadrature = PlaneQuadrature()
) -> NormalizationResult:
    """Check (1/pi per mode) * integral of W over the quadrature box.

    Returns the full 4-D integral estimate together with the two
    single-mode integrals of the reduced states.  For product states the
    total is exactly the product of the mode integrals (the tensor
    quadrature factorizes); entangled states are handled through the
    Schmidt decomposition of each component.  A box smaller than
    (max amplitude + 5) is flagged, not fatal.  At s > 0 the integral is
    refused like `qpdf_trace` values, with `TruncationError`.
    """
    sv = _order_value(s)
    nodes, weights = _plane_nodes(quadrature)
    ux, uy, m = _stacked_schmidt(state, _TRIM_TOL, sv)
    ox, oy = _kernel_elements(((ux, nodes), (uy, nodes)), sv, weights)
    # the Schmidt vectors of one component are orthonormal, so the mode
    # integrals see only the diagonal sig^2 weights
    pops = np.diag(m)
    total = float(np.sum(m * ox * oy).real)
    mode_x = float(pops @ np.diag(ox).real)
    mode_y = float(pops @ np.diag(oy).real)
    nbar = max(float(pops @ (np.arange(u.shape[0]) @ np.abs(u) ** 2)) for u in (ux, uy))
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
    """Integral of the closed-form section over the alpha_x plane.

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
    vals = qpdf_polarization_section(bv, qv, pv, pts, sv)
    return float(np.einsum("rt,r,r->", vals, rr, wr)) * wth
