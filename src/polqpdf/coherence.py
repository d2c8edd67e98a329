"""Normal-ordered coherence functions and the polarization condition.

The central objects are Gamma(mx, my, nx, ny) =
Tr[rho a_x^dag^mx a_y^dag^my a_x^nx a_y^ny] (field prefactors and
propagation phases set to 1) and the operator condition a_y rho =
p a_x rho, which makes every Gamma factor through a single mode.  The
condition is exposed as a residual norm rather than a boolean so that
partially polarized states report how far off they are.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import TruncationError, ValidationError
from .fock import TwoModeState, _log_factorial, state_components
from .poincare import PolarizationIndex

__all__ = [
    "MAX_TOTAL_ORDER",
    "CoherenceOrder",
    "FactorizationCheck",
    "coherence_function",
    "polarization_residual",
    "factorization_check",
]

MAX_TOTAL_ORDER = 6


def _index_value(p) -> complex:
    if isinstance(p, PolarizationIndex):
        return p.value
    return PolarizationIndex(complex(p)).value


@dataclass(frozen=True)
class CoherenceOrder:
    """Operator powers (mx, my) on the daggered side, (nx, ny) on the other."""

    mx: int
    my: int
    nx: int
    ny: int

    def __post_init__(self) -> None:
        powers = (self.mx, self.my, self.nx, self.ny)
        if any(not isinstance(k, numbers.Integral) or k < 0 for k in powers):
            raise ValidationError(f"orders must be nonnegative integers, got {powers}")
        for name, k in zip(("mx", "my", "nx", "ny"), powers):
            object.__setattr__(self, name, int(k))
        if sum(powers) > MAX_TOTAL_ORDER:
            raise ValidationError(
                f"total order {sum(powers)} exceeds the supported {MAX_TOTAL_ORDER}"
            )

    @property
    def total(self) -> int:
        return self.mx + self.my + self.nx + self.ny

    def swapped(self) -> "CoherenceOrder":
        """Order of the Hermitian-conjugate correlation."""
        return CoherenceOrder(self.nx, self.ny, self.mx, self.my)


class FactorizationCheck(NamedTuple):
    lhs: complex
    rhs: complex
    abs_error: float


def _mode_power_operator(m: int, n: int, dim: int) -> np.ndarray:
    """a^dag^m a^n on photon numbers 0..dim-1, from its exact entries.

    <k-n+m| a^dag^m a^n |k> = sqrt(k! (k-n+m)!) / (k-n)! for k >= n.
    """
    k = np.arange(n, min(dim, dim + n - m))
    op = np.zeros((dim, dim), dtype=complex)
    op[k - n + m, k] = np.exp(
        0.5 * (_log_factorial(k) + _log_factorial(k - n + m)) - _log_factorial(k - n)
    )
    return op


def _require_order_fits(state: TwoModeState, order: CoherenceOrder) -> None:
    floor = max(order.mx + order.nx, order.my + order.ny)
    if state.dim <= floor:
        raise TruncationError(
            f"dim={state.dim} cannot resolve order {order}; need dim > {floor} "
            "plus headroom for the state's photon support"
        )


def coherence_function(state: TwoModeState, order: CoherenceOrder) -> complex:
    """Tr[rho a_x^dag^mx a_y^dag^my a_x^nx a_y^ny].

    For a coherent pair |beta, gamma> this is
    conj(beta)^mx conj(gamma)^my beta^nx gamma^ny, which the tests use
    as the oracle.
    """
    _require_order_fits(state, order)
    d = state.dim
    gx = _mode_power_operator(order.mx, order.nx, d)
    gy = _mode_power_operator(order.my, order.ny, d)
    acc = 0j
    for w, v in state_components(state):
        m = v.reshape(d, d)
        acc += w * np.vdot(m, gx @ m @ gy.T)
    return complex(acc)


def _shifted_components(state: TwoModeState, p: complex):
    """Kets (a_y - p a_x)|v>, matricized, with boundary rows masked.

    The shift pulls row dim into row dim-1, so entries with either index
    at dim-1 are not trustworthy for states occupying the top level and
    are zeroed before taking norms.
    """
    d = state.dim
    root = np.sqrt(np.arange(1.0, d))
    out = []
    for w, v in state_components(state):
        m = v.reshape(d, d)
        u = np.zeros_like(m)
        u[:, :-1] = m[:, 1:] * root[None, :]
        u[:-1, :] -= p * (m[1:, :] * root[:, None])
        u[-1, :] = 0.0
        u[:, -1] = 0.0
        out.append((w, u))
    return out


def polarization_residual(state: TwoModeState, p) -> float:
    """Frobenius norm of (a_y - p a_x) rho on the retained block.

    Zero exactly when the polarization condition a_y rho = p a_x rho
    holds there; coherent pairs |beta, p*beta> satisfy it identically.
    """
    pv = _index_value(p)
    shifted = _shifted_components(state, pv)
    comps = state_components(state)
    # ||sum_j w_j u_j v_j^dag||_F^2 via the Gram matrices of {u_j}, {v_j}
    total = 0j
    for (wj, uj), (_, vj) in zip(shifted, comps):
        for (wk, uk), (_, vk) in zip(shifted, comps):
            total += wj * wk * np.vdot(uj, uk) * np.vdot(vk, vj)
    return float(np.sqrt(max(total.real, 0.0)))


def factorization_check(
    state: TwoModeState, p, order: CoherenceOrder
) -> FactorizationCheck:
    """Both sides of the single-mode reduction of Gamma under a_y = p a_x.

    lhs is the full two-mode correlation; rhs moves every y-operator to
    the x mode at the cost of conj(p)^my p^ny.  Their difference is the
    reported diagnostic, not an assertion.
    """
    pv = _index_value(p)
    lhs = coherence_function(state, order)
    collapsed = CoherenceOrder(order.mx + order.my, 0, order.nx + order.ny, 0)
    rhs = pv.conjugate() ** order.my * pv**order.ny * coherence_function(
        state, collapsed
    )
    return FactorizationCheck(lhs, rhs, abs(lhs - rhs))
