"""Dense two-mode kron reference for tests.

The library contracts the state's Fock coefficients against exact
Cahill-Glauber kernel elements; these helpers build the full
dim^2 x dim^2 operator t(alpha_x, s) (x) t(alpha_y, s) from D r^n D^+
instead, so the tests can compare the two routes, and `reduced_modes`
gives a state's dense partial traces.  Index convention: n_x * dim + n_y.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from polqpdf.errors import ValidationError
from polqpdf.fock import _DENSE_DIM_LIMIT, TwoModeState, kernel, state_components


@dataclass(frozen=True)
class TwoModeOperator:
    """A dense operator on the two-mode space, index n_x * dim + n_y."""

    dim: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        d2 = self.dim * self.dim
        ent = np.array(self.entries, dtype=complex)
        if ent.shape != (d2, d2):
            raise ValidationError(f"entries must be {d2}x{d2}, got {ent.shape}")
        if not np.all(np.isfinite(ent)):
            raise ValidationError("operator entries must be finite")
        ent.setflags(write=False)
        object.__setattr__(self, "entries", ent)


def transiting(alpha_x: complex, alpha_y: complex, s, dim: int) -> TwoModeOperator:
    """Two-mode kernel t(alpha_x, s) (x) t(alpha_y, s)."""
    if dim > _DENSE_DIM_LIMIT:
        raise ValidationError(
            f"dense two-mode operators are limited to dim <= {_DENSE_DIM_LIMIT}"
        )
    tx = kernel(alpha_x, s, dim).entries
    ty = kernel(alpha_y, s, dim).entries
    return TwoModeOperator(dim, np.kron(tx, ty))


def transiting_restricted(alpha_x: complex, p: complex, s, dim: int) -> TwoModeOperator:
    """Kernel restricted to the polarization section alpha_y = p * alpha_x."""
    p = complex(p)
    return transiting(alpha_x, p * complex(alpha_x), s, dim)


def expectation(state: TwoModeState, op: TwoModeOperator) -> complex:
    """Tr[rho Op] for a two-mode state and dense two-mode operator."""
    if state.dim != op.dim:
        raise ValidationError(
            f"state dim {state.dim} does not match operator dim {op.dim}"
        )
    if state.components is not None:
        acc = 0j
        for w, v in state.components:
            acc += w * np.vdot(v, op.entries @ v)
        return complex(acc)
    return complex(np.einsum("ij,ji->", state.density, op.entries))


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
