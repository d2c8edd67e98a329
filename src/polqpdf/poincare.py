"""Poincare-sphere parametrization of a two-mode amplitude pair.

A monochromatic field with complex mode amplitudes (a_x, a_y) is encoded
by an overall amplitude a0, a polar angle chi0 giving the amplitude split
between the modes, the relative phase delta0, and a mean phase phi:

    a_x = a0 * cos(chi0/2) * exp(i*(phi - delta0/2))
    a_y = a0 * sin(chi0/2) * exp(i*(phi + delta0/2))

The ratio a_y/a_x = tan(chi0/2)*exp(i*delta0) is the index of
polarization; it is the single complex number that fixes the polarization
state (the point on the sphere), while a0 and phi carry intensity and
global phase.  All functions here are pure and operate on plain complex
numbers plus the small frozen dataclasses below.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DegenerateInputError, PoleError, ValidationError

__all__ = [
    "PoincareParams",
    "PolarizationIndex",
    "poincare_to_amplitudes",
    "amplitudes_to_poincare",
    "index_of_polarization",
]

_TWO_PI = 2.0 * math.pi


def _wrap_signed(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(angle, _TWO_PI)
    if a > math.pi:
        a -= _TWO_PI
    elif a <= -math.pi:
        a += _TWO_PI
    return a


def _wrap_positive(angle: float) -> float:
    """Wrap an angle to [0, 2*pi)."""
    a = math.fmod(angle, _TWO_PI)
    if a < 0.0:
        a += _TWO_PI
    if a >= _TWO_PI:  # fmod can round up to 2*pi
        a = 0.0
    return a


@dataclass(frozen=True)
class PoincareParams:
    """Sphere coordinates of an amplitude pair.

    a0 >= 0, chi0 in [0, pi], delta0 in (-pi, pi], phi in [0, 2*pi).
    At the poles (chi0 = 0 or pi) delta0 is meaningless and is
    canonicalized to 0 by `amplitudes_to_poincare`.
    """

    a0: float
    chi0: float
    delta0: float
    phi: float

    def __post_init__(self) -> None:
        for name in ("a0", "chi0", "delta0", "phi"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite, got {v!r}")
        if self.a0 < 0.0:
            raise ValidationError(f"a0 must be >= 0, got {self.a0}")
        if not 0.0 <= self.chi0 <= math.pi:
            raise ValidationError(f"chi0 must lie in [0, pi], got {self.chi0}")
        if not -math.pi < self.delta0 <= math.pi:
            raise ValidationError(f"delta0 must lie in (-pi, pi], got {self.delta0}")
        if not 0.0 <= self.phi < _TWO_PI:
            raise ValidationError(f"phi must lie in [0, 2*pi), got {self.phi}")


@dataclass(frozen=True)
class PolarizationIndex:
    """The complex mode-amplitude ratio a_y / a_x."""

    value: complex

    def __post_init__(self) -> None:
        v = complex(self.value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValidationError(f"polarization index must be finite, got {v!r}")
        object.__setattr__(self, "value", v)

    @classmethod
    def from_angles(cls, chi0: float, delta0: float) -> "PolarizationIndex":
        """tan(chi0/2) * exp(i*delta0); chi0 = pi is the x-dark pole."""
        if not 0.0 <= chi0 <= math.pi:
            raise ValidationError(f"chi0 must lie in [0, pi], got {chi0}")
        if chi0 == math.pi:
            raise PoleError("chi0 = pi: a_x vanishes and a_y/a_x is undefined")
        return cls(math.tan(chi0 / 2.0) * cmath.exp(1j * delta0))

    def __complex__(self) -> complex:
        return self.value


def poincare_to_amplitudes(params: PoincareParams) -> tuple[complex, complex]:
    """Mode amplitudes (a_x, a_y) for the given sphere coordinates."""
    half = params.chi0 / 2.0
    return (
        params.a0 * math.cos(half) * cmath.exp(1j * (params.phi - params.delta0 / 2.0)),
        params.a0 * math.sin(half) * cmath.exp(1j * (params.phi + params.delta0 / 2.0)),
    )


def amplitudes_to_poincare(a_x: complex, a_y: complex) -> PoincareParams:
    """Invert `poincare_to_amplitudes`.

    The pair (delta0, phi) is only defined modulo the joint shift
    (delta0 + 2*pi, phi + pi); the returned representative has
    delta0 in (-pi, pi] and phi in [0, 2*pi).  At the poles delta0 is
    canonicalized to 0.  a_x = a_y = 0 has no direction and is rejected.
    """
    r_x, r_y = abs(a_x), abs(a_y)
    a0 = math.hypot(r_x, r_y)
    if a0 == 0.0:
        raise DegenerateInputError("both amplitudes vanish; direction undefined")
    chi0 = 2.0 * math.atan2(r_y, r_x)
    if r_x == 0.0 or r_y == 0.0:
        # pole: only the phase of the surviving component is meaningful
        delta0 = 0.0
        phi = _wrap_positive(cmath.phase(a_y if r_x == 0.0 else a_x))
        return PoincareParams(a0, chi0, delta0, phi)
    delta0 = _wrap_signed(cmath.phase(a_y) - cmath.phase(a_x))
    phi = _wrap_positive(cmath.phase(a_x) + delta0 / 2.0)
    return PoincareParams(a0, chi0, delta0, phi)


def index_of_polarization(a_x: complex, a_y: complex) -> PolarizationIndex:
    """a_y / a_x, the polarization point in the linear x/y basis."""
    if a_x == 0:
        raise PoleError("a_x = 0: index of polarization has a pole")
    return PolarizationIndex(complex(a_y) / complex(a_x))
