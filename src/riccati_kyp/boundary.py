"""Boundary behavior on the unit circle and uniqueness certificates.

Samples the transfer function on an angle grid, measures the defects
``||I - theta* theta||`` and ``||I - theta theta*||``, and certifies
uniqueness of the inequality member when one of the defects vanishes on the
grid and the Stein identities, with a positive-definite Stein solution,
confirm that the system, or its adjoint, is inner. The defects are measured
on a grid, not proved; for rational transfer functions of modest degree the
default grid density resolves the defects far below tolerance, and doubling
the grid is a cheap stability check. The angle grid
(:func:`riccati_kyp.systems._circle_points`) is cached per size and shared
with the Schur-class margin, which samples the circle ``|lam| = radius``
alone: by the maximum-modulus principle a transfer function analytic on a
closed disc takes its largest norm there on the boundary circle. The grid
values come from
:func:`riccati_kyp.systems._transfer_grid`: invertibility of every grid
resolvent ``I - zeta A`` is proved from ``||A||`` when A is a strict
contraction (``||A|| < 1`` with the kernel's margin), and otherwise from a
bound on each ``||(I - zeta T)^-1||`` read off the Schur form ``A = Q T
Q*``, with the singular-value test run only at the points that bound
leaves open. The Stein test reads the inner fact that the system it names
keeps (:func:`riccati_kyp.solver._inner_solution`): the system itself for
the inner route and the one adjoint it keeps for the co-inner one, so the
solver's co-inner test reads the same solve, and ``riccati_data`` reads
the StorageOperator of its solution with no second ``eigh``. Both defects come from one
spectrum per point, the eigenvalues ``sigma_i^2`` of the smaller Gram
matrix of theta, taken in closed form when min(m, p) <= 2
(:func:`riccati_kyp.systems._gram_eigs`, to a few eps of ``max(1,
||theta||^2)``): each defect is ``max |1 - sigma_i^2|``,
and the defect on the larger side is at least 1, since its unmatched
eigenvalues are exactly 1. A side of dimension 0 has defect 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotMinimal, PoleOnCircle
from .linops import spectral_norm
from .riccati import riccati_data
from .solver import _inner_solution
from .systems import (
    SystemRealization,
    _circle_points,
    _gram_eigs,
    _pole_angle,
    _transfer_grid,
    adjoint,
    is_minimal,
)

__all__ = [
    "CircleProfile",
    "circle_profile",
    "is_inner",
    "is_coinner",
    "UniquenessVerdict",
    "UniquenessReason",
    "UniquenessCertificate",
    "uniqueness_certificate",
]

INNER_TOL = 1e-8  # largest grid defect of an inner or co-inner transfer function


@dataclass
class CircleProfile:
    """Transfer-function samples on the unit circle with defect norms.

    ``values[k]`` is the p x m transfer value at ``exp(1j * angles[k])``;
    ``right_defects[k] = ||I - theta* theta||`` and ``left_defects[k] =
    ||I - theta theta*||`` at that sample.
    """

    angles: np.ndarray
    values: np.ndarray
    right_defects: np.ndarray
    left_defects: np.ndarray

    @property
    def max_defect_right(self) -> float:
        return float(self.right_defects.max())

    @property
    def max_defect_left(self) -> float:
        return float(self.left_defects.max())


def circle_profile(sigma: SystemRealization, grid_steps: int = 4096) -> CircleProfile:
    """Sample the transfer function on a uniform angle grid of the circle.

    Raises PoleOnCircle (with the offending angle) when a realization pole
    lies within ``systems.POLE_TOL`` of the circle
    (:func:`~riccati_kyp.systems._pole_angle`) or a grid resolvent is
    numerically singular.

    The defects are read off one Gram spectrum per point: ``|1 - sigma_i^2|``
    over the min(m, p) squared singular values of theta, and, on the side of
    the larger dimension, the eigenvalue 1 of ``I - theta* theta`` (m > p) or
    ``I - theta theta*`` (p > m) on the kernel of the Gram matrix. The
    profile's ``angles`` is the read-only grid cached per ``grid_steps``
    (:func:`~riccati_kyp.systems._circle_points`), which the Schur-class
    margin scales to its circle.
    """
    if grid_steps < 1:
        raise ValueError("grid_steps must be positive")
    pole = _pole_angle(sigma)
    if pole is not None:
        raise PoleOnCircle(pole)

    angles, zeta = _circle_points(grid_steps)
    m, p = sigma.input_dim, sigma.output_dim
    values = _transfer_grid(
        sigma, zeta, singular=lambda lam, k: PoleOnCircle(float(angles[k]))
    )

    shared = np.abs(1.0 - _gram_eigs(values)).max(axis=1, initial=0.0)
    # the unmatched eigenvalues of the larger defect operator are exactly 1
    return CircleProfile(
        angles=angles,
        values=values,
        right_defects=shared if m <= p else np.maximum(shared, 1.0),
        left_defects=shared if p <= m else np.maximum(shared, 1.0),
    )


def is_inner(profile: CircleProfile) -> bool:
    """Grid certificate that theta* theta is the identity on the circle:
    the right defect is at most ``INNER_TOL`` at every grid point."""
    return profile.max_defect_right <= INNER_TOL


def is_coinner(profile: CircleProfile) -> bool:
    """Grid certificate that theta theta* is the identity on the circle:
    the left defect is at most ``INNER_TOL`` at every grid point."""
    return profile.max_defect_left <= INNER_TOL


class UniquenessVerdict(Enum):
    UNIQUE_SINGLETON = "unique_singleton"
    UNKNOWN = "unknown"


class UniquenessReason(Enum):
    INNER_FR0 = "inner_fr0"
    COINNER_FL0 = "coinner_fl0"
    NONE = "none"


@dataclass
class UniquenessCertificate:
    """Verdict on whether the inequality member set is a single point.

    ``delta_at_solution`` carries, for a certified singleton, the norm of
    the input-side residual of the inner system (the system for the inner
    route, its adjoint for the co-inner one) at its Stein solution. It
    vanishes up to the identities' tolerance; for the co-inner route the
    system's own residual at the inverted member can be nonzero.
    """

    verdict: UniquenessVerdict
    reason: UniquenessReason
    delta_at_solution: float | None = None


def uniqueness_certificate(
    sigma: SystemRealization,
    profile: CircleProfile | None = None,
    grid_steps: int = 4096,
) -> UniquenessCertificate:
    """Certify that the inequality member set is a singleton, when the
    transfer function is inner or co-inner.

    The grid screens first: an inner transfer function (right defect
    vanishes on the grid at ``INNER_TOL``, :func:`is_inner`) or a co-inner
    one (left defect vanishes, :func:`is_coinner`). For a scalar transfer
    function both defects equal ``|1 - |theta|^2|``, so unimodular boundary
    values are the inner case and need no route of their own. The screen
    is confirmed on the system it names, ``sigma`` when inner and its
    adjoint when co-inner, by :func:`~riccati_kyp.solver._inner_solution`,
    which decides the Stein identities and the positivity of the Stein
    solution together: that system must be inner, and then its Stein
    solution (inverted for the co-inner route) is the one inequality member
    of ``sigma`` (Arlinskii 2008). An unstable all-pass system (T(z) = (z -
    2) / (1 - 2z), with Stein solution -3) satisfies the identities but has
    no inequality member, and is not inner there. Anything else returns
    Unknown, as does a screen the identities refuse (a defect within
    ``INNER_TOL`` that is not zero). RI lies between H_min and H_max in the
    Loewner order, so it is a single point exactly when H_min = H_max;
    :func:`~riccati_kyp.solver.duality_check` makes that test, and
    this certificate decides only inner and co-inner systems.

    Raises NotMinimal on a non-minimal system.
    """
    if not is_minimal(sigma):
        raise NotMinimal("uniqueness certificates require a minimal system")
    if profile is None:
        profile = circle_profile(sigma, grid_steps=grid_steps)

    unknown = UniquenessCertificate(
        verdict=UniquenessVerdict.UNKNOWN, reason=UniquenessReason.NONE
    )
    if is_inner(profile):
        system, reason = sigma, UniquenessReason.INNER_FR0
    elif is_coinner(profile):
        system, reason = adjoint(sigma), UniquenessReason.COINNER_FL0
    else:
        return unknown
    x = _inner_solution(system)
    if x is None:
        return unknown
    return UniquenessCertificate(
        verdict=UniquenessVerdict.UNIQUE_SINGLETON,
        reason=reason,
        delta_at_solution=spectral_norm(riccati_data(system, x).delta_op),
    )
