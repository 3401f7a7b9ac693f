"""Boundary behavior on the unit circle and uniqueness certificates.

Samples the transfer function on an angle grid, measures the defects
``||I - theta* theta||`` and ``||I - theta theta*||``, and certifies
uniqueness of the inequality member when one of the defects vanishes on the
grid. These are certificates on a grid, not proofs; for rational transfer
functions of modest degree the default grid density resolves the defects far
below tolerance, and doubling the grid is a cheap stability check. The grid
values come from :func:`riccati_kyp.systems._transfer_grid`: invertibility of
every grid resolvent ``I - zeta A`` is proved from ``||A||`` when A is a
strict contraction (``||A|| < 1`` with the kernel's margin), and tested point
by point otherwise. Both defects come from one spectrum per point, the
eigenvalues ``sigma_i^2`` of the smaller Gram matrix of theta, taken in
closed form when min(m, p) <= 2 (:func:`riccati_kyp.systems._gram_eigs`, to a
few eps of ``max(1, ||theta||^2)``): each defect is ``max |1 - sigma_i^2|``,
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
from .solver import SolverConfig, minimal_solution
from .systems import SystemRealization, _gram_eigs, _transfer_grid, adjoint, is_minimal

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

POLE_TOL = 1e-8  # distance |1/|pole| - 1| at which a pole is on the circle


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
    lies within ``POLE_TOL`` of the circle or a grid resolvent is numerically
    singular.

    The defects are read off one Gram spectrum per point: ``|1 - sigma_i^2|``
    over the min(m, p) squared singular values of theta, and, on the side of
    the larger dimension, the eigenvalue 1 of ``I - theta* theta`` (m > p) or
    ``I - theta theta*`` (p > m) on the kernel of the Gram matrix.
    """
    if grid_steps < 1:
        raise ValueError("grid_steps must be positive")
    eigs = np.linalg.eigvals(sigma.a)
    for lam in eigs:
        mag = abs(lam)
        if mag > 0.0 and abs(1.0 / mag - 1.0) < POLE_TOL:
            raise PoleOnCircle(float(-np.angle(lam)))

    angles = 2.0 * np.pi * np.arange(grid_steps) / grid_steps
    zeta = np.exp(1j * angles)
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


def is_inner(profile: CircleProfile, tol: float = 1e-8) -> bool:
    """Grid certificate that theta* theta is the identity on the circle."""
    return profile.max_defect_right <= tol


def is_coinner(profile: CircleProfile, tol: float = 1e-8) -> bool:
    """Grid certificate that theta theta* is the identity on the circle."""
    return profile.max_defect_left <= tol


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

    ``delta_at_solution`` carries the norm of the input-side residual at the
    relevant extremal solution when the certificate computes one: for the
    inner route it vanishes; for the co-inner route it is the adjoint
    system's residual at the inverted member that vanishes, while the
    system's own residual can be nonzero.
    """

    verdict: UniquenessVerdict
    reason: UniquenessReason
    delta_at_solution: float | None = None


def uniqueness_certificate(
    sigma: SystemRealization,
    profile: CircleProfile | None = None,
    tol: float = 1e-8,
    grid_steps: int = 4096,
    config: SolverConfig | None = None,
    solved: list | None = None,
) -> UniquenessCertificate:
    """Certify that the inequality member set is a singleton, when a
    trivial-defect reason applies.

    Routes, in order: an inner transfer function (right defect vanishes on
    the grid) or a co-inner one (left defect vanishes). For a scalar
    transfer function both defects equal ``|1 - |theta|^2|``, so unimodular
    boundary values are the inner case and need no route of their own.
    Anything else returns Unknown; deciding uniqueness in general needs
    spectral-factorization machinery that is out of scope here. ``solved`` is
    as in :func:`~riccati_kyp.solver.minimal_solution`, which shares the
    minimal solution of the system (inner) or its adjoint (co-inner) with a
    caller that also computes the extremal pair.
    """
    if not is_minimal(sigma):
        raise NotMinimal("uniqueness certificates require a minimal system")
    if profile is None:
        profile = circle_profile(sigma, grid_steps=grid_steps)
    cfg = config or SolverConfig()

    if is_inner(profile, tol):
        system, reason = sigma, UniquenessReason.INNER_FR0
    elif is_coinner(profile, tol):
        system, reason = adjoint(sigma), UniquenessReason.COINNER_FL0
    else:
        return UniquenessCertificate(
            verdict=UniquenessVerdict.UNKNOWN, reason=UniquenessReason.NONE
        )
    h_min = minimal_solution(system, cfg, solved)
    return UniquenessCertificate(
        verdict=UniquenessVerdict.UNIQUE_SINGLETON,
        reason=reason,
        delta_at_solution=spectral_norm(riccati_data(system, h_min).delta_op),
    )
