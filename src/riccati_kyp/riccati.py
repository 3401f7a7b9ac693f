"""Riccati residual operators, the KYP quadratic form and LMI, membership
verdicts, the associated similarity-transformed system, and the equality gap.

For a realization (A, B, C, D) and a positive-definite weight H the three
residual operators are

    alpha(H) = H - A* H A - C* C          (state side, n x n)
    beta(H)  = D* C + B* H A              (cross term, m x n)
    delta(H) = I - D* D - B* H B          (input side, m x m)

H satisfies the inequality conditions when delta(H) is PSD, the range of
beta(H) lies inside the range of delta(H), and the surplus
``alpha - beta* pinv(delta) beta`` is PSD. Equality additionally requires the
surplus to vanish. The same set is cut out by the linear matrix inequality
``L(H) = [[alpha, -beta*], [-beta, delta]] >= 0``; membership verdicts are
always computed through both routes and must agree.

RI° is the set of inequality members whose associated system
(S A S^{-1}, S B, C S^{-1}, D), S = H^{1/2}, is minimal. That system is
similar to (A, B, C, D), so ``in_ri_circ = in_ri and is_minimal(sigma)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    C3Violation,
    DeltaNotPSD,
    DimensionMismatch,
    InconsistentRoutes,
    NotInRI,
    NotPD,
)
from .linops import (
    BlockNonneg,
    _eigh_kept,
    _pinv_kept,
    _projector_kept,
    ensure_hermitian,
    hermitian_part,
    minimal_contraction,
    spectral_norm,
)
from .systems import SystemRealization, is_minimal, is_passive, system_matrix

__all__ = [
    "StorageOperator",
    "as_storage",
    "RiccatiData",
    "riccati_data",
    "inequality_surplus",
    "kyp_form",
    "kyp_lmi",
    "MembershipDiagnostics",
    "MembershipVerdict",
    "membership",
    "AssociatedSystem",
    "associated_system",
    "h_passivity_check",
    "equality_gap",
]

# Tolerances that no caller varies.
PD_TOL = 1e-12  # relative eigenvalue floor of a storage operator
RANK_TOL = 1e-12  # relative rank cut of delta(H)
PSD_TOL = 1e-9  # relative PSD floor of delta(H) in inequality_surplus
BOUNDARY_BAND = 100.0  # membership: route splits within this many tol are boundary
GAP_RANK_TOL = 1e-8  # rank cut of the minimal contraction in equality_gap
CROSS_CHECK_TOL = 1e-6  # equality_gap: admissible gap-surplus mismatch


class StorageOperator:
    """Hermitian positive-definite state weight with cached square roots.

    The eigendecomposition is computed once at construction; the value is
    immutable afterwards and safe to share across threads.

    Raises NotPD unless every eigenvalue exceeds ``PD_TOL`` times the norm.
    """

    def __init__(self, matrix: np.ndarray):
        h = ensure_hermitian(np.atleast_2d(np.asarray(matrix, dtype=complex)))
        w, v = np.linalg.eigh(h)
        norm = float(np.abs(w).max()) if w.size else 0.0
        if w.size == 0 or float(w[0]) <= PD_TOL * max(norm, 1.0):
            raise NotPD(
                f"storage operator must be positive definite "
                f"(smallest eigenvalue {float(w[0]) if w.size else float('nan'):.3e})"
            )
        self.matrix = hermitian_part(h)
        self.sqrt = hermitian_part((v * np.sqrt(w)) @ v.conj().T)
        self.inv_sqrt = hermitian_part((v / np.sqrt(w)) @ v.conj().T)
        self.eigenvalues = w

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StorageOperator(dim={self.dim}, min_eig={self.min_eigenvalue:.3e})"


def as_storage(h) -> StorageOperator:
    """Coerce a matrix (or scalar) into a StorageOperator."""
    if isinstance(h, StorageOperator):
        return h
    return StorageOperator(h)


@dataclass
class RiccatiData:
    """The three residual operators plus the range-inclusion diagnostic.

    ``range_inclusion_residual`` is the norm of the component of ``beta_op``
    outside the range of ``delta_op``; the inclusion condition requires it to
    vanish.
    """

    alpha_op: np.ndarray
    beta_op: np.ndarray
    delta_op: np.ndarray
    range_inclusion_residual: float


def _check_dims(sigma: SystemRealization, storage: StorageOperator) -> None:
    if storage.dim != sigma.state_dim:
        raise DimensionMismatch(
            f"storage dimension {storage.dim} does not match state dimension "
            f"{sigma.state_dim}"
        )


def _residual_ops(sigma: SystemRealization, h: np.ndarray):
    """alpha(H), beta(H) and delta(H) for any Hermitian weight ``h``; the
    solver walks through indefinite weights, so positivity is not required."""
    a, b, c, d = sigma.a, sigma.b, sigma.c, sigma.d
    alpha = hermitian_part(h - a.conj().T @ h @ a - c.conj().T @ c)
    beta = d.conj().T @ c + b.conj().T @ h @ a
    delta = hermitian_part(
        np.eye(sigma.input_dim) - d.conj().T @ d - b.conj().T @ h @ b
    )
    return alpha, beta, delta


def riccati_data(sigma: SystemRealization, h) -> RiccatiData:
    """Assemble alpha(H), beta(H), delta(H) and the range-inclusion residual."""
    storage = as_storage(h)
    _check_dims(sigma, storage)
    alpha, beta, delta = _residual_ops(sigma, storage.matrix)
    # delta may be indefinite here, so the range is cut on |eigenvalue|
    _, v, kept = _eigh_kept(delta, RANK_TOL, magnitude=True)
    proj = _projector_kept(v, kept)
    residual = spectral_norm((np.eye(sigma.input_dim) - proj) @ beta)
    return RiccatiData(
        alpha_op=alpha,
        beta_op=beta,
        delta_op=delta,
        range_inclusion_residual=residual,
    )


def _surplus_from_data(data: RiccatiData) -> np.ndarray:
    pinv_delta = _pinv_kept(*_eigh_kept(data.delta_op, RANK_TOL))
    return hermitian_part(
        data.alpha_op - data.beta_op.conj().T @ pinv_delta @ data.beta_op
    )


def inequality_surplus(sigma: SystemRealization, h, c3_tol: float = 1e-8) -> np.ndarray:
    """The surplus ``alpha - beta* pinv(delta) beta``.

    H satisfies the inequality conditions exactly when this matrix is PSD,
    provided the preconditions hold: delta(H) PSD within ``PSD_TOL`` (else
    DeltaNotPSD) and the range-inclusion residual within ``c3_tol`` (else
    C3Violation). A zero operator delta is legitimate and handled through the
    pseudo-inverse.
    """
    data = riccati_data(sigma, h)
    w = np.linalg.eigvalsh(data.delta_op)
    scale = max(1.0, float(np.abs(w).max()) if w.size else 0.0)
    if w.size and float(w[0]) < -PSD_TOL * scale:
        raise DeltaNotPSD(
            f"input-side residual has eigenvalue {float(w[0]):.3e} below "
            f"-{PSD_TOL * scale:.3e}"
        )
    beta_scale = max(1.0, spectral_norm(data.beta_op))
    if data.range_inclusion_residual > c3_tol * beta_scale:
        raise C3Violation(
            f"cross term leaves the range of the input-side residual "
            f"(residual {data.range_inclusion_residual:.3e})"
        )
    return _surplus_from_data(data)


def kyp_form(sigma: SystemRealization, h, x: np.ndarray, u: np.ndarray) -> float:
    """Evaluate the energy-balance quadratic form at (x, u).

    Equals ``||H^{1/2} x||^2 + ||u||^2 - ||H^{1/2}(Ax + Bu)||^2 -
    ||Cx + Du||^2`` and coincides with the quadratic form of the LMI matrix.
    """
    storage = as_storage(h)
    _check_dims(sigma, storage)
    x = np.asarray(x, dtype=complex).reshape(-1)
    u = np.asarray(u, dtype=complex).reshape(-1)
    if x.shape[0] != sigma.state_dim or u.shape[0] != sigma.input_dim:
        raise DimensionMismatch(
            f"(x, u) have lengths {(x.shape[0], u.shape[0])}, expected "
            f"{(sigma.state_dim, sigma.input_dim)}"
        )
    sx = storage.sqrt @ x
    x_next = sigma.a @ x + sigma.b @ u
    y = sigma.c @ x + sigma.d @ u
    sx_next = storage.sqrt @ x_next
    return float(
        np.real(
            sx.conj() @ sx
            + u.conj() @ u
            - sx_next.conj() @ sx_next
            - y.conj() @ y
        )
    )


def _lmi_from_data(data: RiccatiData) -> np.ndarray:
    return hermitian_part(
        np.block(
            [
                [data.alpha_op, -data.beta_op.conj().T],
                [-data.beta_op, data.delta_op],
            ]
        )
    )


def kyp_lmi(sigma: SystemRealization, h) -> np.ndarray:
    """The LMI matrix ``[[alpha, -beta*], [-beta, delta]]`` on the combined
    state-input space; H satisfies the KYP inequality iff it is PSD."""
    return _lmi_from_data(riccati_data(sigma, as_storage(h)))


@dataclass
class MembershipDiagnostics:
    """Raw boundary quantities behind a membership verdict, so callers can
    apply their own thresholds."""

    delta_min_eig: float
    surplus_min_eig: float
    equality_residual: float
    lmi_min_eig: float
    c3_residual: float
    sigma_h_minimal: bool
    boundary_case: bool


@dataclass
class MembershipVerdict:
    """Verdicts for the inequality set, the equality set, and the subset with
    a minimal associated system."""

    in_ri: bool
    in_re: bool
    in_ri_circ: bool
    diagnostics: MembershipDiagnostics


def membership(
    sigma: SystemRealization,
    h,
    tol: float = 1e-9,
    eq_tol: float = 1e-8,
    c3_tol: float = 1e-8,
) -> MembershipVerdict:
    """Decide inequality/equality membership through two independent routes.

    Route one checks delta PSD, the range inclusion, and PSD-ness of the
    surplus; route two checks PSD-ness of the LMI matrix. The routes agree in
    exact arithmetic; a disagreement outside the boundary band (``tol`` times
    ``BOUNDARY_BAND``) raises InconsistentRoutes since it signals a
    tolerance or rank-decision bug rather than a mathematical fact. Within
    the band the LMI route decides and the verdict is flagged as a boundary
    case. ``in_ri_circ`` is ``in_ri`` and minimality of ``sigma``, which is
    minimality of the associated system (see the module docstring).
    """
    data = riccati_data(sigma, h)

    lmi = _lmi_from_data(data)
    lmi_min = float(np.linalg.eigvalsh(lmi)[0])
    scale = max(1.0, spectral_norm(lmi))
    threshold = tol * scale

    w_delta = np.linalg.eigvalsh(data.delta_op)
    delta_min = float(w_delta[0]) if w_delta.size else 0.0
    c3_res = data.range_inclusion_residual
    c3_threshold = c3_tol * max(1.0, spectral_norm(data.beta_op))

    delta_ok = delta_min >= -threshold
    c3_ok = c3_res <= c3_threshold

    if delta_ok and c3_ok:
        surplus = _surplus_from_data(data)
        surplus_min = float(np.linalg.eigvalsh(surplus)[0])
        equality_residual = spectral_norm(surplus)
        route_one = surplus_min >= -threshold
    else:
        surplus_min = float("nan")
        equality_residual = float("nan")
        route_one = False

    route_two = lmi_min >= -threshold

    boundary = False
    if route_one != route_two:
        band = BOUNDARY_BAND * threshold
        margins = [abs(lmi_min + threshold), abs(delta_min + threshold),
                   abs(c3_res - c3_threshold)]
        if not np.isnan(surplus_min):
            margins.append(abs(surplus_min + threshold))
        if min(margins) <= band:
            boundary = True
        else:
            raise InconsistentRoutes(
                f"surplus route says {route_one}, LMI route says {route_two} "
                f"(delta_min={delta_min:.3e}, surplus_min={surplus_min:.3e}, "
                f"lmi_min={lmi_min:.3e}, c3={c3_res:.3e})"
            )
    in_ri = route_two if boundary else route_one

    in_re = bool(
        in_ri
        and not np.isnan(equality_residual)
        and equality_residual <= eq_tol * scale
    )

    # Sigma_H is similar to sigma through S = H^{1/2}, which maps the
    # controllable and unobservable subspaces of sigma onto those of Sigma_H
    sigma_h_minimal = bool(is_minimal(sigma))
    in_ri_circ = bool(in_ri and sigma_h_minimal)

    return MembershipVerdict(
        in_ri=bool(in_ri),
        in_re=in_re,
        in_ri_circ=in_ri_circ,
        diagnostics=MembershipDiagnostics(
            delta_min_eig=delta_min,
            surplus_min_eig=surplus_min,
            equality_residual=equality_residual,
            lmi_min_eig=lmi_min,
            c3_residual=c3_res,
            sigma_h_minimal=sigma_h_minimal,
            boundary_case=boundary,
        ),
    )


@dataclass
class AssociatedSystem:
    """The similarity transform of a realization by the square root of a
    storage operator."""

    system: SystemRealization
    storage: StorageOperator


def associated_system(sigma: SystemRealization, h) -> AssociatedSystem:
    """Transform (A, B, C, D) by S = H^{1/2}: (S A S^{-1}, S B, C S^{-1}, D)."""
    storage = as_storage(h)
    _check_dims(sigma, storage)
    s, s_inv = storage.sqrt, storage.inv_sqrt
    transformed = SystemRealization(
        a=s @ sigma.a @ s_inv,
        b=s @ sigma.b,
        c=sigma.c @ s_inv,
        d=sigma.d.copy(),
    )
    return AssociatedSystem(system=transformed, storage=storage)


def h_passivity_check(sigma: SystemRealization, h, tol: float = 1e-9) -> bool:
    """True iff the associated system's block matrix is a contraction.

    Every H satisfying the inequality conditions passes this check.
    """
    assoc = associated_system(sigma, h)
    return bool(is_passive(assoc.system, tol=tol))


def equality_gap(
    sigma: SystemRealization,
    h,
    tol: float = 1e-9,
) -> float:
    """Norm of the Schur complement measuring the distance from equality.

    For H satisfying the inequality conditions, let R = I - M* M with M the
    block matrix of the associated system. The returned value is the norm of
    the Schur complement of R supported on the state side; it vanishes
    exactly when H satisfies the equality conditions.

    The result is cross-checked against the surplus through the congruence by
    H^{1/2}; a mismatch raises InconsistentRoutes.

    Raises NotInRI when H fails the inequality membership test.
    """
    storage = as_storage(h)
    verdict = membership(sigma, storage, tol=tol)
    if not verdict.in_ri:
        raise NotInRI(
            f"candidate is not an inequality solution "
            f"(lmi_min={verdict.diagnostics.lmi_min_eig:.3e})"
        )
    assoc = associated_system(sigma, storage)
    m = system_matrix(assoc.system)
    n = sigma.state_dim
    r = hermitian_part(np.eye(m.shape[1]) - m.conj().T @ m)
    block = BlockNonneg(alpha=r[:n, :n], beta=r[:n, n:], delta=r[n:, n:])
    fact = minimal_contraction(block, rank_tol=GAP_RANK_TOL)
    gap = spectral_norm(fact.complement)

    surplus = _surplus_from_data(riccati_data(sigma, storage))
    congruent = storage.sqrt @ fact.complement @ storage.sqrt
    mismatch = spectral_norm(surplus - congruent)
    if mismatch > CROSS_CHECK_TOL * (1.0 + spectral_norm(surplus)):
        raise InconsistentRoutes(
            f"Schur-complement gap and surplus disagree under the congruence "
            f"(mismatch {mismatch:.3e})"
        )
    return gap
