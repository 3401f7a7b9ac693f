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

One kernel decides membership for a stack of candidates, with one batched
LAPACK call per step and one spectrum per Hermitian matrix, from which it
reads every norm, least eigenvalue and range test; :func:`membership` is
its one-candidate view, and the solver's loops over candidates (the
sampler's chain, the candidates of each equality route, the duality
inverses) call the kernel once per batch. Storage operators are built the
same way: :func:`_storage_stack` decomposes a whole stack with one batched
``eigh``, or takes the one the kernel was given, and
:class:`StorageOperator` is its one-matrix view.

RI° is the set of inequality members whose associated system
(S A S^{-1}, S B, C S^{-1}, D), S = H^{1/2}, is minimal. That system is
similar to (A, B, C, D), so ``in_ri_circ = in_ri and is_minimal(sigma)``,
and the realization decides that verdict once for all its candidates.
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
    _kept,
    _least_and_norm,
    _pinv_kept,
    _spectral_norms,
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
    immutable afterwards and safe to share across threads. ``eigenvalues``
    are ascending, so the last one is the spectral norm.

    Raises NotPD unless every eigenvalue exceeds ``PD_TOL`` times the norm.
    This is the one-matrix view of :func:`_storage_stack`, which builds the
    operators of a whole stack from one batched decomposition.
    """

    def __init__(self, matrix: np.ndarray):
        h = ensure_hermitian(np.atleast_2d(np.asarray(matrix, dtype=complex)))
        storage = _storage_stack(h[None])[0]
        if isinstance(storage, NotPD):
            raise storage
        vars(self).update(vars(storage))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StorageOperator(dim={self.dim}, min_eig={self.min_eigenvalue:.3e})"


def _storage_stack(
    h: np.ndarray, eigh: tuple[np.ndarray, np.ndarray] | None = None
) -> list[StorageOperator | NotPD]:
    """For each matrix on the (k, n, n) stack ``h`` of Hermitian matrices
    (as :func:`hermitian_part` returns them), in order, its StorageOperator,
    or the NotPD that :class:`StorageOperator` raises for it.

    One batched ``eigh`` decomposes the stack, unless the caller passes that
    decomposition ``(w, v)`` as ``eigh`` (the solver takes it once for the
    membership kernel and the members), and the square roots of the
    positive-definite entries are formed in one batch each, so every
    operator is bit for bit the one-matrix one.
    """
    h = np.asarray(h, dtype=complex)
    if not len(h):
        return []
    w, v = np.linalg.eigh(h) if eigh is None else eigh
    results: list = _pd_failures(w)
    live = [i for i, failure in enumerate(results) if failure is None]
    if not live:
        return results
    w, v = w[live], v[live]
    root = np.sqrt(w)[..., None, :]
    v_star = v.conj().swapaxes(-1, -2)
    matrix = hermitian_part(h[live])
    sqrt = hermitian_part((v * root) @ v_star)
    inv_sqrt = hermitian_part((v / root) @ v_star)
    for slot, index in enumerate(live):
        storage = object.__new__(StorageOperator)
        storage.matrix, storage.sqrt = matrix[slot], sqrt[slot]
        storage.inv_sqrt, storage.eigenvalues = inv_sqrt[slot], w[slot]
        results[index] = storage
    return results


def _pd_failures(w: np.ndarray) -> list[NotPD | None]:
    """Per row of ascending eigenvalues ``w`` (from ``eigh``) of a stack of
    weights: the NotPD of that weight, or None when every eigenvalue exceeds
    ``PD_TOL`` times the norm."""
    if w.shape[-1] == 0:
        return [NotPD("storage operator must be positive definite "
                      "(smallest eigenvalue nan)")] * len(w)
    low = w[:, 0]
    failed = low <= PD_TOL * np.maximum(np.abs(w).max(axis=-1), 1.0)
    return [
        NotPD(
            f"storage operator must be positive definite "
            f"(smallest eigenvalue {value:.3e})"
        )
        if fail
        else None
        for value, fail in zip(low.tolist(), failed.tolist())
    ]


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


def _check_dims(sigma: SystemRealization, dim: int) -> None:
    if dim != sigma.state_dim:
        raise DimensionMismatch(
            f"storage dimension {dim} does not match state dimension "
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


def _riccati_stack(sigma: SystemRealization, h: np.ndarray):
    """alpha, beta and delta of each weight on a stack, the eigendecomposition
    ``(w, v)`` of each delta, and the range-inclusion residuals: the norms of
    beta along the eigenvectors of delta that the rank cut drops."""
    alpha, beta, delta = _residual_ops(sigma, h)
    w, v = np.linalg.eigh(delta)
    # delta may be indefinite here, so the range is cut on |eigenvalue|
    dropped = v * ~_kept(w, RANK_TOL, magnitude=True)[..., None, :]
    residual = _spectral_norms(dropped.conj().swapaxes(-1, -2) @ beta)
    return alpha, beta, delta, w, v, residual


def _riccati_one(sigma: SystemRealization, h):
    """:func:`_riccati_stack` of one storage operator, as stacks of one."""
    storage = as_storage(h)
    _check_dims(sigma, storage.dim)
    return _riccati_stack(sigma, storage.matrix[None])


def riccati_data(sigma: SystemRealization, h) -> RiccatiData:
    """Assemble alpha(H), beta(H), delta(H) and the range-inclusion residual."""
    alpha, beta, delta, _, _, residual = _riccati_one(sigma, h)
    return RiccatiData(
        alpha_op=alpha[0],
        beta_op=beta[0],
        delta_op=delta[0],
        range_inclusion_residual=float(residual[0]),
    )


def _surplus(alpha, beta, w, v) -> np.ndarray:
    """``alpha - beta* pinv(delta) beta`` per matrix on a stack, from the
    eigendecomposition ``(w, v)`` of delta."""
    pinv_delta = _pinv_kept(w, v, _kept(w, RANK_TOL))
    return hermitian_part(alpha - beta.conj().swapaxes(-1, -2) @ pinv_delta @ beta)


def inequality_surplus(sigma: SystemRealization, h, c3_tol: float = 1e-8) -> np.ndarray:
    """The surplus ``alpha - beta* pinv(delta) beta``.

    H satisfies the inequality conditions exactly when this matrix is PSD,
    provided the preconditions hold: delta(H) PSD within ``PSD_TOL`` (else
    DeltaNotPSD) and the range-inclusion residual within ``c3_tol`` (else
    C3Violation). A zero operator delta is legitimate and handled through the
    pseudo-inverse.
    """
    alpha, beta, _, w, v, residual = _riccati_one(sigma, h)
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    if w.size and float(w[0, 0]) < -PSD_TOL * scale:
        raise DeltaNotPSD(
            f"input-side residual has eigenvalue {float(w[0, 0]):.3e} below "
            f"-{PSD_TOL * scale:.3e}"
        )
    if residual[0] > c3_tol * max(1.0, spectral_norm(beta[0])):
        raise C3Violation(
            f"cross term leaves the range of the input-side residual "
            f"(residual {residual[0]:.3e})"
        )
    return _surplus(alpha, beta, w, v)[0]


def kyp_form(sigma: SystemRealization, h, x: np.ndarray, u: np.ndarray) -> float:
    """Evaluate the energy-balance quadratic form at (x, u).

    Equals ``||H^{1/2} x||^2 + ||u||^2 - ||H^{1/2}(Ax + Bu)||^2 -
    ||Cx + Du||^2`` and coincides with the quadratic form of the LMI matrix.
    """
    storage = as_storage(h)
    _check_dims(sigma, storage.dim)
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


def _lmi(alpha, beta, delta) -> np.ndarray:
    """``[[alpha, -beta*], [-beta, delta]]``, per matrix on a stack."""
    top = np.concatenate([alpha, -beta.conj().swapaxes(-1, -2)], axis=-1)
    bottom = np.concatenate([-beta, delta], axis=-1)
    return hermitian_part(np.concatenate([top, bottom], axis=-2))


def kyp_lmi(sigma: SystemRealization, h) -> np.ndarray:
    """The LMI matrix ``[[alpha, -beta*], [-beta, delta]]`` on the combined
    state-input space; H satisfies the KYP inequality iff it is PSD."""
    data = riccati_data(sigma, as_storage(h))
    return _lmi(data.alpha_op, data.beta_op, data.delta_op)


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

    This is the one-candidate view of the stacked membership kernel
    (``_membership_stack``): the verdict, its diagnostics and its errors are
    those the kernel gives ``h`` on any stack.
    """
    matrix = (
        h.matrix
        if isinstance(h, StorageOperator)
        else ensure_hermitian(np.atleast_2d(np.asarray(h, dtype=complex)))
    )
    result = _membership_stack(sigma, matrix[None], tol, eq_tol, c3_tol)[0]
    if isinstance(result, MembershipVerdict):
        return result
    raise result


def _membership_stack(
    sigma: SystemRealization,
    h: np.ndarray,
    tol: float = 1e-9,
    eq_tol: float = 1e-8,
    c3_tol: float = 1e-8,
    eigh: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[MembershipVerdict | NotPD | InconsistentRoutes]:
    """The membership kernel: for each candidate on the (k, n, n) stack
    ``h`` of Hermitian matrices (as :func:`hermitian_part` returns them), in
    order, its MembershipVerdict, or the NotPD or InconsistentRoutes that
    :func:`membership` raises for it. ``eigh``, when given, is the
    ``np.linalg.eigh`` of the stack, which the caller also passes to
    :func:`_storage_stack`.

    Every step is one batched call of the LAPACK routine the single-candidate
    computation uses (``eigh`` for the positivity test and for delta, whose
    least eigenvalue, range test and pseudo-inverse it gives; ``eigvalsh``
    for the least eigenvalue and norm of the LMI and of the surplus; SVD for
    the norms of beta and of its dropped-range part), so each result is bit
    for bit the one-candidate result. Every verdict reads the minimality
    report that ``sigma`` holds, decided once per realization, not per call.
    A DimensionMismatch concerns the whole stack and is raised.

    A realization without inputs (m = 0) has an empty delta: its equality
    is the Stein equation ``alpha(H) = 0``, its LMI is ``alpha(H)``, the
    range inclusion holds (``c3_residual`` 0), and ``delta_min_eig`` is
    +inf, the least of no eigenvalue.
    """
    h = np.asarray(h, dtype=complex)
    results: list = _pd_failures((np.linalg.eigh(h) if eigh is None else eigh)[0])
    live = [i for i, failure in enumerate(results) if failure is None]
    if not live:
        return results
    _check_dims(sigma, h.shape[-1])
    alpha, beta, delta, w, v, c3 = _riccati_stack(sigma, h[live])

    lmi_min, lmi_norm = (x.tolist() for x in _least_and_norm(_lmi(alpha, beta, delta)))
    delta_min = w.min(axis=1, initial=np.inf).tolist()
    beta_norm = _spectral_norms(beta).tolist()
    c3 = c3.tolist()

    thresholds = [tol * max(1.0, norm) for norm in lmi_norm]
    c3_thresholds = [c3_tol * max(1.0, norm) for norm in beta_norm]
    # route one needs delta PSD and the range inclusion to form the surplus
    with_surplus = [
        low >= -threshold and res <= c3_threshold
        for low, threshold, res, c3_threshold in zip(
            delta_min, thresholds, c3, c3_thresholds
        )
    ]
    surplus_min = [float("nan")] * len(live)
    equality_residual = [float("nan")] * len(live)
    if any(with_surplus):
        surplus = _surplus(
            alpha[with_surplus], beta[with_surplus], w[with_surplus], v[with_surplus]
        )
        formed = np.flatnonzero(with_surplus).tolist()
        lows, norms = (x.tolist() for x in _least_and_norm(surplus))
        for slot, low, norm in zip(formed, lows, norms):
            surplus_min[slot], equality_residual[slot] = low, norm

    # Sigma_H is similar to sigma through S = H^{1/2}, which maps the
    # controllable and unobservable subspaces of sigma onto those of Sigma_H
    sigma_h_minimal = bool(is_minimal(sigma))
    for slot, index in enumerate(live):
        threshold = thresholds[slot]
        route_one = with_surplus[slot] and surplus_min[slot] >= -threshold
        route_two = lmi_min[slot] >= -threshold
        boundary = False
        if route_one != route_two:
            band = BOUNDARY_BAND * threshold
            margins = [abs(lmi_min[slot] + threshold),
                       abs(delta_min[slot] + threshold),
                       abs(c3[slot] - c3_thresholds[slot])]
            if not np.isnan(surplus_min[slot]):
                margins.append(abs(surplus_min[slot] + threshold))
            if min(margins) <= band:
                boundary = True
            else:
                results[index] = InconsistentRoutes(
                    f"surplus route says {route_one}, LMI route says {route_two} "
                    f"(delta_min={delta_min[slot]:.3e}, "
                    f"surplus_min={surplus_min[slot]:.3e}, "
                    f"lmi_min={lmi_min[slot]:.3e}, c3={c3[slot]:.3e})"
                )
                continue
        in_ri = route_two if boundary else route_one
        in_re = bool(
            in_ri
            and not np.isnan(equality_residual[slot])
            and equality_residual[slot] <= eq_tol * max(1.0, lmi_norm[slot])
        )
        results[index] = MembershipVerdict(
            in_ri=bool(in_ri),
            in_re=in_re,
            in_ri_circ=bool(in_ri and sigma_h_minimal),
            diagnostics=MembershipDiagnostics(
                delta_min_eig=delta_min[slot],
                surplus_min_eig=surplus_min[slot],
                equality_residual=equality_residual[slot],
                lmi_min_eig=lmi_min[slot],
                c3_residual=c3[slot],
                sigma_h_minimal=sigma_h_minimal,
                boundary_case=boundary,
            ),
        )
    return results


@dataclass
class AssociatedSystem:
    """The similarity transform of a realization by the square root of a
    storage operator."""

    system: SystemRealization
    storage: StorageOperator


def associated_system(sigma: SystemRealization, h) -> AssociatedSystem:
    """Transform (A, B, C, D) by S = H^{1/2}: (S A S^{-1}, S B, C S^{-1}, D)."""
    storage = as_storage(h)
    _check_dims(sigma, storage.dim)
    s, s_inv = storage.sqrt, storage.inv_sqrt
    transformed = SystemRealization(
        a=s @ sigma.a @ s_inv,
        b=s @ sigma.b,
        c=sigma.c @ s_inv,
        d=sigma.d,
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

    alpha, beta, _, w, v, _ = _riccati_one(sigma, storage)
    surplus = _surplus(alpha, beta, w, v)[0]
    congruent = storage.sqrt @ fact.complement @ storage.sqrt
    mismatch = spectral_norm(surplus - congruent)
    if mismatch > CROSS_CHECK_TOL * (1.0 + spectral_norm(surplus)):
        raise InconsistentRoutes(
            f"Schur-complement gap and surplus disagree under the congruence "
            f"(mismatch {mismatch:.3e})"
        )
    return gap
