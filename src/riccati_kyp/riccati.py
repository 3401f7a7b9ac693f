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
reads every norm, least eigenvalue and range test, and answers with a
:class:`VerdictTable` of masks and diagnostic arrays, and the closed-loop
gain ``pinv(delta) beta`` of each row where it forms the surplus. It forms
a column only on the rows that read it: the range residual where the rank
cut of delta drops an eigenvalue (0.0 elsewhere), and ``||beta||``, which
scales the range threshold, where the residual exceeds ``RANGE_TOL`` or the
routes split. :func:`membership` is its one-candidate view, which reads the
eigenvalues a StorageOperator holds instead of decomposing it again;
:func:`_memberships` checks a list of matrices in one call, as a CLI
``report`` checks its candidates, while ``check`` calls
:func:`membership`; and the solver's loops over candidates (each round of
the sampler, the candidates of each equality route, the duality inverses) call
the kernel once per batch and read the masks. Positivity is decided by the
one test of :func:`riccati_kyp.linops._pd_mask`. A
:class:`StorageOperator` is one weight with its square roots, built by the
certified extremes and by library callers; a solution set holds its
members as one stack with their spectra, and builds none.

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
    RiccatiKypError,
)
from .linops import (
    BlockNonneg,
    _kept,
    _least_and_norm,
    _not_pd,
    _pd_mask,
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

# The default of the membership band, the one tolerance that callers vary
# (``--tol``), relative to max(1, ||L(H)||).
MEMBERSHIP_TOL = 1e-9

# Tolerances that no caller varies.
EQUALITY_TOL = 1e-8  # membership: relative bound of the equality residual
RANGE_TOL = 1e-8  # membership: relative bound of the range-inclusion residual
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

    Raises NotPD unless every eigenvalue exceeds ``linops.PD_TOL`` times the
    norm (:func:`riccati_kyp.linops._pd_mask`).
    """

    def __init__(self, matrix: np.ndarray):
        h = ensure_hermitian(np.atleast_2d(np.asarray(matrix, dtype=complex)))
        w, v = np.linalg.eigh(h)
        pd, low = _pd_mask(w[None])
        if not pd[0]:
            raise _not_pd(low[0])
        root = np.sqrt(w)
        self.matrix, self.eigenvalues = h, w
        self.sqrt = hermitian_part((v * root) @ v.conj().T)
        self.inv_sqrt = hermitian_part((v / root) @ v.conj().T)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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
    beta along the eigenvectors of delta that the rank cut drops. A row
    whose cut drops no eigenvalue has the norm of a zero matrix, 0.0, so
    only the other rows take an SVD."""
    alpha, beta, delta = _residual_ops(sigma, h)
    w, v = np.linalg.eigh(delta)
    # delta may be indefinite here, so the range is cut on |eigenvalue|
    dropped = ~_kept(w, RANK_TOL, magnitude=True)
    rows = dropped.any(axis=-1)
    residual = np.zeros(len(w))
    if rows.any():
        part = v[rows] * dropped[rows][..., None, :]
        residual[rows] = _spectral_norms(part.conj().swapaxes(-1, -2) @ beta[rows])
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


def _surplus(alpha, beta, w, v) -> tuple[np.ndarray, np.ndarray]:
    """``alpha - beta* pinv(delta) beta`` and the gain ``K = pinv(delta)
    beta`` of the closed loop ``A + B K``, per matrix on a stack, from the
    eigendecomposition ``(w, v)`` of delta and its cut at ``RANK_TOL``."""
    pinv_delta = _pinv_kept(w, v, _kept(w, RANK_TOL))
    surplus = alpha - beta.conj().swapaxes(-1, -2) @ pinv_delta @ beta
    return hermitian_part(surplus), pinv_delta @ beta


def inequality_surplus(sigma: SystemRealization, h) -> np.ndarray:
    """The surplus ``alpha - beta* pinv(delta) beta``.

    H satisfies the inequality conditions exactly when this matrix is PSD,
    provided the preconditions hold: delta(H) PSD within ``PSD_TOL`` (else
    DeltaNotPSD) and the range-inclusion residual within ``RANGE_TOL``
    times ``max(1, ||beta||)`` (else C3Violation). A zero operator delta is
    legitimate and handled through the pseudo-inverse.
    """
    alpha, beta, _, w, v, residual = _riccati_one(sigma, h)
    scale = max(1.0, float(np.abs(w).max(initial=0.0)))
    if w.size and float(w[0, 0]) < -PSD_TOL * scale:
        raise DeltaNotPSD(
            f"input-side residual has eigenvalue {float(w[0, 0]):.3e} below "
            f"-{PSD_TOL * scale:.3e}"
        )
    if residual[0] > RANGE_TOL * max(1.0, spectral_norm(beta[0])):
        raise C3Violation(
            f"cross term leaves the range of the input-side residual "
            f"(residual {residual[0]:.3e})"
        )
    return _surplus(alpha, beta, w, v)[0][0]


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


@dataclass
class VerdictTable:
    """The membership kernel's answer for a stack of k candidates, one row
    per candidate in stack order.

    ``pd``, ``in_ri``, ``in_re``, ``in_ri_circ`` and ``boundary`` are
    boolean masks; ``delta_min``, ``surplus_min``, ``equality_residual``,
    ``lmi_min`` and ``c3`` are float arrays, the diagnostics of
    :class:`MembershipDiagnostics`. ``gain`` is the (k, m, n) stack of the
    closed-loop gains ``K = pinv(delta) beta``, cut at ``RANK_TOL`` as the
    surplus is, whose loop ``A + B K`` certifies a minimal solution. A
    candidate that is not positive definite reads False in the masks and
    NaN in the floats, and a row whose surplus is not formed (delta not
    PSD, or beta outside its range) reads NaN in ``gain`` too.
    ``sigma_h_minimal`` is the minimality of the realization, shared by
    every row.
    """

    pd: np.ndarray
    in_ri: np.ndarray
    in_re: np.ndarray
    in_ri_circ: np.ndarray
    boundary: np.ndarray
    delta_min: np.ndarray
    surplus_min: np.ndarray
    equality_residual: np.ndarray
    lmi_min: np.ndarray
    c3: np.ndarray
    gain: np.ndarray
    sigma_h_minimal: bool


def membership(
    sigma: SystemRealization, h, tol: float = MEMBERSHIP_TOL
) -> MembershipVerdict:
    """Decide inequality/equality membership through two independent routes.

    Route one checks delta PSD, the range inclusion, and PSD-ness of the
    surplus; route two checks PSD-ness of the LMI matrix. The LMI route
    decides and the surplus route cross-checks it. ``tol`` is the LMI band,
    relative to ``max(1, ||L(H)||)``; equality and the range inclusion are
    decided at the constants ``EQUALITY_TOL`` (relative to the same scale)
    and ``RANGE_TOL`` (relative to ``max(1, ||beta||)``). The routes agree
    in exact arithmetic; a disagreement outside the boundary band (``tol`` times
    ``BOUNDARY_BAND``) raises InconsistentRoutes since it signals a
    tolerance or rank-decision bug rather than a mathematical fact, and one
    within the band flags the verdict as a boundary case. ``in_ri_circ`` is
    ``in_ri`` and minimality of ``sigma``, which is minimality of the
    associated system (see the module docstring).

    This is the one-candidate view of the stacked membership kernel
    (``_membership_stack``): ``h`` must be positive definite (else NotPD),
    and the verdict and its diagnostics are the one row of the kernel's
    :class:`VerdictTable`, whose errors it raises. A StorageOperator is
    positive definite by construction and hands the kernel the eigenvalues
    it holds, so it is not decomposed again.
    """
    if not isinstance(h, StorageOperator):
        return _memberships(sigma, [h], tol)[0]
    table = _membership_stack(sigma, h.matrix[None], tol, h.eigenvalues[None])
    return _verdict(table, 0)


def _memberships(
    sigma: SystemRealization, matrices: list, tol: float = MEMBERSHIP_TOL
) -> list[MembershipVerdict]:
    """:func:`membership` of each of ``matrices``, one or more of one shape,
    from one ``eigh`` of their stack and one kernel call: the verdicts in
    order, or the error that membership raises for the first matrix it
    refuses (NotHermitian, NotPD, InconsistentRoutes, ...). Only the
    matrices before that one go to the kernel, which raises the first split
    of their routes in stack order."""
    stack, refused = [], None
    for h in matrices:
        try:
            stack.append(ensure_hermitian(np.atleast_2d(np.asarray(h, dtype=complex))))
        except (RiccatiKypError, ValueError) as exc:
            refused = exc  # raised once the matrices before it are checked
            break
    if not stack:
        raise refused
    stack = np.array(stack)
    w = np.linalg.eigh(stack)[0]
    pd, low = _pd_mask(w)
    if not pd.all():
        first = int(np.flatnonzero(~pd)[0])
        stack, w, refused = stack[:first], w[:first], _not_pd(low[first])
    table = _membership_stack(sigma, stack, tol, w)
    if refused is not None:
        raise refused
    return [_verdict(table, i) for i in range(len(stack))]


def _verdict(table: VerdictTable, i: int) -> MembershipVerdict:
    """Row ``i`` of the kernel's verdict table as a MembershipVerdict."""
    floats = (table.delta_min, table.surplus_min, table.equality_residual,
              table.lmi_min, table.c3)
    return MembershipVerdict(
        bool(table.in_ri[i]),
        bool(table.in_re[i]),
        bool(table.in_ri_circ[i]),
        MembershipDiagnostics(
            *(float(x[i]) for x in floats),
            table.sigma_h_minimal,
            bool(table.boundary[i]),
        ),
    )


def _membership_stack(
    sigma: SystemRealization,
    h: np.ndarray,
    tol: float = MEMBERSHIP_TOL,
    eigenvalues: np.ndarray | None = None,
) -> VerdictTable:
    """The membership kernel: the :class:`VerdictTable` of the (k, n, n)
    stack ``h`` of Hermitian matrices (as :func:`hermitian_part` returns
    them). ``eigenvalues``, when given, are the ascending eigenvalues of
    each matrix on the stack, which decide positivity; a caller that has
    decomposed the stack, or holds its one StorageOperator, passes them, and
    otherwise the kernel takes those of ``eigh``, the spectrum on which a
    StorageOperator decides (``eigvalsh`` can differ in the last bits).

    Every step is one batched call of the LAPACK routine the single-candidate
    computation uses (``eigh`` for delta, whose least eigenvalue, range test
    and pseudo-inverse it gives; ``eigvalsh`` for the least eigenvalue and
    norm of the LMI and of the surplus; SVD for the norms of beta and of its
    dropped-range part), and the routes, the boundary band and ``in_re``
    are array operations on the results, so each row is bit for bit the
    one-candidate result. Two columns are formed only on the rows that read
    them: the range residual ``c3`` where the rank cut drops an eigenvalue
    of delta (it is 0.0 elsewhere, see :func:`_riccati_stack`), and
    ``||beta||``, which sets the range threshold ``RANGE_TOL * max(1,
    ||beta||)``, where ``c3 > RANGE_TOL`` or the routes split (elsewhere
    ``c3 <= RANGE_TOL`` passes any such threshold, and the band margins are
    not read). The realization's minimality is read once per call. Each
    row where the surplus is formed keeps the gain ``pinv(delta) beta`` of
    that formation, so a certificate reads its closed loop off the one
    decomposition of delta that decides its membership.
    ``in_ri`` is the LMI route's verdict and ``boundary`` marks the rows
    where the surplus route disagrees with it. A DimensionMismatch concerns
    the whole stack, and the InconsistentRoutes of the first candidate whose
    routes disagree outside the band, in stack order, is raised, so every
    split that returns lies within the band.

    A realization without inputs (m = 0) has an empty delta: its equality
    is the Stein equation ``alpha(H) = 0``, its LMI is ``alpha(H)``, the
    range inclusion holds (``c3`` 0), and ``delta_min`` is +inf, the least
    of no eigenvalue.
    """
    h = np.asarray(h, dtype=complex)
    _check_dims(sigma, h.shape[-1])
    pd, _ = _pd_mask(np.linalg.eigh(h)[0] if eigenvalues is None else eigenvalues)
    alpha, beta, delta, w, v, c3 = _riccati_stack(sigma, h[pd])
    lmi_min, lmi_norm = _least_and_norm(_lmi(alpha, beta, delta))
    delta_min = w.min(axis=1, initial=np.inf)
    scale = np.maximum(1.0, lmi_norm)
    threshold = tol * scale
    floor = -threshold
    # RANGE_TOL stands in for the range threshold on the rows that do not read it
    c3_threshold = np.full(len(c3), RANGE_TOL)

    def form_c3_threshold(rows: np.ndarray) -> None:
        if rows.any():
            c3_threshold[rows] = RANGE_TOL * np.maximum(1.0, _spectral_norms(beta[rows]))

    above = c3 > RANGE_TOL
    form_c3_threshold(above)

    # route one needs delta PSD and the range inclusion to form the surplus
    formed = (delta_min >= floor) & (c3 <= c3_threshold)
    surplus_min = np.full(len(formed), np.nan)
    equality_residual = surplus_min.copy()
    gain = np.full(beta.shape, np.nan, dtype=complex)
    if formed.any():
        surplus, gain[formed] = _surplus(alpha[formed], beta[formed], w[formed], v[formed])
        surplus_min[formed], equality_residual[formed] = _least_and_norm(surplus)
    # the LMI route decides, and the surplus route cross-checks it
    in_ri = lmi_min >= floor
    route_one = surplus_min >= floor  # False where no surplus is formed (NaN)
    boundary = route_one != in_ri
    if boundary.any():
        form_c3_threshold(boundary & ~above)
        # a split within the band of a decision's edge is a boundary case;
        # any other raises. An unformed surplus has no margin
        margins = np.abs(
            [lmi_min + threshold, delta_min + threshold, c3 - c3_threshold]
        )
        margin = np.fmin(margins.min(axis=0), np.abs(surplus_min + threshold))
        inconsistent = np.flatnonzero(boundary & ~(margin <= BOUNDARY_BAND * threshold))
        if inconsistent.size:
            i = inconsistent[0]
            raise InconsistentRoutes(
                f"surplus route says {bool(route_one[i])}, LMI route says "
                f"{bool(in_ri[i])} (delta_min={delta_min[i]:.3e}, "
                f"surplus_min={surplus_min[i]:.3e}, "
                f"lmi_min={lmi_min[i]:.3e}, c3={c3[i]:.3e})"
            )
    in_re = in_ri & (equality_residual <= EQUALITY_TOL * scale)
    # Sigma_H is similar to sigma through S = H^{1/2}, which maps the
    # controllable and unobservable subspaces of sigma onto those of Sigma_H
    sigma_h_minimal = bool(is_minimal(sigma))
    columns = [in_ri, in_re, in_ri & sigma_h_minimal, boundary, delta_min,
               surplus_min, equality_residual, lmi_min, c3, gain]
    if not pd.all():  # False or NaN at the candidates that are not PD
        for i, values in enumerate(columns):
            fill = False if values.dtype == bool else np.nan
            columns[i] = np.full((len(pd), *values.shape[1:]), fill, dtype=values.dtype)
            columns[i][pd] = values
    return VerdictTable(pd, *columns, sigma_h_minimal)


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
    tol: float = MEMBERSHIP_TOL,
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
    surplus = _surplus(alpha, beta, w, v)[0][0]
    congruent = storage.sqrt @ fact.complement @ storage.sqrt
    mismatch = spectral_norm(surplus - congruent)
    if mismatch > CROSS_CHECK_TOL * (1.0 + spectral_norm(surplus)):
        raise InconsistentRoutes(
            f"Schur-complement gap and surplus disagree under the congruence "
            f"(mismatch {mismatch:.3e})"
        )
    return gap
