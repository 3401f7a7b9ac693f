"""Solution-set computation for the Riccati equality, extremal storage
operators, and the adjoint-inversion duality.

:func:`solve_re` is the one dispatch point, with three routes.

* A system with n = m = p = 1 goes to the closed form of
  :func:`solve_re_scalar`.
* A minimal system whose extended symplectic pencil decides the equality
  set (see :mod:`riccati_kyp.pencil`: regular, no eigenvalue near the unit
  circle, n distinct eigenvalue pairs) goes to the pencil: one generalized
  eigenvalue problem gives all 2**n Hermitian solutions, one per selection
  of an eigenvalue from each (lambda, 1/conj(lambda)) pair, and one
  membership-kernel call validates them. The set is labelled ``complete``
  when every selection passes.
* Any other system (inner or co-inner, a Popov function that vanishes on
  the circle, non-minimal) goes to multi-start Newton on the augmented
  feedback form: H satisfies the equality conditions exactly when there is a
  K with

      beta(H) = delta(H) K      and      alpha(H) = K* delta(H) K,

  together with H positive definite and delta(H) PSD. The augmented system
  is polynomial in (H, K), so Newton iteration on it stays smooth across
  rank changes of delta and reaches boundary solutions (delta singular) that
  a pseudo-inverse formulation would make non-differentiable. Converged
  points are validated through the membership test and deduplicated. The
  Newton Jacobian is linear in the direction (E, F), so it is one batched
  map over the stacks of unit H and K directions, not a loop over them.

Every set is ordered deterministically and records its ``route``; only the
pencil route can label a set complete.

Loops over candidates go through the stacked membership kernel of
:mod:`riccati_kyp.riccati` with one call per batch: the pencil selections,
the converged Newton points, the inverses of the duality samples, and the
points of the sampler's chain. The certificates compare against all their
samples, and :func:`order_solutions` compares all member pairs, in one
batched Loewner comparison each.

Inequality members are sampled by hit-and-run over the KYP LMI
``L(H) = [[alpha, -beta*], [-beta, delta]] >= 0``, which is affine in H, so
the feasible chord along a direction is read off one small eigenvalue
problem and no candidate is rejected (see :func:`sample_ri_members`). The
chain needs a point with L(H) positive definite: the anchors' mean when it
is one, and otherwise the phase-I point of a barrier Newton iteration. When
the LMI has no such point (the transfer function reaches norm 1 on the
circle, as for inner and co-inner systems), the samples are copies of the
anchors' mean.

The minimal storage operator is computed by the monotone fixed-point
iteration H <- A* H A + C* C + beta(H)* pinv(delta(H)) beta(H) started from
zero, Newton-polished, and certified against sampled inequality members.
The maximal one is the inverse of the adjoint system's minimal one.
:func:`duality_check` runs the inversion checks on samples anchored at the
extremal pair and on both equality sets. The three share a caller's optional
``solved`` list, so each equality set and each minimal solution is computed once.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CertificateFailed,
    InconsistentRoutes,
    IterationDiverged,
    NoConvergence,
    NotMinimal,
    NotPD,
    NotScalar,
    SingularResolvent,
)
from .linops import (
    Loewner,
    _eigh_kept,
    _loewner_stack,
    _pinv_kept,
    _spectral_norms,
    ensure_hermitian,
    hermitian_part,
    spectral_norm,
)
from .riccati import (
    RANK_TOL,
    MembershipVerdict,
    StorageOperator,
    _lmi,
    _membership_stack,
    _residual_ops,
    as_storage,
    membership,
)
from .pencil import equality_candidates
from .systems import SystemRealization, adjoint, is_minimal, schur_class_margin

__all__ = [
    "SolverConfig",
    "SolutionSet",
    "DualityReport",
    "re_residual_norm",
    "solve_re_scalar",
    "solve_re",
    "minimal_solution",
    "maximal_solution",
    "duality_check",
    "order_solutions",
    "sample_ri_members",
]


# Solver parameters that no caller varies.
MAX_DIM = 6  # largest state dimension solve_re accepts
STARTS = 30  # seeded random Newton starts besides the anchors and identities
ITER_TOL = 1e-12  # fixed point: relative drift that ends the iteration
FP_MAX_ITER = 10000
FP_DIVERGENCE_BOUND = 1e9
NEWTON_TOL = 1e-12  # augmented Newton: relative residual that converges
MAX_ITER = 60
DEDUP_TOL = 1e-7  # relative distance at which two Newton solutions are one
EQUALITY_TOL = 1e-8  # equality tolerance of membership tests on solver output
CERTIFICATE_SAMPLES = 40  # sampled inequality members per extremal certificate
CERTIFICATE_RE_DIM_CAP = 3  # up to this n, certificates also use the equality set
SCHUR_RADIUS = 0.95  # disc radius and grid of the early transfer-norm check
SCHUR_GRID = 24
PHASE_ONE_STEPS = 200  # sampler: phase-I Newton steps before the LMI counts as thin


@dataclass
class SolverConfig:
    """The solver settings callers vary: the RNG seed, the membership
    tolerance, and the number of duality samples."""

    seed: int = 0
    membership_tol: float = 1e-9
    duality_samples: int = 50


@dataclass
class SolutionSet:
    """Storage operators found by a solver, with pairwise order data.

    ``comparisons`` maps index pairs (i, j), i < j, to Loewner verdicts.
    ``minimal_index``/``maximal_index`` are set when one member is below /
    above every other member. ``provenance`` records, per member, the solver
    route (``pencil(selection=...)``, ``newton(start=...)`` or
    ``scalar-closed-form``), the final residual norm, and the iteration
    count. ``route`` is the :func:`solve_re` route: ``scalar-closed-form``,
    ``pencil`` or ``newton-multistart``.

    ``complete`` is True only when the set is the whole equality set: the
    pencil decided the system and every one of its 2**n selections passed
    membership. Any other set is what was found, labelled incomplete.
    """

    members: list[StorageOperator] = field(default_factory=list)
    comparisons: dict[tuple[int, int], Loewner] = field(default_factory=dict)
    minimal_index: int | None = None
    maximal_index: int | None = None
    provenance: list[dict] = field(default_factory=list)
    route: str | None = None
    complete: bool = False

    def __len__(self) -> int:
        return len(self.members)


def re_residual_norm(sigma: SystemRealization, h) -> float:
    """Norm of ``alpha - beta* pinv(delta) beta`` at ``h``; zero at equality
    solutions. Accepts any Hermitian weight, definite or not."""
    if isinstance(h, StorageOperator):
        hm = h.matrix
    else:
        hm = hermitian_part(np.atleast_2d(np.asarray(h, dtype=complex)))
    alpha, beta, delta = _residual_ops(sigma, hm)
    pinv = _pinv_kept(*_eigh_kept(delta, RANK_TOL))
    return spectral_norm(alpha - beta.conj().T @ pinv @ beta)


# -- augmented Newton ---------------------------------------------------------


@functools.cache
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row-major indices (i, j), i < j, of the upper triangle."""
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _herm_pack(m: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix, or of each on a stack: the
    diagonal, then (re, im) of the upper triangle row by row."""
    n = m.shape[-1]
    iu, ju = _upper(n)
    upper = m[..., iu, ju]
    out = np.empty(m.shape[:-2] + (n * n,))
    out[..., :n] = np.diagonal(m, axis1=-2, axis2=-1).real
    out[..., n::2] = upper.real
    out[..., n + 1::2] = upper.imag
    return out


def _herm_unpack(vec: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`_herm_pack`."""
    iu, ju = _upper(n)
    re, im = vec[..., n::2], vec[..., n + 1::2]
    m = np.zeros(vec.shape[:-1] + (n, n), dtype=complex)
    m[..., range(n), range(n)] = vec[..., :n]
    m[..., iu, ju] = re + 1j * im
    m[..., ju, iu] = re - 1j * im
    return m


def _pack_residual(phi1: np.ndarray, phi2: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian n x n and a complex m x n matrix, or of
    stacks of them; the unknowns (H, K) are packed the same way."""
    rect = phi2.reshape(*phi2.shape[:-2], -1)
    return np.concatenate([_herm_pack(phi1), rect.real, rect.imag], axis=-1)


def _unpack(vec: np.ndarray, n: int, m: int):
    """Inverse of :func:`_pack_residual` on (H, K) coordinates, or a stack."""
    hv, kv = vec[..., : n * n], vec[..., n * n:]
    k = kv[..., : m * n] + 1j * kv[..., m * n:]
    return _herm_unpack(hv, n), k.reshape(vec.shape[:-1] + (m, n))


def _aug_residual(sigma: SystemRealization, h: np.ndarray, k: np.ndarray):
    """The packed residual of the augmented system at (H, K), and delta(H)."""
    alpha, beta, delta = _residual_ops(sigma, h)
    phi1 = hermitian_part(alpha - k.conj().T @ delta @ k)
    return _pack_residual(phi1, beta - delta @ k), delta


@functools.cache
def _unit_directions(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only stacks of the unit H and of the unit K directions, in
    packed order: the rows of the identity, unpacked."""
    e, f = _unpack(np.eye(n * n + 2 * m * n), n, m)
    e.flags.writeable = f.flags.writeable = False
    return e[: n * n], f[n * n:]


def _aug_jacobian(
    sigma: SystemRealization, k: np.ndarray, delta: np.ndarray
) -> np.ndarray:
    """Jacobian of :func:`_aug_residual` at (H, K), where
    ``delta = delta(H)``: its columns are the derivatives along the unit
    directions, mapped as one stack of H and one of K directions."""
    a_mat, b_mat = sigma.a, sigma.b
    e, f = _unit_directions(sigma.state_dim, sigma.input_dim)
    betab = b_mat.conj().T @ e @ b_mat
    d_phi1 = hermitian_part(e - a_mat.conj().T @ e @ a_mat + k.conj().T @ betab @ k)
    d_phi2 = b_mat.conj().T @ e @ a_mat + betab @ k
    jac_h = _pack_residual(d_phi1, d_phi2)
    d_phi1 = hermitian_part(
        -f.conj().swapaxes(-1, -2) @ delta @ k - k.conj().T @ delta @ f
    )
    jac_k = _pack_residual(d_phi1, -delta @ f)
    return np.concatenate([jac_h, jac_k]).T


def _newton_equality(
    sigma: SystemRealization,
    h0: np.ndarray,
    tol: float,
    max_iter: int,
):
    """Damped Newton iteration on the augmented equality system.

    Returns (h, residual_norm, iterations, converged). Rank-deficient
    Jacobians (delta singular at the solution) are handled by least-squares
    steps.
    """
    h = hermitian_part(h0)
    _, beta0, delta0 = _residual_ops(sigma, h)
    k = _pinv_kept(*_eigh_kept(delta0, RANK_TOL)) @ beta0

    res, delta = _aug_residual(sigma, h, k)
    res_norm = float(np.linalg.norm(res))
    iters = 0
    for iters in range(1, max_iter + 1):
        scale = 1.0 + float(np.linalg.norm(h))
        if res_norm <= tol * scale:
            return h, res_norm, iters - 1, True
        step, *_ = np.linalg.lstsq(_aug_jacobian(sigma, k, delta), -res, rcond=None)
        step_h, step_k = _unpack(step, sigma.state_dim, sigma.input_dim)

        damping = 1.0
        improved = False
        for _ in range(12):
            h_new = hermitian_part(h + damping * step_h)
            k_new = k + damping * step_k
            res_new, delta_new = _aug_residual(sigma, h_new, k_new)
            new_norm = float(np.linalg.norm(res_new))
            if new_norm < res_norm:
                h, k, delta = h_new, k_new, delta_new
                res, res_norm = res_new, new_norm
                improved = True
                break
            damping *= 0.5
        if not improved:
            break
    scale = 1.0 + float(np.linalg.norm(h))
    return h, res_norm, iters, res_norm <= tol * scale


# -- fixed-point iteration ----------------------------------------------------


def _fixed_point_solve(sigma: SystemRealization):
    """Iterate H <- A* H A + C* C + beta* pinv(delta) beta from zero.

    The iterates increase monotonically toward the least inequality member
    whenever one exists; this convergence claim is validated empirically by
    certificates downstream, not assumed.
    """
    n = sigma.state_dim
    a_mat, c_mat = sigma.a, sigma.c
    h = np.zeros((n, n), dtype=complex)
    for _ in range(FP_MAX_ITER):
        _, beta, delta = _residual_ops(sigma, h)
        pinv = _pinv_kept(*_eigh_kept(delta, RANK_TOL))
        h_next = hermitian_part(
            a_mat.conj().T @ h @ a_mat
            + c_mat.conj().T @ c_mat
            + beta.conj().T @ pinv @ beta
        )
        drift = spectral_norm(h_next - h)
        h = h_next
        if spectral_norm(h) > FP_DIVERGENCE_BOUND:
            raise IterationDiverged(
                f"fixed-point iterates exceeded {FP_DIVERGENCE_BOUND:.1e} in norm"
            )
        if drift <= ITER_TOL * (1.0 + spectral_norm(h)):
            return h
    raise IterationDiverged(
        f"fixed-point iteration did not settle within {FP_MAX_ITER} steps"
    )


# -- sampling and certificates ------------------------------------------------


def _random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(g / np.sqrt(2.0))


def _lmi_linear(sigma: SystemRealization, e: np.ndarray) -> np.ndarray:
    """The linear part of the KYP LMI, ``L(H + E) - L(H)``, for a Hermitian
    direction E or for each on a stack."""
    a, b = sigma.a, sigma.b
    ea = e @ a
    return _lmi(e - a.conj().T @ ea, b.conj().T @ ea, -(b.conj().T @ e @ b))


def _phase_one(sigma: SystemRealization, center: np.ndarray, tol: float):
    """A point whose LMI margin exceeds the membership band
    ``tol * max(1, ||L(center)||)``, found from ``center``, or None when the
    LMI has no such point.

    ``center`` itself is returned when its margin exceeds the band.
    Otherwise damped Newton runs on the barrier ``-t s - log det(L(H) - s I)``
    over (H, s), with the gradient and Hessian taken as one batched map over
    the unit H directions and s, and ``t`` grows tenfold at each centred
    iterate (Boyd, El Ghaoui, Feron & Balakrishnan, *LMIs in System and
    Control Theory*, 1994, sec. 2.4). The first iterate with ``s`` above the
    band whose ``L(H) - s I`` has a Cholesky factor is returned. None means
    the central path came within the band of the optimum with ``s`` still
    below it, so no point clears twice the band, or that an LMI too
    ill-conditioned for double precision sent an iterate out of the
    feasible set.
    """
    n, size = sigma.state_dim, sigma.state_dim + sigma.input_dim
    lmat = _lmi(*_residual_ops(sigma, center))
    low = float(np.linalg.eigvalsh(lmat)[0])
    band = tol * max(1.0, spectral_norm(lmat))
    if low > band:
        return center
    e, _ = _unit_directions(n, sigma.input_dim)
    eye = np.eye(size)
    dirs = np.concatenate([_lmi_linear(sigma, e), -eye[None]])
    # a margin is at most 1 (delta(H) <= I for H >= 0), so s starts one unit
    # below the centre's margin and t at the barrier's degree n + m
    x = np.append(_herm_pack(center), low - 1.0)
    weight = float(size)
    for _ in range(PHASE_ONE_STEPS):
        h = _herm_unpack(x[:-1], n)
        try:
            c_inv = np.linalg.inv(
                np.linalg.cholesky(_lmi(*_residual_ops(sigma, h)) - x[-1] * eye)
            )
        except np.linalg.LinAlgError:
            return None  # roundoff took the iterate out of the feasible set
        if x[-1] > band:
            return h
        g = c_inv @ dirs @ c_inv.conj().T
        flat = g.reshape(len(dirs), -1)
        grad = -np.trace(g, axis1=1, axis2=2).real
        grad[-1] -= weight
        step = np.linalg.solve((flat @ flat.conj().T).real, -grad)
        decrement = float(np.sqrt(max(-grad @ step, 0.0)))
        x = x + step / (1.0 + decrement)
        if decrement <= 0.25 and x[-1] <= band:  # centred: follow the path
            if size / weight <= band:
                return None
            weight *= 10.0
    return None


def sample_ri_members(
    sigma: SystemRealization,
    count: int,
    rng: np.random.Generator,
    anchors: list[np.ndarray],
    tol: float = 1e-9,
) -> list[np.ndarray]:
    """Sample inequality members by hit-and-run over the KYP LMI.

    The anchors are checked by :func:`membership`, and those in RI open the
    output. The rest comes from one hit-and-run chain (Smith, Oper. Res.
    1984) on ``L(H) = [[alpha, -beta*], [-beta, delta]] >= 0``, which is
    affine in H: from a point with L(H) positive definite, a Hermitian
    direction E has the feasible chord of all t with ``L(H) + t L(E) >= 0``,
    read off the eigenvalues of ``C^-1 L(E) C^-*`` for the Cholesky factor C
    of L(H), and the chain moves to a uniform point of the chord. The chain
    starts at the anchors' mean when its LMI margin exceeds the membership
    band ``tol * max(1, ||L||)``, and otherwise at the phase-I point of
    :func:`_phase_one`. Each round draws all its directions in one generator
    call and all its chord positions in another, so a call runs one seeded
    chain, and validates its points by one membership-kernel call: a point
    is kept when it is in RI with a nonnegative LMI margin. The rare point
    that roundoff puts past a chord end (L(H) not positive definite, or a
    failed validation) is dropped and drawn again by a further round; a
    round that keeps no point ends the chain.

    When no point clears the band, the samples are copies of the anchors'
    mean, a member by convexity. This happens when the LMI has an empty
    interior, because the transfer function reaches norm 1 on the unit
    circle; for an inner or co-inner system RI is one point and every chord
    has length zero. It also happens when the band, which grows with
    ||L||, is wider than any margin (cond(H) near 1e10), or when phase-I
    fails in floating point.

    Raises NotMinimal on a non-minimal realization, whose RI can be
    unbounded.
    """
    if not is_minimal(sigma):
        raise NotMinimal("sampling the inequality set requires a minimal system")
    good_anchors = []
    for anc in anchors:
        try:
            verdict = membership(sigma, anc, tol=tol)
        except NotPD:
            continue
        if verdict.in_ri:
            good_anchors.append(hermitian_part(np.asarray(anc, dtype=complex)))
    if not good_anchors:
        return []

    samples = [anc.copy() for anc in good_anchors[: max(count, 1)]]
    if len(samples) >= count:
        return samples[:count]
    center = sum(good_anchors) / len(good_anchors)
    h = _phase_one(sigma, center, tol)
    if h is None:
        return samples + [center.copy() for _ in range(count - len(samples))]

    n = sigma.state_dim
    lmat = _lmi(*_residual_ops(sigma, h))
    c_inv = np.linalg.inv(np.linalg.cholesky(lmat))
    while len(samples) < count:
        steps = count - len(samples)
        g = rng.standard_normal((2, steps, n, n))
        dirs = hermitian_part(g[0] + 1j * g[1])
        positions = rng.uniform(size=steps)
        points = []
        for e, l_e, u in zip(dirs, _lmi_linear(sigma, dirs), positions):
            mu = np.linalg.eigvalsh(c_inv @ l_e @ c_inv.conj().T)
            if not mu[0] < 0.0 < mu[-1]:
                continue  # no finite chord in floating point: stay put
            lo, hi = -1.0 / mu[-1], -1.0 / mu[0]
            t = lo + u * (hi - lo)
            try:
                c_next = np.linalg.cholesky(lmat + t * l_e)
            except np.linalg.LinAlgError:
                continue  # roundoff at a chord end: stay put
            h, lmat, c_inv = h + t * e, lmat + t * l_e, np.linalg.inv(c_next)
            points.append(h)
        kept = 0
        for point, verdict in zip(
            points, _membership_stack(sigma, np.array(points), tol=tol) if points else []
        ):
            if isinstance(verdict, InconsistentRoutes):
                raise verdict
            if (
                isinstance(verdict, MembershipVerdict)
                and verdict.in_ri
                and verdict.diagnostics.lmi_min_eig >= 0.0
            ):
                samples.append(point)
                kept += 1
        if not kept:
            break
    return samples[:count]


def _once(solved: list | None, kind: str, sigma: SystemRealization, config: SolverConfig):
    """``solve_re(sigma, config)`` for ``kind`` ``"solve_re"``, the certified
    minimal solution for ``"minimal"``; looked up first in ``solved``, the
    caller's list of (kind, realization, result) triples, and added to it."""
    for known_kind, known, result in solved or ():
        if known_kind == kind and all(
            np.array_equal(getattr(known, x), getattr(sigma, x)) for x in "abcd"
        ):
            return result
    if kind == "solve_re":
        result = solve_re(sigma, config)
    else:
        result = _certified_minimal(sigma, config, solved)
    if solved is not None:
        solved.append((kind, sigma, result))
    return result


def _certify_extremal(
    sigma: SystemRealization,
    candidate: np.ndarray,
    side: str,
    config: SolverConfig,
    solved: list | None,
) -> None:
    """Check the candidate against sampled inequality members and, up to the
    dimension cap, the equality set (see :func:`_once`); raise
    CertificateFailed on any violation."""
    with_re = sigma.state_dim <= CERTIFICATE_RE_DIM_CAP
    if with_re:
        re_set = _once(solved, "solve_re", sigma, config)
    rng = np.random.default_rng(config.seed + (1 if side == "minimal" else 2))
    samples = sample_ri_members(
        sigma,
        CERTIFICATE_SAMPLES,
        rng,
        anchors=[candidate],
        tol=config.membership_tol,
    )
    if with_re:
        samples = samples + [m.matrix for m in re_set.members]
    if not samples:
        return
    cmp_tol = 100.0 * config.membership_tol * max(1.0, spectral_norm(candidate))
    wanted = (
        (Loewner.LESS_EQUAL, Loewner.EQUAL)
        if side == "minimal"
        else (Loewner.GREATER_EQUAL, Loewner.EQUAL)
    )
    verdicts = _loewner_stack(
        ensure_hermitian(candidate),
        np.array([ensure_hermitian(sample) for sample in samples]),
        cmp_tol,
    )
    for idx, verdict in enumerate(verdicts):
        if verdict not in wanted:
            raise CertificateFailed(
                f"sampled inequality member {idx} is not on the "
                f"{side}-certified side (got {verdict.value})"
            )


# -- public solvers -----------------------------------------------------------


def solve_re_scalar(sigma: SystemRealization, tol: float = 1e-9) -> SolutionSet:
    """Closed-form equality solutions for one-dimensional systems.

    On the region where delta(h) > 0, clearing the denominator of
    ``alpha(h) = |beta(h)|^2 / delta(h)`` leaves a real polynomial of degree
    at most two; its positive roots are screened through the membership test
    at ``tol`` and ``EQUALITY_TOL``. The boundary point where delta vanishes is
    examined separately since the cleared polynomial does not decide it.
    :func:`solve_re` takes this route for every scalar system.
    """
    if not (sigma.state_dim == 1 and sigma.input_dim == 1 and sigma.output_dim == 1):
        raise NotScalar(
            f"closed form requires scalar dimensions, got "
            f"(n, m, p) = {(sigma.state_dim, sigma.input_dim, sigma.output_dim)}"
        )
    a = complex(sigma.a[0, 0])
    b = complex(sigma.b[0, 0])
    c = complex(sigma.c[0, 0])
    d = complex(sigma.d[0, 0])

    # alpha(h) = a1 h + a0, delta(h) = d1 h + d0, |beta(h)|^2 = q2 h^2 + q1 h + q0
    a1, a0 = 1.0 - abs(a) ** 2, -abs(c) ** 2
    d1, d0 = -abs(b) ** 2, 1.0 - abs(d) ** 2
    beta0 = np.conj(d) * c
    beta1 = np.conj(b) * a
    q2 = abs(beta1) ** 2
    q1 = 2.0 * float(np.real(np.conj(beta0) * beta1))
    q0 = abs(beta0) ** 2

    coeffs = np.array(
        [a1 * d1 - q2, a1 * d0 + a0 * d1 - q1, a0 * d0 - q0]
    )
    coeff_scale = max(1.0, float(np.abs(coeffs).max()))
    if float(np.abs(coeffs).max()) <= 1e-14 * coeff_scale:
        raise ValueError(
            "the equality degenerates to a continuum of solutions "
            "(uncontrollable and unobservable scalar system)"
        )

    candidates: list[float] = []
    nonzero = np.trim_zeros(coeffs, "f")
    if nonzero.size > 1:
        for root in np.roots(nonzero):
            if abs(root.imag) <= 1e-9 * (1.0 + abs(root.real)) and root.real > 1e-12:
                candidates.append(float(root.real))
    if abs(b) > 0:
        boundary = d0 / abs(b) ** 2  # where delta vanishes
        if boundary > 1e-12:
            candidates.append(float(boundary))

    members: list[StorageOperator] = []
    provenance: list[dict] = []
    for h in sorted(candidates):
        if any(abs(h - float(s.matrix[0, 0].real)) <= DEDUP_TOL * (1.0 + h)
               for s in members):
            continue
        try:
            verdict = membership(sigma, h, tol=tol, eq_tol=EQUALITY_TOL)
        except NotPD:
            continue
        if verdict.in_re:
            storage = as_storage(h)
            members.append(storage)
            provenance.append(
                {
                    "route": "scalar-closed-form",
                    "residual": re_residual_norm(sigma, storage.matrix),
                    "iterations": 0,
                }
            )
    return order_solutions(
        SolutionSet(members=members, provenance=provenance, route="scalar-closed-form")
    )


def _solution_sort_key(h: np.ndarray):
    """Order members by trace, then entry-wise. The trace is rounded to 9
    significant digits, so members whose traces agree in exact arithmetic
    are ordered by their entries, not by the roundoff of the trace."""
    return (
        float(f"{np.real(np.trace(h)):.8e}"),
        tuple(h.real.ravel()),
        tuple(h.imag.ravel()),
    )


def solve_re(
    sigma: SystemRealization, config: SolverConfig | None = None
) -> SolutionSet:
    """Find equality solutions; the one dispatch between solver routes.

    A scalar system (n = m = p = 1) is solved in closed form by
    :func:`solve_re_scalar`. A minimal system whose pencil decides (see
    :func:`riccati_kyp.pencil.equality_candidates`) takes the pencil route:
    its 2**n selections are validated by one membership-kernel call, distinct
    selections being distinct solutions, and the set is ``complete`` when
    all of them pass. Any other system goes to multi-start Newton on the
    augmented system. Its starts combine the fixed-point limit (the minimal
    candidate), the inverse of the adjoint's fixed-point limit (the maximal
    candidate), scaled identities, and seeded random Hermitian perturbations
    between the two extremal candidates; converged points are
    membership-validated and deduplicated at ``DEDUP_TOL * (1 + |trace|)``.
    Members are sorted by trace and then lexicographically by entries, so
    output order is independent of scheduling. Only the pencil route labels
    a set complete; the others return what they found. Every route
    validates at ``config.membership_tol`` and ``EQUALITY_TOL``.
    """
    cfg = config or SolverConfig()
    n = sigma.state_dim
    if n > MAX_DIM:
        raise ValueError(f"state dimension {n} exceeds the solver cap {MAX_DIM}")
    minimal = bool(is_minimal(sigma))
    if not minimal:
        warnings.warn(
            "equality solving on a non-minimal system; solution structure "
            "theory assumes minimality",
            RuntimeWarning,
            stacklevel=2,
        )
    if n == sigma.input_dim == sigma.output_dim == 1:
        return solve_re_scalar(sigma, tol=cfg.membership_tol)
    found = equality_candidates(sigma) if minimal else None
    if found is None:
        return _newton_multistart(sigma, cfg)
    return _pencil_set(sigma, cfg, *found)


def _pencil_set(
    sigma: SystemRealization, cfg: SolverConfig, stack: np.ndarray, labels: list[str]
) -> SolutionSet:
    """The pencil route of :func:`solve_re`: the candidates of every
    selection, validated by one membership-kernel call."""
    verdicts = _membership_stack(
        sigma, stack, tol=cfg.membership_tol, eq_tol=EQUALITY_TOL
    )
    validated: list[tuple[np.ndarray, float, str]] = []
    for h, label, verdict in zip(stack, labels, verdicts):
        if isinstance(verdict, InconsistentRoutes):
            raise verdict
        if isinstance(verdict, NotPD) or not verdict.in_re:
            continue
        validated.append((h, verdict.diagnostics.equality_residual, label))
    validated.sort(key=lambda t: _solution_sort_key(t[0]))
    return order_solutions(
        SolutionSet(
            members=[as_storage(h) for h, _, _ in validated],
            provenance=[
                {"route": f"pencil(selection={label})", "residual": res, "iterations": 0}
                for _, res, label in validated
            ],
            route="pencil",
            complete=len(validated) == len(stack),
        )
    )


def _newton_multistart(sigma: SystemRealization, cfg: SolverConfig) -> SolutionSet:
    """The Newton route of :func:`solve_re`, for any dimensions."""
    n = sigma.state_dim
    rng = np.random.default_rng(cfg.seed)

    anchors: list[np.ndarray] = []
    try:
        anchors.append(_fixed_point_solve(sigma))
    except IterationDiverged:
        pass
    try:
        h_adj = _fixed_point_solve(adjoint(sigma))
        w = np.linalg.eigvalsh(h_adj)
        if float(w[0]) > 1e-12 * max(float(np.abs(w).max()), 1.0):
            anchors.append(hermitian_part(np.linalg.inv(h_adj)))
    except IterationDiverged:
        pass

    eye = np.eye(n, dtype=complex)
    starts: list[np.ndarray] = list(anchors)
    starts.extend([eye, 0.25 * eye, 0.5 * eye, 2.0 * eye, 4.0 * eye])
    if len(anchors) == 2:
        starts.append(0.5 * (anchors[0] + anchors[1]))
        spread = max(spectral_norm(anchors[1] - anchors[0]), 0.1)
        base_lo, base_hi = anchors
    else:
        spread = 1.0
        base_lo = base_hi = anchors[0] if anchors else eye
    for _ in range(STARTS):
        lam = rng.uniform()
        base = lam * base_lo + (1.0 - lam) * base_hi
        starts.append(
            hermitian_part(
                base + rng.uniform(0.05, 0.6) * spread * _random_hermitian(rng, n)
            )
        )

    candidates: list[tuple[np.ndarray, float, int, str]] = []
    best_res = np.inf
    any_converged = False
    for idx, h0 in enumerate(starts):
        h, res, iters, ok = _newton_equality(
            sigma, h0, tol=NEWTON_TOL, max_iter=MAX_ITER
        )
        best_res = min(best_res, res)
        if not ok:
            continue
        # polish: a short second pass at full precision
        h, res, extra, _ = _newton_equality(
            sigma, h, tol=1e-14, max_iter=6
        )
        any_converged = True
        candidates.append((h, res, iters + extra, f"newton(start={idx})"))
    if not any_converged:
        raise NoConvergence(best_res)

    candidates.sort(key=lambda t: t[1])
    verdicts = _membership_stack(
        sigma,
        np.array([t[0] for t in candidates]),
        tol=cfg.membership_tol,
        eq_tol=EQUALITY_TOL,
    )
    validated: list[tuple[np.ndarray, float, int, str]] = []
    for (h, res, iters, route), verdict in zip(candidates, verdicts):
        if isinstance(verdict, InconsistentRoutes):
            raise verdict
        if isinstance(verdict, NotPD) or not verdict.in_re:
            continue
        dup = any(
            spectral_norm(h - u[0])
            <= DEDUP_TOL * (1.0 + abs(float(np.real(np.trace(u[0])))))
            for u in validated
        )
        if not dup:
            validated.append((h, res, iters, route))

    validated.sort(key=lambda t: _solution_sort_key(t[0]))
    members = [as_storage(h) for h, _, _, _ in validated]
    provenance = [
        {"route": route, "residual": res, "iterations": iters}
        for _, res, iters, route in validated
    ]
    return order_solutions(
        SolutionSet(members=members, provenance=provenance, route="newton-multistart")
    )


def _require_schur(sigma: SystemRealization) -> None:
    try:
        margin = schur_class_margin(
            sigma, grid_steps=SCHUR_GRID, radius=SCHUR_RADIUS
        )
    except SingularResolvent as exc:
        raise IterationDiverged(
            f"transfer function has a pole inside the sampled disc ({exc}); "
            f"no inequality member can exist"
        ) from exc
    if margin > 1.0 + 1e-8:
        raise IterationDiverged(
            f"transfer-function norm reaches {margin:.6f} > 1 on the sampled "
            f"disc; no inequality member can exist"
        )


def minimal_solution(
    sigma: SystemRealization,
    config: SolverConfig | None = None,
    solved: list | None = None,
) -> StorageOperator:
    """The least storage operator among the inequality members.

    Runs the monotone fixed-point iteration from zero, Newton-polishes the
    limit, verifies equality membership (the minimal member always satisfies
    the equality), and certifies minimality against hit-and-run sampled
    inequality members plus, for small dimensions, the full equality solution
    set. The iteration's convergence to the least member is an empirical
    claim validated by these certificates; CertificateFailed means a genuine
    violation was observed, not a tolerance hiccup.

    ``solved`` is an optional list of equality sets and certified minimal
    solutions computed with the same config (see :func:`_once`). The result
    is taken from it, or computed and added, and so is the certificate's
    equality set: a caller computing several extremal objects of one system
    solves each set and certifies each minimal solution once.
    """
    return _once(solved, "minimal", sigma, config or SolverConfig())


def _certified_minimal(
    sigma: SystemRealization, cfg: SolverConfig, solved: list | None
) -> StorageOperator:
    """The computation behind :func:`minimal_solution`, without the lookup."""
    if not is_minimal(sigma):
        raise NotMinimal("extremal solutions require a minimal system")
    _require_schur(sigma)

    h_fp = _fixed_point_solve(sigma)
    h, _, _, ok = _newton_equality(sigma, h_fp, tol=NEWTON_TOL, max_iter=MAX_ITER)
    if not ok:
        h = h_fp

    try:
        storage = as_storage(h)
    except NotPD as exc:
        raise CertificateFailed(
            "fixed-point limit is not positive definite"
        ) from exc
    verdict = membership(
        sigma, storage, tol=cfg.membership_tol, eq_tol=EQUALITY_TOL
    )
    if not verdict.in_re:
        raise CertificateFailed(
            f"fixed-point limit is not an equality solution "
            f"(equality residual {verdict.diagnostics.equality_residual:.3e})"
        )
    _certify_extremal(sigma, storage.matrix, "minimal", cfg, solved)
    return storage


def maximal_solution(
    sigma: SystemRealization,
    config: SolverConfig | None = None,
    solved: list | None = None,
) -> StorageOperator:
    """The greatest storage operator among the inequality members.

    By the adjoint-inversion duality this is the inverse of the adjoint
    system's minimal solution; the result is certified from above against
    sampled inequality members of the original system. ``solved`` is as in
    :func:`minimal_solution` and serves both the system and its adjoint.
    """
    cfg = config or SolverConfig()
    minimal_adj = minimal_solution(adjoint(sigma), cfg, solved)
    storage = as_storage(hermitian_part(minimal_adj.inv_sqrt @ minimal_adj.inv_sqrt))
    _certify_extremal(sigma, storage.matrix, "maximal", cfg, solved)
    return storage


@dataclass
class DualityReport:
    """Outcome of the adjoint-inversion checks.

    ``samples_ok[i]`` records whether the i-th sampled inequality member's
    inverse passed membership for the adjoint system. ``re_inversion_equal``
    records whether inverting the equality set reproduced the adjoint's
    equality set; the theory does not promise it does.
    """

    sample_count: int
    samples_ok: list[bool]
    failure_count: int
    re_inversion_equal: bool
    re_members: list[np.ndarray]
    re_adjoint_members: list[np.ndarray]


def _sets_match(
    first: list[np.ndarray], second: list[np.ndarray], tol: float
) -> bool:
    """Whether each member of ``first`` matches a distinct member of
    ``second`` within ``tol * (1 + ||f||)``, taking the first unused hit in
    order.

    Since ``||X||_2 <= ||X||_F <= sqrt(n) ||X||_2``, the Frobenius norm of a
    difference decides the pair when it is below half the threshold or above
    twice ``sqrt(n)`` times it (the factor 2 covers roundoff); only the pairs
    in between take a spectral norm, in one batched call."""
    if len(first) != len(second):
        return False
    if not first:
        return True
    f, g = np.array(first), np.array(second)
    diff = f[:, None] - g[None]
    limit = np.broadcast_to((tol * (1.0 + _spectral_norms(f)))[:, None], diff.shape[:2])
    fro = np.linalg.norm(diff, axis=(2, 3))
    close = fro <= 0.5 * limit
    unsure = ~close & (fro <= 2.0 * np.sqrt(f.shape[1]) * limit)
    if np.any(unsure):
        close[unsure] = _spectral_norms(diff[unsure]) <= limit[unsure]
    unused = list(range(len(second)))
    for row in close.tolist():
        hit = next((j for j in unused if row[j]), None)
        if hit is None:
            return False
        unused.remove(hit)
    return True


def duality_check(
    sigma: SystemRealization,
    config: SolverConfig | None = None,
    extremes: tuple[StorageOperator, StorageOperator] | None = None,
    solved: list | None = None,
) -> DualityReport:
    """Verify inversion duality on samples and compare the equality sets.

    For sampled inequality members H of the system, checks that H^{-1} is an
    inequality member of the adjoint system with a minimal associated system.
    Also computes both equality sets and reports whether inversion maps one
    onto the other (it need not). The samples are anchored at the extremal
    pair: ``extremes`` is (minimal, maximal) if the caller has it, and is
    computed here otherwise. ``solved`` is as in :func:`minimal_solution`;
    each equality set is solved at most once per call.
    """
    cfg = config or SolverConfig()
    if not is_minimal(sigma):
        raise NotMinimal("the duality statements assume a minimal system")
    adj = adjoint(sigma)
    solved = [] if solved is None else solved
    h_min, h_max = extremes or (
        minimal_solution(sigma, cfg, solved),
        maximal_solution(sigma, cfg, solved),
    )
    rng = np.random.default_rng(cfg.seed + 7)
    samples = sample_ri_members(
        sigma,
        cfg.duality_samples,
        rng,
        anchors=[h_min.matrix, h_max.matrix],
        tol=cfg.membership_tol,
    )

    def inverse(h: np.ndarray) -> np.ndarray:
        w, v = np.linalg.eigh(h)
        return hermitian_part((v / w[..., None, :]) @ v.conj().swapaxes(-1, -2))

    samples_ok: list[bool] = []
    if samples:
        for verdict in _membership_stack(
            adj, inverse(np.array(samples)), tol=cfg.membership_tol
        ):
            if isinstance(verdict, InconsistentRoutes):
                raise verdict
            samples_ok.append(not isinstance(verdict, NotPD) and verdict.in_ri_circ)

    re_members = [m.matrix for m in _once(solved, "solve_re", sigma, cfg).members]
    re_adjoint_members = [m.matrix for m in _once(solved, "solve_re", adj, cfg).members]
    inverted = [inverse(h) for h in re_members]
    equal = _sets_match(inverted, re_adjoint_members, tol=1e-6)

    return DualityReport(
        sample_count=len(samples),
        samples_ok=samples_ok,
        failure_count=int(sum(1 for ok in samples_ok if not ok)),
        re_inversion_equal=equal,
        re_members=re_members,
        re_adjoint_members=re_adjoint_members,
    )


def order_solutions(solution_set: SolutionSet, tol: float = 1e-9) -> SolutionSet:
    """Fill pairwise Loewner comparisons and flag extremal members.

    Pair (i, j) is compared as :func:`loewner_compare` does at the tolerance
    ``tol * max(1, ||H_i||, ||H_j||)``; all pairs go through one batched
    comparison. A member is flagged minimal (maximal) when it compares below
    (above) every other member; with incomparable pairs present no flag may
    be set.
    """
    members = solution_set.members
    count = len(members)
    comparisons: dict[tuple[int, int], Loewner] = {}
    # below[i, j]: H_i <= H_j; above[i, j]: H_i >= H_j
    below = np.eye(count, dtype=bool)
    above = np.eye(count, dtype=bool)
    if count > 1:
        stack = np.array([m.matrix for m in members])
        norms = np.maximum(_spectral_norms(stack), 1.0)
        iu, ju = np.triu_indices(count, 1)
        verdicts = _loewner_stack(
            stack[iu], stack[ju], tol * np.maximum(norms[iu], norms[ju])
        )
        for i, j, verdict in zip(iu.tolist(), ju.tolist(), verdicts):
            comparisons[(i, j)] = verdict
            below[i, j] = above[j, i] = verdict in (Loewner.LESS_EQUAL, Loewner.EQUAL)
            above[i, j] = below[j, i] = verdict in (Loewner.GREATER_EQUAL, Loewner.EQUAL)

    def first(rows: np.ndarray) -> int | None:
        hits = np.flatnonzero(rows.all(axis=1))
        return int(hits[0]) if hits.size else None

    return replace(
        solution_set,
        comparisons=comparisons,
        minimal_index=first(below),
        maximal_index=first(above),
    )
