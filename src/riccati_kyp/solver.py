"""Solution-set computation for the Riccati equality, extremal storage
operators, and the adjoint-inversion duality.

:func:`solve_re` is the one dispatch point. A system with n = m = p = 1 goes
to the closed form of :func:`solve_re_scalar`; any other system goes to
multi-start Newton on the augmented feedback form: H satisfies the equality
conditions exactly when there is a K with

    beta(H) = delta(H) K      and      alpha(H) = K* delta(H) K,

together with H positive definite and delta(H) PSD. The augmented system is
polynomial in (H, K), so Newton iteration on it stays smooth across rank
changes of delta and reaches boundary solutions (delta singular) that a
pseudo-inverse formulation would make non-differentiable. Converged points
are validated through the membership test, deduplicated, and ordered
deterministically. Each returned set records its ``route``. The Newton
Jacobian is linear in the direction (E, F), so it is one batched map over
the stacks of unit H and K directions, not a loop over them.

The minimal storage operator is computed by the monotone fixed-point
iteration H <- A* H A + C* C + beta(H)* pinv(delta(H)) beta(H) started from
zero, Newton-polished, and certified against rejection-sampled inequality
members. The maximal one is the inverse of the adjoint system's minimal one.
:func:`duality_check` runs the inversion checks on samples anchored at the
extremal pair and on both equality sets. The three take an optional
``solved`` list of equality sets, so that one caller solves each set once.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CertificateFailed,
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
    _pinv_kept,
    hermitian_part,
    loewner_compare,
    spectral_norm,
)
from .riccati import StorageOperator, _residual_ops, as_storage, membership
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
RANK_TOL = 1e-12  # relative rank cut when inverting delta(H)
DEDUP_TOL = 1e-7  # relative distance at which two Newton solutions are one
EQUALITY_TOL = 1e-8  # equality tolerance of membership tests on solver output
CERTIFICATE_SAMPLES = 40  # sampled inequality members per extremal certificate
CERTIFICATE_RE_DIM_CAP = 3  # up to this n, certificates also use the equality set
SCHUR_RADIUS = 0.95  # disc radius and grid of the early transfer-norm check
SCHUR_GRID = 24


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
    route, the final residual norm, and the iteration count. ``route`` is the
    :func:`solve_re` route: ``scalar-closed-form`` or ``newton-multistart``.
    """

    members: list[StorageOperator] = field(default_factory=list)
    comparisons: dict[tuple[int, int], Loewner] = field(default_factory=dict)
    minimal_index: int | None = None
    maximal_index: int | None = None
    provenance: list[dict] = field(default_factory=list)
    route: str | None = None

    def __len__(self) -> int:
        return len(self.members)


def re_residual_norm(sigma: SystemRealization, h, rank_tol: float = RANK_TOL) -> float:
    """Norm of ``alpha - beta* pinv(delta) beta`` at ``h``; zero at equality
    solutions. Accepts any Hermitian weight, definite or not."""
    if isinstance(h, StorageOperator):
        hm = h.matrix
    else:
        hm = hermitian_part(np.atleast_2d(np.asarray(h, dtype=complex)))
    alpha, beta, delta = _residual_ops(sigma, hm)
    pinv = _pinv_kept(*_eigh_kept(delta, rank_tol))
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


def sample_ri_members(
    sigma: SystemRealization,
    count: int,
    rng: np.random.Generator,
    anchors: list[np.ndarray],
    tol: float = 1e-9,
    require_margin: float | None = None,
) -> list[np.ndarray]:
    """Rejection-sample inequality members around known ones.

    Candidates are Hermitian perturbations of convex combinations of the
    anchors; the feasible set is convex (it is cut out by a linear matrix
    inequality in H), so combinations of members stay inside and hit rates
    remain workable. The perturbation scale shrinks on rejection streaks,
    which keeps the sampler effective even when the member set is a single
    point. Anchors that pass the test are included in the output. Sampling
    stops after ``400 * count`` candidates.
    """
    n = sigma.state_dim
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
    spread = max(
        max(spectral_norm(x - y) for x in good_anchors for y in good_anchors),
        0.25 * max(spectral_norm(x) for x in good_anchors),
    )
    misses = 0
    tries = 0
    while len(samples) < count and tries < 400 * count:
        tries += 1
        if len(good_anchors) >= 2:
            i, j = rng.integers(0, len(good_anchors), size=2)
            lam = rng.uniform()
            base = lam * good_anchors[i] + (1.0 - lam) * good_anchors[j]
        else:
            base = good_anchors[0]
        cand = hermitian_part(
            base + rng.uniform(0.0, 1.0) * spread * _random_hermitian(rng, n)
        )
        try:
            verdict = membership(sigma, cand, tol=tol)
        except NotPD:
            verdict = None
        accept = False
        if verdict is not None:
            if require_margin is None:
                accept = verdict.in_ri
            else:
                accept = verdict.diagnostics.lmi_min_eig >= require_margin
        if accept:
            samples.append(cand)
            misses = 0
        else:
            misses += 1
            if misses >= 25:
                spread *= 0.5
                misses = 0
    return samples[:count]


def _solve_re_once(
    sigma: SystemRealization, config: SolverConfig, solved: list | None
) -> SolutionSet:
    """``solve_re(sigma, config)``, looked up first in ``solved``, the caller's
    list of (realization, equality set) pairs, and added to it."""
    for known, re_set in solved or ():
        if all(np.array_equal(getattr(known, x), getattr(sigma, x)) for x in "abcd"):
            return re_set
    re_set = solve_re(sigma, config)
    if solved is not None:
        solved.append((sigma, re_set))
    return re_set


def _certify_extremal(
    sigma: SystemRealization,
    candidate: np.ndarray,
    side: str,
    config: SolverConfig,
    solved: list | None,
) -> None:
    """Check the candidate against sampled inequality members and, up to the
    dimension cap, the equality set (see :func:`_solve_re_once`); raise
    CertificateFailed on any violation."""
    with_re = sigma.state_dim <= CERTIFICATE_RE_DIM_CAP
    if with_re:
        re_set = _solve_re_once(sigma, config, solved)
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
    cmp_tol = 100.0 * config.membership_tol * max(1.0, spectral_norm(candidate))
    wanted = (
        (Loewner.LESS_EQUAL, Loewner.EQUAL)
        if side == "minimal"
        else (Loewner.GREATER_EQUAL, Loewner.EQUAL)
    )
    for idx, sample in enumerate(samples):
        verdict = loewner_compare(candidate, sample, tol=cmp_tol)
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
    return (
        float(np.real(np.trace(h))),
        tuple(h.real.ravel()),
        tuple(h.imag.ravel()),
    )


def solve_re(
    sigma: SystemRealization, config: SolverConfig | None = None
) -> SolutionSet:
    """Find equality solutions; the one dispatch between solver routes.

    A scalar system (n = m = p = 1) is solved in closed form by
    :func:`solve_re_scalar`, which returns the complete set. Any other
    system goes to multi-start Newton on the augmented system. Its starts
    combine the fixed-point limit (the minimal candidate), the inverse of the
    adjoint's fixed-point limit (the maximal candidate), scaled identities,
    and seeded random Hermitian perturbations between the two extremal
    candidates. Converged points are membership-validated, deduplicated at
    ``DEDUP_TOL * (1 + |trace|)``, and sorted by trace and then
    lexicographically by entries, so output order is independent of
    scheduling; the set is what was found, not claimed complete. Both routes
    validate at ``config.membership_tol`` and ``EQUALITY_TOL``.
    """
    cfg = config or SolverConfig()
    n = sigma.state_dim
    if n > MAX_DIM:
        raise ValueError(f"state dimension {n} exceeds the solver cap {MAX_DIM}")
    if not is_minimal(sigma):
        warnings.warn(
            "equality solving on a non-minimal system; solution structure "
            "theory assumes minimality",
            RuntimeWarning,
            stacklevel=2,
        )
    if n == sigma.input_dim == sigma.output_dim == 1:
        return solve_re_scalar(sigma, tol=cfg.membership_tol)
    return _newton_multistart(sigma, cfg)


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

    validated: list[tuple[np.ndarray, float, int, str]] = []
    for h, res, iters, route in sorted(candidates, key=lambda t: t[1]):
        try:
            verdict = membership(
                sigma, h, tol=cfg.membership_tol, eq_tol=EQUALITY_TOL
            )
        except NotPD:
            continue
        if not verdict.in_re:
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
    the equality), and certifies minimality against rejection-sampled
    inequality members plus, for small dimensions, the full equality solution
    set. The iteration's convergence to the least member is an empirical
    claim validated by these certificates; CertificateFailed means a genuine
    violation was observed, not a tolerance hiccup.

    ``solved`` is an optional list of (realization, :func:`solve_re` set)
    pairs solved with the same config. The certificate takes its equality set
    from it, or solves the set and adds it, so that a caller computing
    several extremal objects of one system solves each set once.
    """
    cfg = config or SolverConfig()
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
    if len(first) != len(second):
        return False
    unused = list(range(len(second)))
    for f in first:
        hit = None
        for j in unused:
            if spectral_norm(f - second[j]) <= tol * (1.0 + spectral_norm(f)):
                hit = j
                break
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
        require_margin=0.0,
    )

    def inverse(h: np.ndarray) -> np.ndarray:
        w, v = np.linalg.eigh(h)
        return hermitian_part((v / w) @ v.conj().T)

    samples_ok: list[bool] = []
    for h in samples:
        try:
            verdict = membership(adj, inverse(h), tol=cfg.membership_tol)
            samples_ok.append(bool(verdict.in_ri_circ))
        except NotPD:
            samples_ok.append(False)

    re_members = [m.matrix for m in _solve_re_once(sigma, cfg, solved).members]
    re_adjoint_members = [m.matrix for m in _solve_re_once(adj, cfg, solved).members]
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

    A member is flagged minimal (maximal) when it compares below (above)
    every other member; with incomparable pairs present no flag may be set.
    """
    members = solution_set.members
    comparisons: dict[tuple[int, int], Loewner] = {}
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            cmp_tol = tol * max(
                1.0, spectral_norm(members[i].matrix), spectral_norm(members[j].matrix)
            )
            comparisons[(i, j)] = loewner_compare(
                members[i].matrix, members[j].matrix, tol=cmp_tol
            )

    def _dominates(i: int, j: int) -> Loewner:
        if i < j:
            return comparisons[(i, j)]
        flipped = comparisons[(j, i)]
        if flipped is Loewner.LESS_EQUAL:
            return Loewner.GREATER_EQUAL
        if flipped is Loewner.GREATER_EQUAL:
            return Loewner.LESS_EQUAL
        return flipped

    minimal_index = None
    maximal_index = None
    for i in range(len(members)):
        if all(
            _dominates(i, j) in (Loewner.LESS_EQUAL, Loewner.EQUAL)
            for j in range(len(members))
            if j != i
        ):
            minimal_index = i
            break
    for i in range(len(members)):
        if all(
            _dominates(i, j) in (Loewner.GREATER_EQUAL, Loewner.EQUAL)
            for j in range(len(members))
            if j != i
        ):
            maximal_index = i
            break
    if len(members) == 1:
        minimal_index = maximal_index = 0

    return replace(
        solution_set,
        comparisons=comparisons,
        minimal_index=minimal_index,
        maximal_index=maximal_index,
    )
