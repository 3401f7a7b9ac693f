"""Solution-set computation for the Riccati equality, extremal storage
operators, and the adjoint-inversion duality.

:func:`solve_re` is the one dispatch point, with three exact routes for
systems of every dimension, scalar ones included. Each runs on the system
without its constant isometric channels (see :func:`_without_unit_channels`),
whose KYP LMI is the original one with zero rows and columns removed.

* A system whose extended symplectic pencil decides the equality set (see
  :mod:`riccati_kyp.pencil`: regular, no eigenvalue near the unit circle,
  n eigenvalue pairs whose nonzero inside members are distinct, a zero
  eigenvalue paired with an infinite one) goes to the pencil: one
  generalized eigenvalue problem gives the 2**(n - z) Hermitian solutions,
  one per selection of an eigenvalue from each (lambda, 1/conj(lambda))
  pair with each of the z zero eigenvalues kept, and one membership-kernel
  call validates them. On a non-minimal system a selection whose V1 is
  singular stands for a solution that is infinite on an uncontrollable
  direction, and is dropped.
* A minimal system whose ordered QZ (:func:`riccati_kyp.pencil.extremal`)
  gives no candidate is tested for losslessness, as
  :func:`minimal_solution` tests it: a lossless system (inner or co-inner)
  has a singular pencil, so only such a system can be one. Its Stein
  equation ``X = A* X A + C* C``, or its adjoint's, decides (see
  :func:`_lossless_solution`): its inequality set is one point, and the
  set holds that point when it passes membership.
* Any other system (a Popov function that vanishes on the circle, a
  singular pencil that is not lossless, a non-minimal system whose pencil
  does not decide) gets the extremal pair: the ordered-QZ minimal solution
  of the system and the inverse of its adjoint's (see
  :func:`_extremal_set`), validated the same way.

Every set is ordered deterministically and records its ``route``. It is
labelled ``complete`` only when the system is minimal, the route is the
pencil or the Stein equation, which are exhaustive, and every candidate
passed. Every fact of a realization is decided once and kept by it
(:func:`riccati_kyp.systems._memo`): its minimality
(:func:`riccati_kyp.systems.is_minimal`), which the kernel reads too, its
adjoint (:func:`riccati_kyp.systems.adjoint`), its ordered-QZ candidate,
and here its reduction without constant isometric channels
(:func:`_without_unit_channels`) and its Stein test
(:func:`_inner_solution`), so a system and its adjoint solve one Stein
equation each.

Loops over candidates go through the stacked membership kernel of
:mod:`riccati_kyp.riccati` with one call per batch: the candidates of a
route, the inverses of the duality samples, and the points of the sampler's
chain. The members of a set are built from the batched eigendecomposition
the kernel takes of the candidate stack (``riccati._storage_stack``), whose
last eigenvalue is each member's norm. A decided pencil set takes its order
from the selection digits: its members form a lattice isomorphic to the
subsets of the selected outside eigenvalues (Lancaster & Rodman), so two
members compare as the sets of their 1-digits do (see :func:`_digit_order`).
Only the covering pairs, one digit apart, are compared numerically, and a
set where one of them is not LESS_EQUAL falls back to
:func:`order_solutions`, which compares all member pairs from one spectrum
per pair, as it does for every other set. Either way the order is held as
one small-int code per pair (its index in ``linops._VERDICTS``), which
``SolutionSet.comparisons`` reads as verdicts; a set ordered by its digits
is flagged ``_lattice``, so a report can name its order and list no pair.

Inequality members are sampled by hit-and-run over the KYP LMI
``L(H) = [[alpha, -beta*], [-beta, delta]] >= 0``, which is affine in H, so
the feasible chord along a direction is read off one small eigenvalue
problem and no candidate is rejected (see :func:`sample_ri_members`). The
chain needs a point with L(H) positive definite: the anchors' mean when it
is one, and otherwise the phase-I point of a barrier Newton iteration. When
the LMI has no such point (the transfer function reaches norm 1 on the
circle, as for inner and co-inner systems), the samples are copies of the
anchors' mean. Each move of the chain reuses the eigendecomposition that
gave its chord to factor the next point (see :func:`_chord_step`). The
duality check takes the copies at once when its extremal pair is
Loewner-equal, since RI, which lies between the pair, is then one point.

The minimal storage operator, also taken without the constant isometric
channels, comes from one of two exact O(n**3) routes:
ordered QZ (:func:`riccati_kyp.pencil.extremal`) on a regular pencil, after
an exact Schur-class test on its eigenvalues, and the Stein solution of a
lossless system. It is certified deterministically (Lancaster & Rodman,
*Algebraic Riccati Equations*, 1995): it must be an equality member, and
its closed loop ``A + B pinv(delta) beta`` must have spectral radius at
most ``1 + EQUALITY_TOL``; sampling plays no part in it. The maximal one is
the inverse of the adjoint system's minimal one. :func:`duality_check` runs
the inversion checks on samples anchored at the extremal pair and on both
equality sets, an independent cross-check. Its work is :func:`_duality`,
which takes the pair, and optionally the system's equality set, from a
caller that already has them, so a CLI command computes each equality set
and certifies each minimal solution once.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CertificateFailed,
    InconsistentRoutes,
    NotMinimal,
    NotPD,
    NotSchurClass,
)
from .linops import (
    _VERDICTS,
    Loewner,
    _least_and_norm,
    _loewner_stack,
    _pinv_kept,
    _spectral_norms,
    hermitian_part,
    loewner_compare,
    spectral_norm,
)
from .riccati import (
    RANK_TOL,
    MembershipVerdict,
    StorageOperator,
    _lmi,
    _membership_stack,
    _residual_ops,
    _storage_stack,
    _surplus,
    as_storage,
    membership,
)
from .pencil import CIRCLE_GAP, equality_candidates, extremal
from .systems import (
    SystemRealization,
    _gram_eigs,
    _memo,
    _pole_angle,
    _transfer_grid,
    adjoint,
    is_minimal,
)

__all__ = [
    "SolverConfig",
    "SolutionSet",
    "DualityReport",
    "re_residual_norm",
    "solve_re",
    "minimal_solution",
    "maximal_solution",
    "duality_check",
    "order_solutions",
    "sample_ri_members",
]


# Solver parameters that no caller varies.
MAX_DIM = 6  # largest state dimension solve_re accepts
ORDER_TOL = 1e-9  # relative Loewner tolerance of a set's order
EQUALITY_TOL = 1e-8  # equality tolerance of membership tests on solver output
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

    The order is held as ``_order``, one int8 code per index pair (i, j),
    i < j, in ``np.triu_indices(len(members), 1)`` order, each the index of
    the pair's Loewner verdict in ``linops._VERDICTS`` (0 EQUAL, 1
    LESS_EQUAL, 2 GREATER_EQUAL, 3 INCOMPARABLE); it is empty until the set
    is ordered. The read-only ``comparisons`` is built from it on each
    access: a dict mapping each pair (i, j) to its verdict. ``_lattice`` is
    True only when :func:`_digit_order` gave the order, the subset order of
    the selection digits in the provenance labels.
    ``minimal_index``/``maximal_index`` are set when one member is below /
    above every other member. ``provenance`` records, per member, the solver
    route (``pencil(selection=...)``, ``lossless(inner)``,
    ``lossless(co-inner)``, ``extremal(minimal)`` or ``extremal(maximal)``)
    and the equality residual.
    ``route`` is the :func:`solve_re` route: ``pencil``, ``lossless`` or
    ``extremal``.

    ``complete`` is True only when the set is the whole equality set: the
    system is minimal and every candidate of an exhaustive route passed
    membership, the 2**(n - z) selections of a decided pencil or the one
    inequality member of a lossless system. Any other set is what was found,
    labelled incomplete.
    """

    members: list[StorageOperator] = field(default_factory=list)
    minimal_index: int | None = None
    maximal_index: int | None = None
    provenance: list[dict] = field(default_factory=list)
    route: str | None = None
    complete: bool = False
    _order: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int8), repr=False, compare=False
    )
    _lattice: bool = field(default=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def comparisons(self) -> dict[tuple[int, int], Loewner]:
        """The Loewner verdict of each index pair (i, j), i < j, of an
        ordered set; empty before the set is ordered."""
        iu, ju = _upper(len(self.members))
        return dict(zip(zip(iu.tolist(), ju.tolist()), _VERDICTS[self._order].tolist()))


def re_residual_norm(sigma: SystemRealization, h) -> float:
    """Norm of the surplus ``alpha - beta* pinv(delta) beta`` at ``h``, formed
    as the membership kernel forms it; zero at equality solutions. Accepts
    any Hermitian weight, definite or not."""
    if isinstance(h, StorageOperator):
        hm = h.matrix
    else:
        hm = hermitian_part(np.atleast_2d(np.asarray(h, dtype=complex)))
    alpha, beta, delta = _residual_ops(sigma, hm)
    return spectral_norm(_surplus(alpha, beta, *np.linalg.eigh(delta)))


# -- Hermitian coordinates ----------------------------------------------------


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


@functools.cache
def _unit_directions(n: int) -> np.ndarray:
    """Read-only stack of the unit Hermitian directions, in packed order: the
    rows of the identity, unpacked."""
    e = _herm_unpack(np.eye(n * n), n)
    e.flags.writeable = False
    return e


# -- sampling -----------------------------------------------------------------


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
    low, norm = map(float, _least_and_norm(_lmi(*_residual_ops(sigma, center))))
    band = tol * max(1.0, norm)
    if low > band:
        return center
    e = _unit_directions(n)
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
    read off the eigenvalues of ``F^-1 L(E) F^-*`` for a factor ``L(H) = F
    F*`` (the Cholesky factor at the start), and the chain moves to a uniform
    point of the chord; the eigenvectors that gave the chord also give the
    next point's factor, with no new Cholesky factor or inverse (see
    :func:`_chord_step`). The chain starts at the anchors' mean when its LMI
    margin exceeds the membership band ``tol * max(1, ||L||)``, and
    otherwise at the phase-I point of :func:`_phase_one`. Each round draws
    all its directions in one generator call and all its chord positions in
    another, so a call runs one seeded chain, and validates its points by
    one membership-kernel call: a point is kept when it is in RI with a
    nonnegative LMI margin. The rare point that roundoff puts past a chord
    end (some ``1 + t mu`` not positive, or a failed validation) is dropped
    and drawn again by a further round; a round that keeps no point ends the
    chain.

    When no point clears the band, the samples are copies of the anchors'
    mean, a member by convexity. This happens when the LMI has an empty
    interior, because the transfer function reaches norm 1 on the unit
    circle; for an inner or co-inner system RI is one point and every chord
    has length zero. It also happens when the band, which grows with
    ||L||, is wider than any margin (cond(H) near 1e10), or when phase-I
    fails in floating point. :func:`_duality`, which knows from the extremal
    pair when RI is one point, takes these copies without running phase-I
    (see :func:`_ri_samples`).

    Raises NotMinimal on a non-minimal realization, whose RI can be
    unbounded.
    """
    return _ri_samples(sigma, count, rng, anchors, tol, one_point=False)


def _ri_samples(
    sigma: SystemRealization,
    count: int,
    rng: np.random.Generator,
    anchors: list[np.ndarray],
    tol: float,
    one_point: bool,
) -> list[np.ndarray]:
    """:func:`sample_ri_members`; with ``one_point``, from a caller that
    knows RI to be one point, the checked anchors followed by copies of
    their mean, which is what the chain gives when phase-I finds no
    interior, and no phase-I is run."""
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
    h = None if one_point else _phase_one(sigma, center, tol)
    if h is None:
        return samples + [center.copy() for _ in range(count - len(samples))]

    n = sigma.state_dim
    # the inverse of a factor F of L(h) = F F*
    f_inv = np.linalg.inv(np.linalg.cholesky(_lmi(*_residual_ops(sigma, h))))
    while len(samples) < count:
        steps = count - len(samples)
        g = rng.standard_normal((2, steps, n, n))
        dirs = hermitian_part(g[0] + 1j * g[1])
        positions = rng.uniform(size=steps)
        points = []
        for e, l_e, u in zip(dirs, _lmi_linear(sigma, dirs), positions):
            step = _chord_step(f_inv, l_e, u)
            if step is None:
                continue  # stay put
            t, f_inv = step
            h = h + t * e
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


def _chord_step(
    f_inv: np.ndarray, l_e: np.ndarray, u: float
) -> tuple[float, np.ndarray] | None:
    """One hit-and-run move from a point H whose LMI is ``L(H) = F F*``,
    with ``f_inv`` = F^-1, along a direction E with linear LMI part ``l_e``
    = L(E), to the position ``u`` in [0, 1) of its chord: ``(t, F'^-1)``
    with ``L(H + t E) = F' F'*``, or None when the chain stays put.

    The eigendecomposition ``U diag(mu) U*`` of ``F^-1 L(E) F^-*`` gives
    the chord, all t with every ``1 + t mu >= 0``, and ``F' = F U diag(1 + t
    mu)^1/2``. The chain stays put when the chord is not finite in floating
    point, or when roundoff at a chord end leaves some ``1 + t mu`` not
    positive."""
    mu, vecs = np.linalg.eigh(f_inv @ l_e @ f_inv.conj().T)
    if not mu[0] < 0.0 < mu[-1]:
        return None
    lo, hi = -1.0 / mu[-1], -1.0 / mu[0]
    t = lo + u * (hi - lo)
    scale = 1.0 + t * mu
    if not scale.min() > 0.0:
        return None
    return t, (vecs.conj().T @ f_inv) / np.sqrt(scale)[:, None]


# -- public solvers -----------------------------------------------------------


def _solution_sort_key(h: np.ndarray):
    """Order members by trace, then entry-wise. The trace is rounded to 9
    significant digits, so members whose traces agree in exact arithmetic
    are ordered by their entries, not by the roundoff of the trace.
    :func:`_sorted_order` sorts a whole stack by this key at once; the
    tests hold it to this one-member form."""
    return (
        float(f"{np.real(np.trace(h)):.8e}"),
        tuple(h.real.ravel()),
        tuple(h.imag.ravel()),
    )


def _sorted_order(stack: np.ndarray) -> np.ndarray:
    """The indices that sort the (k, n, n) ``stack`` as ``sorted`` does with
    :func:`_solution_sort_key`, from one ``np.lexsort``: its last key, the
    rounded trace, decides first, then the real entries and then the
    imaginary ones in C order. Both sorts are stable and compare floats
    with ``<``, so ties (-0.0 and 0.0 among them) keep stack order."""
    k, n = stack.shape[0], stack.shape[-1]
    traces = np.trace(stack, axis1=1, axis2=2).real.tolist()
    flat = stack.reshape(k, n * n)
    keys = np.concatenate(
        [flat.imag.T[::-1], flat.real.T[::-1], [[float(f"{t:.8e}") for t in traces]]]
    )
    return np.lexsort(keys)


def solve_re(
    sigma: SystemRealization, config: SolverConfig | None = None
) -> SolutionSet:
    """Find equality solutions; the one dispatch between the pencil,
    lossless and extremal routes of the module docstring, for systems of
    every dimension, scalar ones included, run on ``sigma`` without its
    constant isometric channels (:func:`_without_unit_channels`).

    A non-minimal system warns. A minimal system on the extremal route first
    passes the Schur-class test of :func:`_require_schur`. Members are
    sorted by trace and then by entries, so output order is independent of
    scheduling. Every route validates at ``config.membership_tol`` and
    ``EQUALITY_TOL``.
    """
    cfg = config or SolverConfig()
    n = sigma.state_dim
    if n > MAX_DIM:
        raise ValueError(f"state dimension {n} exceeds the solver cap {MAX_DIM}")
    sigma = _without_unit_channels(sigma)
    minimal = bool(is_minimal(sigma))
    if not minimal:
        warnings.warn(
            "equality solving on a non-minimal system; solution structure "
            "theory assumes minimality",
            RuntimeWarning,
            stacklevel=2,
        )
    found = equality_candidates(sigma)
    if found is not None:
        stack, labels, selections = found
        return _validated_set(
            sigma,
            cfg,
            stack,
            [f"pencil(selection={s})" for s in labels],
            "pencil",
            exhaustive=minimal and len(stack) == selections,
            digits=np.array([list(s) for s in labels]).reshape(len(labels), n) == "1",
        )
    # a lossless system has a singular pencil, so ordered QZ gives it no
    # candidate; the Stein equations are solved only then, as
    # minimal_solution solves them
    lossless = _lossless_solution(sigma) if minimal and extremal(sigma) is None else None
    if lossless is not None:
        kind, h, _, _ = lossless
        return _validated_set(
            sigma,
            cfg,
            h[None],
            [f"lossless({kind})"],
            "lossless",
            exhaustive=True,
        )
    return _extremal_set(sigma, cfg)


def _validated_set(
    sigma: SystemRealization,
    cfg: SolverConfig,
    stack: np.ndarray,
    labels: list[str],
    route: str,
    exhaustive: bool,
    digits: np.ndarray | None = None,
) -> SolutionSet:
    """The candidates on ``stack`` that pass membership, validated by one
    membership-kernel call; ``labels`` are their provenance routes. The set
    is complete when the stack is ``exhaustive`` (the whole equality set of
    a minimal system) and all of them pass. One ``eigh`` of the stack serves
    the kernel's positivity test and the members' storage operators.
    Members are sorted by :func:`_sorted_order`.

    ``digits``, one boolean row of selection digits per candidate of a
    decided pencil, gives the set its order by :func:`_digit_order`; any
    other set, or one whose covering pairs fail that check, is ordered by
    :func:`order_solutions`."""
    stack = np.asarray(stack, dtype=complex)
    w, v = np.linalg.eigh(stack)
    verdicts = _membership_stack(
        sigma,
        stack,
        tol=cfg.membership_tol,
        eq_tol=EQUALITY_TOL,
        eigh=(w, v),
    )
    kept = []
    for index, verdict in enumerate(verdicts):
        if isinstance(verdict, InconsistentRoutes):
            raise verdict
        if not isinstance(verdict, NotPD) and verdict.in_re:
            kept.append(index)
    kept = np.array(kept, dtype=np.intp)
    kept = kept[_sorted_order(stack[kept])]
    solution_set = SolutionSet(
        members=_storage_stack(stack[kept], eigh=(w[kept], v[kept])),
        provenance=[
            {
                "route": labels[index],
                "residual": verdicts[index].diagnostics.equality_residual,
            }
            for index in kept.tolist()
        ],
        route=route,
        complete=exhaustive and len(kept) == len(stack),
    )
    ordered = None if digits is None else _digit_order(solution_set, digits[kept])
    return order_solutions(solution_set) if ordered is None else ordered


def _extremal_set(sigma: SystemRealization, cfg: SolverConfig) -> SolutionSet:
    """The extremal route of :func:`solve_re`: the ordered-QZ minimal
    solution of ``sigma`` (:func:`riccati_kyp.pencil.extremal`, after the
    Schur-class test when ``sigma`` is minimal) and the inverse of its
    adjoint's when that is positive definite, the maximal one; the second is
    left out when the two are Loewner-equal. The set is never complete."""
    candidates, labels = [], []
    found = extremal(sigma)
    if found is not None:
        if is_minimal(sigma):
            _require_schur(sigma, found[1])
        candidates.append(found[0])
        labels.append("extremal(minimal)")
    found = extremal(adjoint(sigma))
    try:
        inv_sqrt = None if found is None else as_storage(found[0]).inv_sqrt
    except NotPD:  # H_max is infinite on the kernel of the adjoint's H_min
        inv_sqrt = None
    if inv_sqrt is not None:
        h_max = hermitian_part(inv_sqrt @ inv_sqrt)
        tol = EQUALITY_TOL * max(1.0, spectral_norm(h_max))
        if not candidates or loewner_compare(candidates[0], h_max, tol) != Loewner.EQUAL:
            candidates.append(h_max)
            labels.append("extremal(maximal)")
    stack = np.array(candidates).reshape(len(candidates), *sigma.a.shape)
    return _validated_set(sigma, cfg, stack, labels, "extremal", exhaustive=False)


@_memo
def _without_unit_channels(sigma: SystemRealization) -> SystemRealization:
    """``sigma`` without its constant isometric channels, or ``sigma`` when
    it has none, decided once per realization. When every input is one, the
    result has no inputs, and its equality is the Stein equation
    ``alpha(H) = 0``.

    A channel is an input direction u in the kernel of ``[B; I - D* D;
    C* D]`` (singular values cut at ``RANK_TOL * max(1, s_max)``), which T
    maps to the unit output ``D u`` at every point. With V the other inputs
    and W the outputs orthogonal to the ``D u``, ``(A, B V, W* C, W* D V)``
    has ``alpha(H)``, ``V* beta(H)`` and ``V* delta(H) V``, as ``beta(H) u``
    and ``delta(H) u`` vanish: its KYP LMI is that of ``sigma`` without zero
    rows and columns, with the same solution sets and minimality."""
    b, c, d = sigma.b, sigma.c, sigma.d
    m = sigma.input_dim
    _, s, vh = np.linalg.svd(np.vstack([b, np.eye(m) - d.conj().T @ d, c.conj().T @ d]))
    kept = s > RANK_TOL * max(1.0, s.max(initial=0.0))
    channels = m - int(kept.sum())
    if not channels:
        return sigma
    u, _, _ = np.linalg.svd(d @ vh[~kept].conj().T)
    v, w = vh[kept].conj().T, u[:, channels:]
    return SystemRealization(sigma.a, b @ v, w.conj().T @ c, w.conj().T @ d @ v)


def _hermitian_inverse(h: np.ndarray) -> np.ndarray:
    """The inverse of a Hermitian matrix, or of each on a stack, through its
    eigendecomposition, so that it is Hermitian to the last bit."""
    w, v = np.linalg.eigh(h)
    return hermitian_part((v / w[..., None, :]) @ v.conj().swapaxes(-1, -2))


def _lossless_solution(
    sigma: SystemRealization,
) -> tuple[str, np.ndarray, SystemRealization, np.ndarray] | None:
    """``("inner", X, sigma, X)`` or ``("co-inner", W^-1, adjoint, W)`` for a
    lossless system, else None: the kind, the one inequality member, and the
    system whose Stein equation was solved with its solution.

    The system is inner when :func:`_inner_solution` finds it so, with X its
    Stein solution, and X is then the one inequality member (Arlinskii
    2008). Otherwise it is co-inner when its adjoint is inner, with Stein
    solution ``W = A W A* + B B*``, and then its one inequality member is
    ``W^-1``. A lossless system has a singular pencil, so
    :func:`~riccati_kyp.pencil.extremal` leaves it here. Each realization
    solves its own Stein equation once, and the co-inner test reads the one
    adjoint that :func:`~riccati_kyp.systems.adjoint` keeps, so a system and
    its adjoint solve two Stein equations between them.
    """
    x = _inner_solution(sigma)
    if x is not None:
        return "inner", x, sigma, x
    adj = adjoint(sigma)
    w = _inner_solution(adj)
    if w is not None:
        return "co-inner", _hermitian_inverse(w), adj, w
    return None


@_memo
def _inner_solution(sigma: SystemRealization) -> np.ndarray | None:
    """The read-only solution X of the Stein equation ``X = A* X A + C* C``
    when ``sigma`` is inner, else None; decided once per realization.

    ``sigma`` is inner when ``beta(X) = D* C + B* X A`` and ``delta(X) = I -
    D* D - B* X B`` vanish; then alpha(X) vanishes too and the KYP LMI is
    zero at X. Each identity holds when its residual is within
    ``EQUALITY_TOL`` of zero relative to ``max(1, ||X||)``. The equation is
    solved by ``scipy.linalg.solve_discrete_lyapunov``. A pole on the circle
    (:func:`~riccati_kyp.systems._pole_angle`) gives None before the solve:
    an eigenvalue lambda of A with lambda lambda* = 1 makes the equation
    singular."""
    import scipy.linalg

    if _pole_angle(sigma) is not None:
        return None
    a, c = sigma.a, sigma.c
    try:
        x = hermitian_part(scipy.linalg.solve_discrete_lyapunov(a.conj().T, c.conj().T @ c))
    except np.linalg.LinAlgError:  # lambda mu* = 1 for eigenvalues off the circle
        return None
    _, beta, delta = _residual_ops(sigma, x)
    bound = EQUALITY_TOL * max(1.0, spectral_norm(x))
    if max(spectral_norm(beta), spectral_norm(delta)) > bound:
        return None
    x.flags.writeable = False
    return x


def _require_schur(sigma: SystemRealization, lam: np.ndarray) -> None:
    """Raise NotSchurClass unless the transfer function T of the minimal
    system ``sigma`` is in the Schur class, given the finite eigenvalues
    ``lam`` of its pencil (Boyd, Balakrishnan & Kabamba, Math. Control
    Signals Systems 1989). Each eigenvalue mu of A is a pole of T at 1/mu,
    so a pole in the closed disc, or within ``systems.POLE_TOL`` of it
    (:func:`~riccati_kyp.systems._pole_angle`), raises with norm inf. The
    pencil's circle eigenvalues ``exp(1j t)`` are the points ``exp(-1j t)``
    where a singular value of T is 1, so the norm at the midpoint of each
    arc between them, or at angle 0 when there are none, decides against
    ``1 + EQUALITY_TOL``. A singular resolvent at a test point counts as a
    pole there."""
    pole = _pole_angle(sigma, disc=True)
    if pole is not None:
        raise NotSchurClass(pole, np.inf)
    on_circle = lam[np.abs(np.abs(lam) - 1.0) <= CIRCLE_GAP]
    crossings = np.sort(-np.angle(on_circle) % (2.0 * np.pi))
    if crossings.size:
        arcs = np.diff(crossings, append=crossings[0] + 2.0 * np.pi)
        # rounded, so that a midpoint at 0 reads 0 and not 2 pi
        angles = np.round(crossings + 0.5 * arcs, 12) % (2.0 * np.pi)
    else:
        angles = np.zeros(1)
    values = _transfer_grid(
        sigma, np.exp(1j * angles), lambda _, i: NotSchurClass(angles[i], np.inf)
    )
    norms = np.sqrt(_gram_eigs(values).max(axis=1, initial=0.0))
    k = int(np.argmax(norms))
    if norms[k] > 1.0 + EQUALITY_TOL:
        raise NotSchurClass(angles[k], norms[k])


def minimal_solution(
    sigma: SystemRealization, config: SolverConfig | None = None
) -> StorageOperator:
    """The least storage operator among the inequality members, of ``sigma``
    without its constant isometric channels.

    One of two exact O(n**3) routes gives the candidate:

    * a regular pencil: ordered QZ (:func:`~riccati_kyp.pencil.extremal`,
      selection ``00...0`` of a decided pencil), after the Schur-class test
      of :func:`_require_schur`, which raises NotSchurClass;
    * a lossless system (inner or co-inner, singular pencil): the one
      inequality member, from a Stein equation (:func:`_lossless_solution`).

    The candidate is certified deterministically (Lancaster & Rodman,
    *Algebraic Riccati Equations*, 1995): it must be an equality member, and
    its closed loop ``A + B pinv(delta) beta`` must have spectral radius at
    most ``1 + EQUALITY_TOL`` (see :func:`_certified`). CertificateFailed
    means one of the two failed, or that neither route applies.
    """
    cfg = config or SolverConfig()
    sigma = _without_unit_channels(sigma)
    if not is_minimal(sigma):
        raise NotMinimal("extremal solutions require a minimal system")
    found = extremal(sigma)
    if found is not None:
        _require_schur(sigma, found[1])
        return _certified(sigma, found[0], cfg)
    lossless = _lossless_solution(sigma)
    if lossless is None:
        no_route = "no exact route: singular pencil or V1, not lossless"
        raise CertificateFailed("minimal", np.nan, np.nan, no_route)
    _, h, system, x = lossless
    return _certified(sigma, h, cfg, loop=(system, x))


def _closed_loop_radius(sigma: SystemRealization, h: np.ndarray, tol: float) -> float:
    """Spectral radius of the closed loop ``A + B pinv(delta(H)) beta(H)``.

    The pseudo-inverse keeps the eigenvalues of delta above the membership
    band ``tol * max(1, ||L(H)||)``, so a delta that vanishes in exact
    arithmetic (an inner system) gives the open loop A, not a gain made of
    roundoff."""
    alpha, beta, delta = _residual_ops(sigma, h)
    band = tol * max(1.0, float(_least_and_norm(_lmi(alpha, beta, delta))[1]))
    w, v = np.linalg.eigh(delta)
    gain = _pinv_kept(w, v, w > band) @ beta
    return float(np.abs(np.linalg.eigvals(sigma.a + sigma.b @ gain)).max())


def _certified(
    sigma: SystemRealization,
    h: np.ndarray,
    cfg: SolverConfig,
    loop: tuple[SystemRealization, np.ndarray] | None = None,
) -> StorageOperator:
    """``h`` as the minimal solution, once it is an equality member at
    ``cfg.membership_tol`` and ``EQUALITY_TOL`` and its closed-loop radius is
    at most ``1 + EQUALITY_TOL``; CertificateFailed otherwise. Of the 2**n
    selections of a decided pencil only the minimal one has a closed loop in
    the closed disc (on the two-state example: radius 0.866 at H_min, 1.155
    at the other three).

    The loop is that of ``sigma`` at ``h`` unless ``loop`` gives another
    (system, weight) pair. The lossless route passes its Stein system and
    solution, where delta vanishes and the loop is the open loop. For a
    co-inner system with m > p, delta(H) at the one member has a kernel of
    dimension p, the gain is not unique there, and the pseudo-inverse gain
    can give a loop of radius above one; the kernel of the LMI at H is
    swept by the adjoint's dynamics, whose delta vanishes at H^-1."""
    radius = _closed_loop_radius(*(loop or (sigma, h)), cfg.membership_tol)
    try:
        storage = as_storage(h)
    except NotPD as exc:
        raise CertificateFailed(
            "minimal",
            radius,
            re_residual_norm(sigma, h),
            f"minimal solution candidate is not positive definite ({exc})",
        ) from exc
    verdict = membership(sigma, storage, tol=cfg.membership_tol, eq_tol=EQUALITY_TOL)
    if not verdict.in_re or radius > 1.0 + EQUALITY_TOL:
        raise CertificateFailed("minimal", radius, verdict.diagnostics.equality_residual)
    return storage


def maximal_solution(
    sigma: SystemRealization, config: SolverConfig | None = None
) -> StorageOperator:
    """The greatest storage operator among the inequality members.

    By the adjoint-inversion duality this is the inverse of the adjoint
    system's minimal solution, whose certificate covers it; a failed one is
    raised with side ``"maximal"``. The adjoint's transfer function is
    ``T_adj(exp(1j t)) = T(exp(-1j t))*``, so a NotSchurClass of the adjoint
    at angle t is raised at angle ``-t mod 2 pi``, where ``sigma``'s own
    transfer function has that norm.
    """
    try:
        minimal_adj = minimal_solution(adjoint(sigma), config)
    except CertificateFailed as exc:
        raise CertificateFailed(
            "maximal", exc.radius, exc.equality_residual, f"adjoint system: {exc}"
        ) from exc
    except NotSchurClass as exc:
        raise NotSchurClass(-exc.angle % (2.0 * np.pi), exc.norm) from exc
    return as_storage(hermitian_part(minimal_adj.inv_sqrt @ minimal_adj.inv_sqrt))


@dataclass
class DualityReport:
    """Outcome of the adjoint-inversion checks.

    ``samples_ok[i]`` records whether the i-th sampled inequality member's
    inverse passed membership for the adjoint system. ``re_inversion_equal``
    records whether inverting the equality set reproduced the adjoint's
    equality set; the theory does not promise it does. The two equality
    sets are (k, n, n) complex stacks.
    """

    sample_count: int
    samples_ok: list[bool]
    failure_count: int
    re_inversion_equal: bool
    re_members: np.ndarray
    re_adjoint_members: np.ndarray


def _sets_match(f: np.ndarray, g: np.ndarray, tol: float) -> bool:
    """Whether each member of the stack ``f`` matches a distinct member of
    the stack ``g`` within ``tol * (1 + ||f||)``, taking the first unused
    hit in order.

    Since ``||X||_2 <= ||X||_F <= sqrt(n) ||X||_2``, the Frobenius norm of a
    difference decides the pair when it is below half the threshold or above
    twice ``sqrt(n)`` times it (the factor 2 covers roundoff); only the pairs
    in between take a spectral norm, in one batched call."""
    if len(f) != len(g):
        return False
    if not len(f):
        return True
    diff = f[:, None] - g[None]
    limit = np.broadcast_to((tol * (1.0 + _spectral_norms(f)))[:, None], diff.shape[:2])
    fro = np.linalg.norm(diff, axis=(2, 3))
    close = fro <= 0.5 * limit
    unsure = ~close & (fro <= 2.0 * np.sqrt(f.shape[1]) * limit)
    if np.any(unsure):
        close[unsure] = _spectral_norms(diff[unsure]) <= limit[unsure]
    unused = list(range(len(g)))
    for row in close.tolist():
        hit = next((j for j in unused if row[j]), None)
        if hit is None:
            return False
        unused.remove(hit)
    return True


def duality_check(
    sigma: SystemRealization, config: SolverConfig | None = None
) -> DualityReport:
    """Verify inversion duality on samples and compare the equality sets.

    For sampled inequality members H of the system, checks that H^{-1} is an
    inequality member of the adjoint system with a minimal associated system.
    Also computes both equality sets and reports whether inversion maps one
    onto the other (it need not). The samples are anchored at the extremal
    pair of :func:`minimal_solution` and :func:`maximal_solution`. The work
    is that of :func:`_duality`, which a caller that already holds the pair,
    or the system's equality set, calls with them.
    """
    cfg = config or SolverConfig()
    if not is_minimal(sigma):
        raise NotMinimal("the duality statements assume a minimal system")
    extremes = minimal_solution(sigma, cfg), maximal_solution(sigma, cfg)
    return _duality(sigma, cfg, extremes)


def _duality(
    sigma: SystemRealization,
    cfg: SolverConfig,
    extremes: tuple[StorageOperator, StorageOperator],
    re_set: SolutionSet | None = None,
) -> DualityReport:
    """The checks of :func:`duality_check` on the minimal system ``sigma``,
    given its extremal pair ``extremes`` = (minimal, maximal): the sampled
    members anchored at the pair are inverted and tested for the adjoint,
    and the adjoint's equality set is solved and compared with ``re_set``,
    the system's own, which is solved here when None.

    Every member H of RI has ``H_min <= H <= H_max`` (Arov, Kaashoek & Pik
    2006; Arlinskii 2008), so RI is one point exactly when the pair is
    Loewner-equal, tested as :func:`_extremal_set` tests it, at
    ``EQUALITY_TOL * max(1, ||H_max||)``. Then the samples are the checked
    anchors and copies of their mean, with no phase-I search for an interior
    that does not exist (see :func:`_ri_samples`); any other pair goes to
    :func:`sample_ri_members`."""
    adj = adjoint(sigma)
    h_min, h_max = extremes
    anchors = [h_min.matrix, h_max.matrix]
    tol = EQUALITY_TOL * max(1.0, spectral_norm(h_max.matrix))
    rng = np.random.default_rng(cfg.seed + 7)
    if loewner_compare(h_min.matrix, h_max.matrix, tol) == Loewner.EQUAL:
        samples = _ri_samples(
            sigma, cfg.duality_samples, rng, anchors, cfg.membership_tol, one_point=True
        )
    else:
        samples = sample_ri_members(
            sigma, cfg.duality_samples, rng, anchors=anchors, tol=cfg.membership_tol
        )

    samples_ok: list[bool] = []
    if samples:
        for verdict in _membership_stack(
            adj, _hermitian_inverse(np.array(samples)), tol=cfg.membership_tol
        ):
            if isinstance(verdict, InconsistentRoutes):
                raise verdict
            samples_ok.append(not isinstance(verdict, NotPD) and verdict.in_ri_circ)

    own = solve_re(sigma, cfg) if re_set is None else re_set  # an empty set is falsy
    re_members, re_adjoint_members = (
        np.array([m.matrix for m in s.members], dtype=complex).reshape(-1, *sigma.a.shape)
        for s in (own, solve_re(adj, cfg))
    )
    equal = _sets_match(_hermitian_inverse(re_members), re_adjoint_members, tol=1e-6)

    return DualityReport(
        sample_count=len(samples),
        samples_ok=samples_ok,
        failure_count=int(sum(1 for ok in samples_ok if not ok)),
        re_inversion_equal=equal,
        re_members=re_members,
        re_adjoint_members=re_adjoint_members,
    )


def _pair_verdicts(
    members: list[StorageOperator], first: np.ndarray, second: np.ndarray, tol: float
) -> np.ndarray:
    """The Loewner verdicts of the member pairs ``(first[k], second[k])``,
    each at ``tol * max(1, ||H_first||, ||H_second||)``, from one batched
    comparison; each norm is the last eigenvalue the StorageOperator holds."""
    stack = np.array([m.matrix for m in members])
    norms = np.maximum([m.eigenvalues[-1] for m in members], 1.0)
    return _loewner_stack(
        stack[first], stack[second], tol * np.maximum(norms[first], norms[second])
    )


# the code of each verdict: its index in _VERDICTS
_CODES = {verdict: code for code, verdict in enumerate(_VERDICTS.tolist())}


def _with_order(solution_set: SolutionSet, codes: np.ndarray) -> SolutionSet:
    """``solution_set`` with the verdict codes ``codes`` of its pairs (i, j),
    i < j, in :func:`_upper` order, not flagged as its digit lattice, and
    its extremal flags: a member is flagged minimal (maximal) when it
    compares below (above) every other member."""
    count = len(solution_set.members)
    iu, ju = _upper(count)
    # below[i, j]: H_i <= H_j; above[i, j]: H_i >= H_j
    below = np.eye(count, dtype=bool)
    above = np.eye(count, dtype=bool)
    below[iu, ju] = above[ju, iu] = codes <= 1  # EQUAL or LESS_EQUAL
    above[iu, ju] = below[ju, iu] = (codes == 0) | (codes == 2)  # or GREATER_EQUAL

    def first(rows: np.ndarray) -> int | None:
        hits = np.flatnonzero(rows.all(axis=1))
        return int(hits[0]) if hits.size else None

    return replace(
        solution_set,
        minimal_index=first(below),
        maximal_index=first(above),
        _order=codes.astype(np.int8),
        _lattice=False,
    )


def _digit_order(solution_set: SolutionSet, digits: np.ndarray) -> SolutionSet | None:
    """The order of a pencil set read off its selection digits, one boolean
    row per member, or None when the check below fails.

    The Hermitian solutions of a decided pencil form a lattice isomorphic to
    the subsets of the selected outside eigenvalues (Lancaster & Rodman,
    *Algebraic Riccati Equations*, 1995), so ``H_i <= H_j`` exactly when the
    1-digits of member i are among those of member j, and two members whose
    1-digits are not nested are incomparable. The covering pairs, whose
    selections differ in one digit (n 2**(n - 1) of the 2**n (2**n - 1) / 2
    pairs of a full set), are checked as :func:`order_solutions` compares
    them; unless each is LESS_EQUAL the set is left to it."""
    ones = digits.astype(int)
    # nested[i, j]: the 1-digits of member i are among those of member j
    nested = ones @ (1 - ones).T == 0
    size = ones.sum(axis=1)
    lower, upper = np.nonzero(nested & (size[None, :] == size[:, None] + 1))
    if lower.size and (
        _pair_verdicts(solution_set.members, lower, upper, ORDER_TOL)
        != Loewner.LESS_EQUAL
    ).any():
        return None
    iu, ju = _upper(len(digits))
    # codes of LESS_EQUAL, GREATER_EQUAL and INCOMPARABLE in _VERDICTS
    codes = np.where(nested[iu, ju], 1, np.where(nested[ju, iu], 2, 3))
    return replace(_with_order(solution_set, codes), _lattice=True)


def order_solutions(solution_set: SolutionSet, tol: float = ORDER_TOL) -> SolutionSet:
    """Fill pairwise Loewner comparisons and flag extremal members.

    Pair (i, j) is compared as :func:`loewner_compare` does at the tolerance
    ``tol * max(1, ||H_i||, ||H_j||)``. Each member's norm is its largest
    eigenvalue, which its StorageOperator already holds, and all pairs go
    through one batched comparison that decomposes each difference once. A
    member is flagged minimal (maximal) when it compares below (above) every
    other member; with incomparable pairs present no flag may be set.

    :func:`solve_re` orders a pencil set by its selection digits instead
    (:func:`_digit_order`), checking only the covering pairs this way, and
    comes here for every other set and for a pencil set that fails that
    check; the tests check both routes against a pair-by-pair reference.
    """
    count = len(solution_set.members)
    iu, ju = _upper(count)
    verdicts = _pair_verdicts(solution_set.members, iu, ju, tol) if count > 1 else []
    codes = np.array([_CODES[verdict] for verdict in verdicts], dtype=np.int8)
    return _with_order(solution_set, codes)
