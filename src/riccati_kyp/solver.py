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
(:func:`_without_unit_channels`), its Stein test (:func:`_inner_solution`)
and its lossless member (:func:`_lossless_solution`), so a system and its
adjoint solve one Stein equation each, and a co-inner member is inverted
once.

Loops over candidates go through the stacked membership kernel of
:mod:`riccati_kyp.riccati` with one call per batch, and read its verdict
table (``riccati.VerdictTable``) as masks: the candidates of a route are
the members where ``in_re`` holds, each with its ``equality_residual``; the
inverses of the distinct duality samples (a one-point RI gives copies of
one mean) give ``samples_ok`` as ``in_ri_circ``, read back for every copy;
and the sampler keeps the points of a round where ``in_ri & (lmi_min >=
0)`` holds. A candidate that is not positive definite reads False in every
mask, and the kernel itself raises the InconsistentRoutes of the first
candidate whose routes split. The kernel forms the range residual and
``||beta||`` only on the rows that read them (see
``riccati._membership_stack``). A set is a record of arrays: its members
are one read-only stack, held with the spectra of the one ``eigh`` of the
candidate stack, whose eigenvalues also decide the kernel's positivity test
and whose last column is each member's norm; no member is a
StorageOperator. A certified extremal pair that is not one point reaches
the sampler as StorageOperators, so the anchor checks of
:func:`membership` read the eigenvalues they hold.
A decided pencil set takes its order from the selection digits: its
members form a lattice isomorphic to the subsets of the selected outside
eigenvalues (Lancaster & Rodman), so two members compare as the sets of
their 1-digits do (see :func:`_digit_order`).
Only the covering pairs, one digit apart, are compared numerically, and a
set where one of them is not strictly below falls back to
:func:`order_solutions`, which compares all member pairs from one spectrum
per pair, as it does for every other set. Either way the order is one
boolean matrix, ``H_i <= H_j`` for each index pair, from which
``SolutionSet`` reads its extremal members and its verdicts; a set ordered
by its digits is flagged ``_lattice``, so a report can name its order and
list no pair.

Inequality members are sampled on random chords through one interior
point h0 of the KYP LMI ``L(H) = [[alpha, -beta*], [-beta, delta]] >= 0``,
which is affine in H, so the feasible chord along a direction is read off
one small eigenvalue problem, and the samples are independent (see
:func:`sample_ri_members`). The interior point has L(h0) positive definite:
the anchors' mean when it is one, and otherwise the ordered-QZ solution of
a strictly passive neighbour of the system, or its midpoint with the mean
(see :func:`_interior_point`). When the LMI has no such point (the transfer
function reaches norm 1 on the circle, as for inner and co-inner systems),
the samples are copies of the anchors' mean. The duality check builds
these samples itself, its extremal pair and copies of the pair's mean,
without calling the sampler, when the pair is Loewner-equal
(:func:`_one_point`, the test :func:`_extremal_set` makes too), since RI,
which lies between the pair, is then one point; the certified pair is not
checked again.

The minimal storage operator, also taken without the constant isometric
channels, comes from one of two exact O(n**3) routes:
ordered QZ (:func:`riccati_kyp.pencil.extremal`) on a regular pencil, after
an exact Schur-class test on its eigenvalues, and the Stein solution of a
lossless system. It is certified deterministically (Lancaster & Rodman,
*Algebraic Riccati Equations*, 1995): it must be an equality member, and
its closed loop ``A + B pinv(delta) beta`` must have spectral radius at
most ``1 + EQUALITY_TOL``; sampling plays no part in it. One
membership-kernel call decides both, and the loop's gain is the one the
kernel forms with its surplus, from the one decomposition of delta, cut at
``riccati.RANK_TOL``. At the lossless member beta and delta vanish, and a
relative cut of their roundoff would give a gain of roundoff, so its loop
is the open loop A, whose spectral radius is read off the Schur diagonal
the realization keeps. The maximal one is the inverse of the adjoint
system's minimal one.
:func:`duality_check` runs the inversion checks on samples anchored at the
extremal pair and on both equality sets, an independent cross-check. It
takes the pair, and the system's equality set, from a caller that already
has them, so a CLI command computes each equality set and certifies each
minimal solution once.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    CertificateFailed,
    NotMinimal,
    NotPD,
    NotSchurClass,
)
from .linops import (
    _LOEWNER_TABLE,
    Loewner,
    _least_and_norm,
    _loewner_masks,
    _spectral_norms,
    hermitian_part,
    loewner_compare,
    spectral_norm,
)
from .riccati import (
    EQUALITY_TOL,
    MEMBERSHIP_TOL,
    RANK_TOL,
    StorageOperator,
    _lmi,
    _membership_stack,
    _residual_ops,
    _surplus,
    as_storage,
    membership,
)
from .pencil import CIRCLE_GAP, equality_candidates, extremal
from .systems import (
    SystemRealization,
    _eigenvalues,
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
INVERSION_TOL = 1e-6  # duality: relative distance of a matched inverted member


@dataclass
class SolverConfig:
    """The solver settings callers vary: the RNG seed, the membership
    tolerance, and the number of duality samples."""

    seed: int = 0
    membership_tol: float = MEMBERSHIP_TOL
    duality_samples: int = 50


@dataclass(eq=False)
class SolutionSet:
    """Equality members found by a solver, as arrays, with pairwise order
    data; two sets compare equal only when they are one object.

    ``members`` is the read-only (k, n, n) complex stack of the members and
    ``eigenvalues`` the read-only (k, n) array of their ascending spectra;
    the last column is each member's spectral norm. The order is held as
    ``_below``, a read-only (k, k) boolean matrix whose entry (i, j) says
    ``H_i <= H_j``; it is empty until the set is ordered. Everything else
    about the order is read off it on each access: ``minimal_index`` is
    the first member below every member (a row of ``_below`` that is all
    True), ``maximal_index`` the first above every member (such a column),
    each None when there is none, and ``comparisons`` is a dict mapping each
    pair (i, j), i < j, to its Loewner verdict, EQUAL when the pair is below
    both ways. ``_lattice`` is True only when :func:`_digit_order` gave the
    order, the subset order of the selection digits, which the provenance
    labels spell. ``provenance`` records, per member, the solver
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

    members: np.ndarray
    eigenvalues: np.ndarray
    provenance: list[dict] = field(default_factory=list)
    route: str | None = None
    complete: bool = False
    _below: np.ndarray = field(
        default_factory=lambda: np.empty((0, 0), dtype=bool), repr=False, compare=False
    )
    _lattice: bool = field(default=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def minimal_index(self) -> int | None:
        return next(iter(np.flatnonzero(self._below.all(axis=1)).tolist()), None)

    @property
    def maximal_index(self) -> int | None:
        return next(iter(np.flatnonzero(self._below.all(axis=0)).tolist()), None)

    @property
    def comparisons(self) -> dict[tuple[int, int], Loewner]:
        """The Loewner verdict of each index pair (i, j), i < j, of an
        ordered set; empty before the set is ordered."""
        below = self._below.tolist()
        iu, ju = _upper(len(below))
        return {
            (i, j): _LOEWNER_TABLE[below[i][j]][below[j][i]]
            for i, j in zip(iu.tolist(), ju.tolist())
        }


def re_residual_norm(sigma: SystemRealization, h) -> float:
    """Norm of the surplus ``alpha - beta* pinv(delta) beta`` at ``h``, formed
    as the membership kernel forms it; zero at equality solutions. Accepts
    any Hermitian weight, definite or not."""
    if isinstance(h, StorageOperator):
        hm = h.matrix
    else:
        hm = hermitian_part(np.atleast_2d(np.asarray(h, dtype=complex)))
    alpha, beta, delta = _residual_ops(sigma, hm)
    return spectral_norm(_surplus(alpha, beta, *np.linalg.eigh(delta))[0])


# -- pair indices -------------------------------------------------------------


@functools.cache
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row-major indices (i, j), i < j, of the upper triangle."""
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


# -- sampling -----------------------------------------------------------------


def _lmi_linear(sigma: SystemRealization, e: np.ndarray) -> np.ndarray:
    """The linear part of the KYP LMI, ``L(H + E) - L(H)``, for a Hermitian
    direction E or for each on a stack."""
    a, b = sigma.a, sigma.b
    ea = e @ a
    return _lmi(e - a.conj().T @ ea, b.conj().T @ ea, -(b.conj().T @ e @ b))


def _clears_band(sigma: SystemRealization, h: np.ndarray, tol: float) -> bool:
    """Whether ``h`` is finite and its LMI margin exceeds the membership
    band ``tol * max(1, ||L(h)||)``."""
    if not np.isfinite(h).all():
        return False
    low, norm = _least_and_norm(_lmi(*_residual_ops(sigma, h)))
    return bool(low > tol * max(1.0, float(norm)))


def _interior_point(
    sigma: SystemRealization, center: np.ndarray, tol: float
) -> np.ndarray | None:
    """A point that clears its membership band (:func:`_clears_band`), or
    None when none is found.

    ``center``, a member of RI, is returned when it clears the band.
    Otherwise, for eps = 1, 1/4, 1/16, ... down to ``tol``, the least band,
    the neighbour ``(A, B, [C; sqrt(eps) I], [D; 0])`` gives its ordered-QZ
    candidate H_eps (:func:`riccati_kyp.pencil.extremal`), and the midpoint
    of H_eps and ``center``, or else H_eps itself, is returned once one of
    them clears the band. Since ``L(H) = L_eps(H) + diag(eps I, 0)``, the
    stabilizing solution of a strictly Schur-class neighbour, whose delta is
    positive definite, lies strictly inside RI (de Souza & Xie, *Systems &
    Control Letters* 18, 1992), and so does its midpoint with a member, by
    convexity. A too-large eps, for which the neighbour is not in the Schur
    class, gives a candidate that fails the test, and eps shrinks. None
    means that no neighbour gave such a point: the LMI has an empty
    interior, or is too ill-conditioned for the band."""
    if _clears_band(sigma, center, tol):
        return center
    n, m = sigma.state_dim, sigma.input_dim
    eps = 1.0
    while eps >= tol:
        neighbour = SystemRealization(
            sigma.a,
            sigma.b,
            np.vstack([sigma.c, np.sqrt(eps) * np.eye(n)]),
            np.vstack([sigma.d, np.zeros((n, m))]),
        )
        found = extremal(neighbour)
        if found is not None:
            for point in (0.5 * (found[0] + center), found[0]):
                if _clears_band(sigma, point, tol):
                    return point
        eps /= 4.0
    return None


def sample_ri_members(
    sigma: SystemRealization,
    count: int,
    rng: np.random.Generator,
    anchors: list,
    tol: float = MEMBERSHIP_TOL,
) -> list[np.ndarray]:
    """Sample inequality members on random chords of the KYP LMI.

    The anchors, matrices or StorageOperators, are checked by
    :func:`membership`, and those in RI open the output. The rest are
    independent points ``h0 + t E`` on random chords through one interior
    point h0 of ``L(H) = [[alpha, -beta*], [-beta, delta]] >= 0``, which is
    affine in H: a Hermitian direction E has the feasible chord of all t
    with ``L(h0) + t L(E) >= 0``, whose ends ``-1/mu_max`` and ``-1/mu_min``
    are read off the eigenvalues mu of ``F^-1 L(E) F^-*`` for the Cholesky
    factor ``L(h0) = F F*``, formed once, and t is a uniform point of it.
    Every member of RI lies between H_min and H_max (Arov, Kaashoek & Pik
    2006; Arlinskii 2008), so points spread up to the boundary serve the
    duality cross-check, and no Markov chain is run. h0 is the point of
    :func:`_interior_point`: the anchors' mean when its LMI margin exceeds
    the membership band ``tol * max(1, ||L||)``, and otherwise a point
    inside RI taken from the ordered-QZ solution of a strictly passive
    neighbour of ``sigma``. Each round draws all its directions in one
    generator call and all its chord positions in another, reads every
    chord off one batched ``eigvalsh``, and validates its points by one
    membership-kernel call: a point is kept when it is in RI with a
    nonnegative LMI margin. A direction whose chord is not finite in
    floating point is skipped, and the rare point that roundoff puts past a
    chord end (a failed validation) is dropped; both are drawn again by a
    further round, and a round that keeps no point ends sampling.

    When no point clears the band, the samples are copies of the anchors'
    mean, a member by convexity. This happens when the LMI has an empty
    interior, because the transfer function reaches norm 1 on the unit
    circle; for an inner or co-inner system RI is one point and every chord
    has length zero. It also happens when the band, which grows with
    ||L||, is wider than any margin (cond(H) near 1e10).
    :func:`duality_check`, which knows from the extremal pair when RI is one
    point, builds these samples itself and does not call here.

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
            good_anchors.append(
                anc.matrix
                if isinstance(anc, StorageOperator)
                else hermitian_part(np.asarray(anc, dtype=complex))
            )
    if not good_anchors:
        return []

    samples = [anc.copy() for anc in good_anchors[: max(count, 1)]]
    if len(samples) >= count:
        return samples[:count]
    center = sum(good_anchors) / len(good_anchors)
    h0 = _interior_point(sigma, center, tol)
    if h0 is None:
        return samples + [center.copy() for _ in range(count - len(samples))]

    n = sigma.state_dim
    # the inverse of the factor F of L(h0) = F F*
    f_inv = np.linalg.inv(np.linalg.cholesky(_lmi(*_residual_ops(sigma, h0))))
    while len(samples) < count:
        steps = count - len(samples)
        g = rng.standard_normal((2, steps, n, n))
        dirs = hermitian_part(g[0] + 1j * g[1])
        positions = rng.uniform(size=steps)
        # the chord of E: all t with every 1 + t mu >= 0
        mu = np.linalg.eigvalsh(f_inv @ _lmi_linear(sigma, dirs) @ f_inv.conj().T)
        finite = (mu[:, 0] < 0.0) & (mu[:, -1] > 0.0)
        lo, hi = -1.0 / mu[finite, -1], -1.0 / mu[finite, 0]
        t = lo + positions[finite] * (hi - lo)
        points = h0 + t[:, None, None] * dirs[finite]
        table = _membership_stack(sigma, points, tol=tol)
        kept = np.flatnonzero(table.in_ri & (table.lmi_min >= 0.0))
        if not kept.size:
            break
        samples.extend(points[kept])
    return samples[:count]


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
    passes the Schur-class test of :func:`_require_schur`, on the pencil
    eigenvalues of ordered QZ, or on none when QZ gives no candidate.
    Members are sorted by trace and then by entries, so output order is
    independent of scheduling. Every route validates at
    ``config.membership_tol`` and ``EQUALITY_TOL``.
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
        stack, digits, selections = found
        spelled = np.where(digits, "1", "0").tolist()
        return _validated_set(
            sigma,
            cfg,
            stack,
            [f"pencil(selection={''.join(row)})" for row in spelled],
            "pencil",
            exhaustive=minimal and len(stack) == selections,
            digits=digits,
        )
    # a lossless system has a singular pencil, so ordered QZ gives it no
    # candidate; the Stein equations are solved only then, as
    # minimal_solution solves them
    lossless = _lossless_solution(sigma) if minimal and extremal(sigma) is None else None
    if lossless is not None:
        kind, h = lossless
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
    the kernel's positivity test and the set's ``eigenvalues``, which are
    the spectra a StorageOperator of each member would hold, bit for bit.
    Members are sorted by :func:`_sorted_order`.

    ``digits``, one boolean row of selection digits per candidate of a
    decided pencil, gives the set its order by :func:`_digit_order`; any
    other set, or one whose covering pairs fail that check, is ordered by
    :func:`order_solutions`."""
    stack = np.asarray(stack, dtype=complex)
    w = np.linalg.eigh(stack)[0]
    table = _membership_stack(sigma, stack, tol=cfg.membership_tol, eigenvalues=w)
    kept = np.flatnonzero(table.in_re)
    kept = kept[_sorted_order(stack[kept])]
    members, eigenvalues = stack[kept], w[kept]
    members.flags.writeable = eigenvalues.flags.writeable = False
    solution_set = SolutionSet(
        members=members,
        eigenvalues=eigenvalues,
        provenance=[
            {"route": labels[index], "residual": residual}
            for index, residual in zip(
                kept.tolist(), table.equality_residual[kept].tolist()
            )
        ],
        route=route,
        complete=exhaustive and len(kept) == len(stack),
    )
    ordered = None if digits is None else _digit_order(solution_set, digits[kept])
    return order_solutions(solution_set) if ordered is None else ordered


def _one_point(h_min: np.ndarray, h_max: np.ndarray) -> bool:
    """Whether the extremal pair is Loewner-equal at ``EQUALITY_TOL * max(1,
    ||H_max||)``; RI, which lies between the pair, is then one point."""
    tol = EQUALITY_TOL * max(1.0, spectral_norm(h_max))
    return loewner_compare(h_min, h_max, tol) == Loewner.EQUAL


def _extremal_set(sigma: SystemRealization, cfg: SolverConfig) -> SolutionSet:
    """The extremal route of :func:`solve_re`: the ordered-QZ minimal
    solution of ``sigma`` (:func:`riccati_kyp.pencil.extremal`) and the
    inverse of its adjoint's when that is positive definite, the maximal
    one; the second is left out when the two are Loewner-equal. A minimal
    ``sigma`` first passes the Schur-class test, also when QZ gives no
    candidate. The set is never complete."""
    candidates, labels = [], []
    found = extremal(sigma)
    if is_minimal(sigma):
        _require_schur(sigma, np.empty(0) if found is None else found[1])
    if found is not None:
        candidates.append(found[0])
        labels.append("extremal(minimal)")
    found = extremal(adjoint(sigma))
    try:
        inv_sqrt = None if found is None else as_storage(found[0]).inv_sqrt
    except NotPD:  # H_max is infinite on the kernel of the adjoint's H_min
        inv_sqrt = None
    if inv_sqrt is not None:
        h_max = hermitian_part(inv_sqrt @ inv_sqrt)
        if not candidates or not _one_point(candidates[0], h_max):
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


@_memo
def _lossless_solution(sigma: SystemRealization) -> tuple[str, np.ndarray] | None:
    """``("inner", X)`` or ``("co-inner", W^-1)`` for a lossless system, else
    None: the kind and the one inequality member, read-only, decided once
    per realization.

    The system is inner when :func:`_inner_solution` finds it so, with X its
    Stein solution, and X is then the one inequality member (Arlinskii
    2008). Otherwise it is co-inner when its adjoint is inner, with Stein
    solution ``W = A W A* + B B*``, and then its one inequality member is
    ``W^-1``, inverted here once. A lossless system has a singular pencil,
    so :func:`~riccati_kyp.pencil.extremal` leaves it here. Each realization
    solves its own Stein equation once, and the co-inner test reads the one
    adjoint that :func:`~riccati_kyp.systems.adjoint` keeps, so a system and
    its adjoint solve two Stein equations between them.
    """
    x = _inner_solution(sigma)
    if x is not None:
        return "inner", x
    w = _inner_solution(adjoint(sigma))
    if w is None:
        return None
    member = _hermitian_inverse(w)
    member.flags.writeable = False
    return "co-inner", member


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
    its closed loop ``A + B pinv(delta) beta``, with the gain of the
    membership kernel's one decomposition of delta at ``riccati.RANK_TOL``,
    must have spectral radius at most ``1 + EQUALITY_TOL`` (see
    :func:`_certified`); the lossless member's loop is the open loop A,
    whose eigenvalues are those of :func:`~riccati_kyp.systems._eigenvalues`.
    CertificateFailed means one of the two failed, or that neither route
    applies to a system that passes the Schur-class test, which then runs
    without pencil eigenvalues: its poles and its norm at angle 0.
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
        _require_schur(sigma, np.empty(0))
        no_route = "no exact route: singular pencil or V1, not lossless"
        raise CertificateFailed("minimal", np.nan, np.nan, no_route)
    # beta and delta vanish at the Stein solution, so the member's loop is
    # the open loop A (A* on the adjoint, whose spectrum is the conjugate)
    radius = float(np.abs(_eigenvalues(sigma)).max(initial=0.0))
    return _certified(sigma, lossless[1], cfg, radius)


def _certified(
    sigma: SystemRealization,
    h: np.ndarray,
    cfg: SolverConfig,
    radius: float | None = None,
) -> StorageOperator:
    """``h`` as the minimal solution, once it is an equality member at
    ``cfg.membership_tol`` and ``EQUALITY_TOL`` and its closed-loop radius is
    at most ``1 + EQUALITY_TOL``; CertificateFailed otherwise. Of the 2**n
    selections of a decided pencil only the minimal one has a closed loop in
    the closed disc (on the two-state example: radius 0.866 at H_min, 1.155
    at the other three).

    One membership-kernel call decides the candidate, and the closed loop
    ``A + B K`` takes its gain ``K = pinv(delta) beta`` from that call, cut at
    ``RANK_TOL`` (``riccati.VerdictTable.gain``). ``radius`` is the
    closed-loop radius when the caller knows it: the lossless route passes
    that of the open loop A. A candidate that is not positive definite, or
    whose surplus the kernel does not form, has no gain, and fails with
    radius NaN."""
    try:
        storage = as_storage(h)
    except NotPD as exc:
        raise CertificateFailed(
            "minimal",
            np.nan,
            re_residual_norm(sigma, h),
            f"minimal solution candidate is not positive definite ({exc})",
        ) from exc
    table = _membership_stack(sigma, storage.matrix[None], cfg.membership_tol,
                              storage.eigenvalues[None])
    if radius is None:
        loop = sigma.a + sigma.b @ table.gain[0]  # NaN where no gain is formed
        finite = np.isfinite(loop).all()
        radius = max(abs(np.linalg.eigvals(loop)), default=0.0) if finite else np.nan
    if not table.in_re[0] or radius > 1.0 + EQUALITY_TOL:
        raise CertificateFailed("minimal", radius, table.equality_residual[0])
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
    sets are the read-only member stacks of the two solution sets.
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
    sigma: SystemRealization,
    config: SolverConfig | None = None,
    *,
    extremes: tuple[StorageOperator, StorageOperator] | None = None,
    equality_set: SolutionSet | None = None,
) -> DualityReport:
    """Verify inversion duality on samples and compare the equality sets.

    For sampled inequality members H of the minimal system ``sigma``, checks
    that H^{-1} is an inequality member of the adjoint system with a minimal
    associated system. Also solves both equality sets and reports whether
    inversion maps one onto the other (it need not). The samples are
    anchored at the extremal pair (minimal, maximal). A caller that already
    holds the pair, or the system's own equality set, passes it as
    ``extremes`` or ``equality_set``; otherwise :func:`minimal_solution`,
    :func:`maximal_solution` and :func:`solve_re` compute them here.

    Every member H of RI has ``H_min <= H <= H_max`` (Arov, Kaashoek & Pik
    2006; Arlinskii 2008), so RI is one point exactly when the pair is
    Loewner-equal (:func:`_one_point`, which :func:`_extremal_set` calls
    too). Then the samples are the pair and copies of its mean, which is
    what :func:`sample_ri_members` gives when no interior point exists; the
    certified pair is not checked again, and no interior point is searched
    for. Any other pair goes to :func:`sample_ri_members`. An equality
    member and an adjoint one match when they are within ``INVERSION_TOL``
    of each other, relative to ``1 + ||H^-1||``.
    """
    cfg = config or SolverConfig()
    if not is_minimal(sigma):
        raise NotMinimal("the duality statements assume a minimal system")
    if extremes is None:
        extremes = minimal_solution(sigma, cfg), maximal_solution(sigma, cfg)
    adj = adjoint(sigma)
    h_min, h_max = extremes
    count = cfg.duality_samples
    if _one_point(h_min.matrix, h_max.matrix):
        pair = [h_min.matrix, h_max.matrix]
        samples = (pair + [sum(pair) / len(pair)] * (count - len(pair)))[:count]
    else:
        rng = np.random.default_rng(cfg.seed + 7)
        samples = sample_ri_members(
            sigma, count, rng, anchors=[h_min, h_max], tol=cfg.membership_tol
        )

    # a one-point RI gives copies of one sample, so each distinct sample is
    # inverted and checked once
    distinct = {sample.tobytes(): sample for sample in samples}
    slot = {key: i for i, key in enumerate(distinct)}
    inverses = _hermitian_inverse(
        np.array(list(distinct.values())).reshape(-1, *sigma.a.shape)
    )
    ok = _membership_stack(adj, inverses, tol=cfg.membership_tol).in_ri_circ
    samples_ok = ok[[slot[sample.tobytes()] for sample in samples]].tolist()

    # an empty set is falsy
    own = solve_re(sigma, cfg) if equality_set is None else equality_set
    re_members, re_adjoint_members = own.members, solve_re(adj, cfg).members
    equal = _sets_match(_hermitian_inverse(re_members), re_adjoint_members, INVERSION_TOL)

    return DualityReport(
        sample_count=len(samples),
        samples_ok=samples_ok,
        failure_count=samples_ok.count(False),
        re_inversion_equal=equal,
        re_members=re_members,
        re_adjoint_members=re_adjoint_members,
    )


def _pair_masks(
    solution_set: SolutionSet, first: np.ndarray, second: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """The Loewner masks ``(le, ge)`` of the member pairs ``(first[k],
    second[k])``, each at ``tol * max(1, ||H_first||, ||H_second||)``, from
    one batched comparison; each norm is the last eigenvalue of the member's
    spectrum."""
    stack = solution_set.members
    norms = np.maximum(solution_set.eigenvalues[:, -1], 1.0)
    return _loewner_masks(
        stack[first], stack[second], tol * np.maximum(norms[first], norms[second])
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
    them; unless each reads below and not above (``le & ~ge``) the set is
    left to it."""
    ones = digits.astype(int)
    # nested[i, j]: the 1-digits of member i are among those of member j
    nested = ones @ (1 - ones).T == 0
    size = ones.sum(axis=1)
    lower, upper = np.nonzero(nested & (size[None, :] == size[:, None] + 1))
    if lower.size:
        le, ge = _pair_masks(solution_set, lower, upper, ORDER_TOL)
        if not (le & ~ge).all():
            return None
    nested.flags.writeable = False
    return replace(solution_set, _below=nested, _lattice=True)


def order_solutions(solution_set: SolutionSet) -> SolutionSet:
    """Fill pairwise Loewner comparisons and flag extremal members.

    Pair (i, j) is compared as :func:`loewner_compare` does at the tolerance
    ``ORDER_TOL * max(1, ||H_i||, ||H_j||)``. Each member's norm is its
    largest eigenvalue, the last column of the set's ``eigenvalues`` (the
    spectra of the ``eigh`` that validated the members), and all pairs go
    through one batched comparison that decomposes each difference once; its
    masks fill both triangles of the set's order matrix. A member is flagged
    minimal (maximal) when it compares below (above) every other member;
    with incomparable pairs present no flag may be set.

    :func:`solve_re` orders a pencil set by its selection digits instead
    (:func:`_digit_order`), checking only the covering pairs this way, and
    comes here for every other set and for a pencil set that fails that
    check; the tests check both routes against a pair-by-pair reference.
    """
    count = len(solution_set.members)
    below = np.eye(count, dtype=bool)
    if count > 1:
        iu, ju = _upper(count)
        below[iu, ju], below[ju, iu] = _pair_masks(solution_set, iu, ju, ORDER_TOL)
    below.flags.writeable = False
    return replace(solution_set, _below=below, _lattice=False)
