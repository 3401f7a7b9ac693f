"""Solver tests: scalar systems on the common dispatch, the
symplectic-pencil, lossless and extremal routes, zero pencil eigenvalues,
non-minimal systems and constant isometric channels, extremal solutions with
their deterministic certificates, inversion duality, ordering, and
determinism."""

import collections
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from riccati_kyp import (
    CertificateFailed,
    InconsistentRoutes,
    Loewner,
    NotMinimal,
    NotPD,
    NotSchurClass,
    SolverConfig,
    SystemRealization,
    SolutionSet,
    adjoint,
    as_storage,
    duality_check,
    hermitian_part,
    is_minimal,
    kyp_lmi,
    loewner_compare,
    maximal_solution,
    membership,
    minimal_solution,
    order_solutions,
    re_residual_norm,
    sample_ri_members,
    solve_re,
    spectral_norm,
    system_matrix,
)
from riccati_kyp import riccati as riccati_module
from riccati_kyp import solver as solver_module
from riccati_kyp.linops import _eigh_kept, _loewner_masks, _pinv_kept, _spectral_norms
from riccati_kyp.pencil import (
    CIRCLE_GAP,
    _extended_pencil,
    _pairs,
    _solution,
    equality_candidates,
    extremal,
)
from riccati_kyp.cli import parse_system
from riccati_kyp.riccati import MEMBERSHIP_TOL, RANK_TOL, _lmi, _residual_ops
from riccati_kyp.solver import (
    _solution_sort_key,
    _sorted_order,
    _without_unit_channels,
)
from conftest import (
    blaschke_system,
    dare_extremes,
    dare_minimal,
    random_hermitian,
    random_pd,
    random_realization,
    random_similarity,
    similar_realization,
    solution_set_of,
    two_state_re_solutions,
)


# (A, B, C, D), equality set and route of scalar systems
SCALAR_CASES = {
    # F = A + B (1 - D*D)^-1 D*C = 0: a zero pencil eigenvalue, paired with
    # an infinite one, leaves one selection
    "interval": ((-0.125, 1.0, 0.1875, 0.5), [3.0 / 64.0], "pencil"),
    "interval-adjoint": ((-0.125, 0.1875, 1.0, 0.5), [4.0 / 3.0], "pencil"),
    # transfer = lam: inner, delta vanishes at the one member
    "delay": ((0.0, 1.0, 1.0, 0.0), [1.0], "lossless"),
    # non-minimal: B = 0, then C = 0 (values solved by hand), and no coupling
    # with a strictly stable state; the pencil's other selection has a
    # singular V1 or is 0
    "uncontrollable": ((0.5, 0.0, 0.5, 0.3), [0.25 / 0.6825], "pencil"),
    "unobservable": ((0.5, 0.5, 0.0, 0.3), [0.6825 / 0.25], "pencil"),
    "decoupled-stable": ((0.5, 0.0, 0.0, 0.5), [], "pencil"),
}


class TestScalarSystems:
    """Scalar systems take the dispatch of every other system: the pencil,
    the Stein route of a lossless system, or the extremal pair. A
    non-minimal system warns, and its set is never complete."""

    @pytest.mark.parametrize("case", SCALAR_CASES)
    def test_solve_re(self, case):
        abcd, expected, route = SCALAR_CASES[case]
        sigma = SystemRealization(*abcd)
        minimal = bool(is_minimal(sigma))
        if minimal:
            solution_set = solve_re(sigma)
        else:
            with pytest.warns(RuntimeWarning, match="non-minimal"):
                solution_set = solve_re(sigma)
        assert solution_set.route == route
        assert solution_set.complete == minimal
        got = [member[0, 0] for member in solution_set.members]
        assert len(got) == len(expected)
        for h, target in zip(got, expected):
            assert abs(h - target) <= 1e-12 * target
            assert re_residual_norm(sigma, h) <= 1e-12

    def test_continuum_returns_the_points_found_incomplete(self):
        # with no input or output coupling and a unimodular state operator,
        # every positive weight satisfies the equality; the pencil has its
        # two eigenvalues on the circle, and neither extremal candidate is
        # positive definite, so the set is empty and labelled incomplete
        sigma = SystemRealization(1.0, 0.0, 0.0, 0.5)
        assert membership(sigma, 2.0 * np.eye(1)).in_re
        with pytest.warns(RuntimeWarning, match="non-minimal"):
            solution_set = solve_re(sigma)
        assert solution_set.route == "extremal"
        assert not solution_set.complete
        assert len(solution_set) == 0


class TestSolveRe:
    def test_two_state_finds_exactly_four(self, two_state_system):
        solution_set = solve_re(two_state_system)
        expected = two_state_re_solutions()
        assert solution_set.route == "pencil"
        assert solution_set.complete
        assert len(solution_set) == 4
        # sorted by trace then entries: identity, negative off-diagonal,
        # positive off-diagonal, diagonal maximal
        order = [expected[0], expected[2], expected[1], expected[3]]
        for member, target in zip(solution_set.members, order):
            assert spectral_norm(member - target) <= 1e-12
        labels = {p["route"] for p in solution_set.provenance}
        assert labels == {f"pencil(selection={s})" for s in ("00", "01", "10", "11")}
        assert all(p["residual"] <= 1e-12 for p in solution_set.provenance)
        # the selection of the inside eigenvalues is the minimal solution
        assert solution_set.provenance[0]["route"] == "pencil(selection=00)"
        assert solution_set.provenance[3]["route"] == "pencil(selection=11)"

    def test_scalar_dispatch_forwards_tolerances(
        self, scalar_interval_system, monkeypatch
    ):
        seen = []

        real = solver_module._membership_stack

        def spy(sigma, stack, **kwargs):
            seen.append(kwargs.get("tol"))
            return real(sigma, stack, **kwargs)

        monkeypatch.setattr(solver_module, "_membership_stack", spy)
        solution_set = solve_re(
            scalar_interval_system, SolverConfig(membership_tol=1e-7)
        )
        assert solution_set.route == "pencil"
        assert seen
        assert all(tol == 1e-7 for tol in seen)
        assert abs(solution_set.members[0][0, 0] - 3.0 / 64.0) <= 1e-12

    def test_unitary_block_matrix_yields_identity_member(self):
        rng = np.random.default_rng(40)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        sigma = SystemRealization(q[:2, :2], q[:2, 2:], q[2:, :2], q[2:, 2:])
        assert spectral_norm(
            system_matrix(sigma).conj().T @ system_matrix(sigma) - np.eye(3)
        ) <= 1e-12
        solution_set = solve_re(sigma)
        distances = [
            spectral_norm(m - np.eye(2)) for m in solution_set.members
        ]
        assert min(distances) <= 1e-10

    def test_members_are_fixed_points(self, two_state_system):
        solution_set = solve_re(two_state_system)
        for member in solution_set.members:
            residual = re_residual_norm(two_state_system, member)
            assert residual <= 1e-9 * (1.0 + spectral_norm(member))

    def test_deterministic_given_seed(self, two_state_system):
        config = SolverConfig(seed=123)
        first = solve_re(two_state_system, config)
        second = solve_re(two_state_system, config)
        assert len(first) == len(second)
        assert np.array_equal(first.members, second.members)
        assert np.array_equal(first.eigenvalues, second.eigenvalues)
        assert first.provenance == second.provenance
        assert first.comparisons == second.comparisons

    def test_dimension_cap(self):
        sigma = SystemRealization(
            np.zeros((7, 7)), np.ones((7, 1)), np.ones((1, 7)), [[0.0]]
        )
        with pytest.raises(ValueError):
            solve_re(sigma)

    def test_non_schur_system_finds_nothing(self):
        # the pencil decides, and no selection passes membership
        solution_set = solve_re(SystemRealization(0.1, 1.0, 1.0, 2.0))
        assert solution_set.route == "pencil"
        assert len(solution_set) == 0
        assert not solution_set.complete


def _spelled(digits: np.ndarray) -> list[str]:
    """The selection labels of provenance, one per row of boolean digits."""
    return ["".join("1" if digit else "0" for digit in row) for row in digits.tolist()]


def _near(h, stack, tol=1e-6) -> bool:
    return any(spectral_norm(h - x) <= tol * max(1.0, spectral_norm(x)) for x in stack)


def _rejecting_rows(table, rows):
    """``table`` with the candidates at ``rows`` read as not positive
    definite: False in every mask and NaN in every float."""
    for values in vars(table).values():
        if isinstance(values, np.ndarray):
            values[rows] = False if values.dtype == bool else np.nan
    return table


BLASCHKE3_ZEROS = [0.3 + 0.35j, -0.2, 0.5 - 0.1j]


class TestPencilRoute:
    def test_a_rejected_selection_leaves_the_set_incomplete(
        self, two_state_system, monkeypatch
    ):
        kernel = solver_module._membership_stack

        def reject_last(sigma, h, **kwargs):
            return _rejecting_rows(kernel(sigma, h, **kwargs), -1)

        monkeypatch.setattr(solver_module, "_membership_stack", reject_last)
        solution_set = solve_re(two_state_system)
        assert solution_set.route == "pencil"
        assert not solution_set.complete
        assert len(solution_set) == 3
        routes = [p["route"] for p in solution_set.provenance]
        assert "pencil(selection=11)" not in routes
        # the maximal solution was the rejected selection
        assert solution_set.maximal_index is None

    def test_complete_requires_a_minimal_system(self, two_state_system, monkeypatch):
        # all four selections of the two-state example pass; with
        # minimality denied, the same members form an incomplete set
        monkeypatch.setattr(solver_module, "is_minimal", lambda sigma: False)
        with pytest.warns(RuntimeWarning, match="non-minimal"):
            solution_set = solve_re(two_state_system)
        assert solution_set.route == "pencil" and len(solution_set) == 4
        assert not solution_set.complete

    @pytest.mark.parametrize("case", ["blaschke3", "coisometry"])
    def test_inner_and_coinner_take_lossless(self, case, coisometry_system):
        # the pencil of an inner or co-inner system is singular: its
        # eigenvalues are noise, and reading selections off them would
        # return copies of the one solution; the Stein route finds it
        if case == "blaschke3":
            t = random_similarity(np.random.default_rng(54), 3)
            sigma = blaschke_system(BLASCHKE3_ZEROS, t)
            expected = np.linalg.inv(t).conj().T @ np.linalg.inv(t)
        else:
            sigma = coisometry_system
            expected = np.eye(1)
        assert equality_candidates(sigma) is None
        solution_set = solve_re(sigma)
        assert solution_set.route == "lossless"
        assert solution_set.complete
        assert len(solution_set) == 1
        kind = "inner" if case == "blaschke3" else "co-inner"
        assert solution_set.provenance[0]["route"] == f"lossless({kind})"
        assert _near(solution_set.members[0], [expected], tol=1e-12)

    def test_circle_eigenvalues_take_newton(self):
        # the two-state example with A scaled by 1.05: the Popov function
        # vanishes on the circle, so the pencil has eigenvalues there and
        # does not decide
        sigma = SystemRealization(
            [[0.0, 0.63], [0.84, 0.0]], [[0.0], [0.6]], [[0.0, 0.8]], [[0.0]]
        )
        assert equality_candidates(sigma) is None

    @pytest.mark.parametrize("offset", [1e-10, 1e-12])
    def test_circle_gap_decides_the_route(self, offset):
        # in the family A = s [[0, 3/5], [4/5, 0]] of the two-state example
        # two eigenvalue pairs meet on the circle at s = sqrt(13/12) and
        # approach it as sqrt(sqrt(13/12) - s): 7e-6 and 7e-7 here
        s = np.sqrt(13.0 / 12.0) - offset
        sigma = SystemRealization(
            [[0.0, 0.6 * s], [0.8 * s, 0.0]], [[0.0], [0.6]], [[0.0, 0.8]], [[0.0]]
        )
        lam = scipy.linalg.eigvals(*_extended_pencil(sigma)[:2])
        gap = np.abs(np.abs(lam[np.isfinite(lam)]) - 1.0).min()
        solution_set = solve_re(sigma)
        if offset == 1e-10:
            assert gap > 5 * CIRCLE_GAP
            assert solution_set.route == "pencil" and solution_set.complete
            assert len(solution_set) == 4
        else:
            assert gap < CIRCLE_GAP
            assert equality_candidates(sigma) is None
            # the extremal pair: H_min and H_max, without the two members
            # between them
            assert solution_set.route == "extremal"
            assert not solution_set.complete
            routes = [p["route"] for p in solution_set.provenance]
            assert routes == ["extremal(minimal)", "extremal(maximal)"]
            assert (solution_set.minimal_index, solution_set.maximal_index) == (0, 1)

    def test_double_inside_eigenvalue_takes_the_extremal_route(self):
        # two identical decoupled channels: the pencil's inside eigenvalue
        # 0.3223 is double, so no selection of pairs is decided, and the
        # extremal route gives H_min and H_max only
        sigma = SystemRealization(
            0.3 * np.eye(2), 0.5 * np.eye(2), 0.5 * np.eye(2), np.zeros((2, 2))
        )
        lam = scipy.linalg.eigvals(*_extended_pencil(sigma)[:2])
        inside = np.sort(lam[np.abs(lam) < 1.0].real)
        assert inside == pytest.approx([0.3223, 0.3223], abs=1e-4)
        assert equality_candidates(sigma) is None
        solution_set = solve_re(sigma)
        assert solution_set.route == "extremal" and not solution_set.complete
        routes = [p["route"] for p in solution_set.provenance]
        assert routes == ["extremal(minimal)", "extremal(maximal)"]
        h_min, h_max = dare_extremes(sigma)
        assert _rel(solution_set.members[0], h_min) <= 1e-10
        assert _rel(solution_set.members[1], h_max) <= 1e-10
        assert _rel(minimal_solution(sigma).matrix, h_min) <= 1e-10
        assert _rel(maximal_solution(sigma).matrix, h_max) <= 1e-10

    def test_unpaired_zero_eigenvalue_leaves_the_pencil_undecided(self):
        # the pencil eigenvalue 1.07e-8 lies below the zero cut
        # PENCIL_TOL * ||M|| / ||N|| = 1.36e-8, but its partner 9.4e7 lies
        # below the infinity cut 1.36e8: the finite eigenvalues do not count
        # 2 n - z, and the extremal route still finds H_min
        sigma = SystemRealization(1e-8, 0.5, 0.5, 0.0)
        assert equality_candidates(sigma) is None
        solution_set = solve_re(sigma)
        assert solution_set.route == "extremal" and not solution_set.complete
        assert solution_set.provenance[0]["route"] == "extremal(minimal)"
        assert _rel(solution_set.members[0], dare_minimal(sigma)) <= 1e-10

    def test_non_minimal_takes_newton(self):
        # the scalar interval example plus an uncontrollable, observable
        # mode: the pencil decides, and the selection that flips the mode at
        # 0.5 has a singular V1, so one of two selections is left
        sigma = SystemRealization(
            np.diag([-0.125, 0.5]), [[1.0], [0.0]], [[0.1875, 0.3]], [[0.5]]
        )
        stack, digits, selections = equality_candidates(sigma)
        assert (len(stack), selections) == (1, 2)
        with pytest.warns(RuntimeWarning, match="non-minimal"):
            solution_set = solve_re(sigma)
        assert solution_set.route == "pencil"
        assert not solution_set.complete
        assert [p["route"] for p in solution_set.provenance] == [
            f"pencil(selection={_spelled(digits)[0]})"
        ]


def test_singular_v1s_are_masked_and_the_rest_solved_in_one_batch():
    # a V1 with a zero column has a zero pivot, which solve refuses and
    # slogdet signs 0; the regular ones solve as each does alone
    n, m = 3, 2
    rng = np.random.default_rng(27)
    v = rng.standard_normal((4, 2 * n + m, n)) + 1j * rng.standard_normal((4, 2 * n + m, n))
    v[1, :n, 0] = 0.0
    x, regular = _solution(v, n)
    assert regular.tolist() == [True, False, True, True] and x.shape == (3, n, n)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(v[1, :n].T, v[1, n : 2 * n].T)
    for got, one in zip(x, v[regular]):
        alone = hermitian_part(np.linalg.solve(one[:n].T, one[n : 2 * n].T).T)
        assert got.tobytes() == alone.tobytes()


def test_two_inside_eigenvalues_for_one_pair_do_not_decide():
    # n = 1: 0.5 and 0.4 lie inside the disc, and the third is infinite
    alpha, beta = np.array([0.5, 0.4, 1.0]), np.array([1.0, 1.0, 0.0])
    assert _pairs(alpha, beta, 1, np.abs(alpha), np.abs(beta)) is None


def _failing(error):
    def fail(*args, **kwargs):
        raise error("did not converge")

    return fail


def test_a_failed_qz_gives_no_equality_candidates(monkeypatch):
    monkeypatch.setattr(scipy.linalg, "eig", _failing(np.linalg.LinAlgError))
    assert equality_candidates(SystemRealization(-0.125, 1.0, 0.1875, 0.5)) is None


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, ValueError])
def test_a_failed_ordered_qz_gives_no_extremal(error, monkeypatch):
    # extremal is kept per realization, so each case builds its own
    monkeypatch.setattr(scipy.linalg, "ordqz", _failing(error))
    assert extremal(SystemRealization(-0.125, 1.0, 0.1875, 0.5)) is None


def test_an_uncontrollable_mode_outside_the_disc_gives_no_extremal():
    # B does not reach A's mode at 2, outside the disc, so the leading Schur
    # vectors of the inside eigenvalues have a singular V1
    sigma = SystemRealization(np.diag([2.0, 0.3]), [[0.0], [1.0]], [[0.5, 0.5]], [[0.0]])
    assert extremal(sigma) is None


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=1, max_value=2),
    p=st.integers(min_value=1, max_value=2),
    norm=st.sampled_from([0.5, 0.9, 0.99]),
)
# a root finder's limit here is a Hermitian zero of the pinv residual with an
# indefinite delta, which no pencil selection gives and membership refuses
@example(seed=1011, n=2, m=2, p=2, norm=0.99)
def test_pencil_set_holds_every_newton_solution(seed, n, m, p, norm):
    """On random strictly passive minimal systems the pencil decides the
    equality set. Every member passes membership. A limit of a root finder
    from seeded random starts that membership accepts is a member, and so
    one of the 2**n pencil candidates; a limit near no candidate is a zero
    of the pinv residual outside RI (its delta may be indefinite), which
    membership refuses. The set is complete exactly when all 2**n
    candidates are members, and then its flagged extremes are the
    all-inside and all-outside selections."""
    rng = np.random.default_rng(seed)
    sigma = random_realization(rng, n, m, p, passive_norm=norm)
    assume(is_minimal(sigma))
    found = equality_candidates(sigma)
    assert found is not None
    stack, digits, selections = found
    assert stack.shape == (2**n, n, n) and selections == 2**n
    assert digits.shape == (2**n, n) and digits.dtype == bool
    assert len(np.unique(digits, axis=0)) == 2**n
    assert _rel(extremal(sigma)[0], stack[0]) <= 1e-12
    solution_set = solve_re(sigma)
    assert solution_set.route == "pencil"
    members = list(solution_set.members)
    for h in members:
        assert membership(sigma, h).in_re
    assert solution_set.complete == (len(members) == 2**n)
    if solution_set.complete:
        assert _near(stack[0], [members[solution_set.minimal_index]], tol=1e-12)
        assert _near(stack[-1], [members[solution_set.maximal_index]], tol=1e-12)
    for h in _equality_limits(sigma, [random_hermitian(rng, n) for _ in range(2)]):
        if _in_re(sigma, h):
            assert _near(h, members)
        if not _near(h, stack):
            assert not _in_re(sigma, h)


def _equality_limits(sigma, starts):
    """The limits of ``scipy.optimize.root(method="lm")`` on the equality
    residual ``alpha - beta* pinv(delta) beta`` (the DARE residual where
    delta is invertible) in real Hermitian coordinates from each start,
    those that converged: a residual within 1e-10 of zero relative to
    ``1 + ||H||``. The coordinates of a Hermitian matrix are the real parts
    of its upper triangle, diagonal included, then the imaginary parts of
    its strict upper triangle."""
    n = sigma.state_dim
    upper, strict = np.triu_indices(n), np.triu_indices(n, 1)

    def pack(h):
        return np.concatenate([h[upper].real, h[strict].imag])

    def unpack(x):
        h = np.zeros((n, n), dtype=complex)
        h[upper] = x[: len(upper[0])]
        h[strict] += 1j * x[len(upper[0]) :]
        return h + np.triu(h, 1).conj().T

    def residual(x):
        alpha, beta, delta = _residual_ops(sigma, unpack(x))
        pinv = _pinv_kept(*_eigh_kept(delta, RANK_TOL))
        return pack(alpha - beta.conj().T @ pinv @ beta)

    limits = []
    for start in starts:
        x = scipy.optimize.root(residual, pack(start), method="lm").x
        h = unpack(x)
        if np.linalg.norm(residual(x)) <= 1e-10 * (1.0 + np.linalg.norm(h)):
            limits.append(h)
    return limits


def _in_re(sigma, h) -> bool:
    try:
        return membership(sigma, h).in_re
    except NotPD:
        return False


def _zero_eigenvalue_draw(seed, n, m, p, zeros=1):
    """A random realization with D = 0, block norm 0.9 and a state operator
    with a ``zeros``-dimensional kernel. F = A + B (I - D*D)^-1 D*C = A is
    singular, so the pencil has ``zeros`` zero eigenvalues, each paired with
    an infinite one."""
    rng = np.random.default_rng(seed)
    sigma = random_realization(rng, n, m, p)
    kernel, _ = np.linalg.qr(
        rng.standard_normal((n, zeros)) + 1j * rng.standard_normal((n, zeros))
    )
    a = sigma.a @ (np.eye(n) - kernel @ kernel.conj().T)
    mats = [a, sigma.b, sigma.c, np.zeros((p, m))]
    factor = 0.9 / spectral_norm(system_matrix(SystemRealization(*mats)))
    return SystemRealization(*(factor * mat for mat in mats))


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=4),
    m=st.integers(min_value=1, max_value=2),
    p=st.integers(min_value=1, max_value=2),
)
def test_zero_pencil_eigenvalue_pairs_with_infinity(seed, n, m, p):
    """With one zero eigenvalue the pencil decides with 2**(n - 1)
    selections, the zero pair's digit always 0; every member is an equality
    member, and selection 0...0 is the DARE's stabilizing solution."""
    sigma = _zero_eigenvalue_draw(seed, n, m, p)
    assume(is_minimal(sigma))
    found = equality_candidates(sigma)
    assert found is not None
    stack, digits, selections = found
    assert stack.shape == (2 ** (n - 1), n, n) and selections == 2 ** (n - 1)
    assert digits.shape == (len(stack), n) and digits.dtype == bool
    assert len(np.unique(digits, axis=0)) == len(digits)
    assert int((~digits.any(axis=0)).sum()) == 1
    solution_set = solve_re(sigma)
    assert solution_set.route == "pencil"
    for member in solution_set.members:
        assert membership(sigma, member).in_re
    assert solution_set.complete == (len(solution_set) == 2 ** (n - 1))
    assert _rel(stack[0], dare_extremes(sigma)[0]) <= 1e-10


def test_coincident_zero_eigenvalues_take_the_pencil():
    # two zero eigenvalues coincide; neither ever flips, so the pencil
    # decides with 2**(n - 2) selections, and all of them pass
    sigma = _zero_eigenvalue_draw(4, 3, 2, 2, zeros=2)
    assert is_minimal(sigma)
    stack, digits, selections = equality_candidates(sigma)
    assert len(stack) == selections == len(digits) == 2
    solution_set = solve_re(sigma)
    assert solution_set.route == "pencil"
    assert solution_set.complete
    assert len(solution_set) == 2 ** (3 - 2)
    assert _rel(solution_set.members[0], dare_extremes(sigma)[0]) <= 1e-10


def test_outside_subspace_of_a_zero_eigenvalue_pencil_is_not_h_max(scalar_interval_system):
    # F = 0 on the scalar interval example: the extended pencil has one
    # finite eigenvalue, 0, and two infinite ones. An ordered QZ that puts
    # the finite outside eigenvalues first selects none, so its leading
    # Schur vector spans the zero eigenvalue's subspace and gives H_min =
    # 3/64, not H_max = 3/4. H_max is the closed form, a point of RI where
    # the equality fails, so the equality set is {3/64} alone; an H_max
    # from the system's own pencil must keep the adjoint route whenever the
    # pencil has zero eigenvalues.
    sigma = scalar_interval_system
    big_m, big_n, *_ = _extended_pencil(sigma)
    (alpha, beta), _ = scipy.linalg.eig(big_m, big_n, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-8 * np.abs(alpha)
    assert finite.sum() == 1 and abs(alpha[finite][0]) <= 1e-12

    def finite_outside(a, b):
        return (np.abs(b) > 1e-8 * np.abs(a)) & (np.abs(a) > np.abs(b))

    _, _, alpha, beta, _, z = scipy.linalg.ordqz(
        big_m, big_n, sort=finite_outside, output="complex"
    )
    assert not finite_outside(alpha, beta).any()
    assert abs(z[1, 0] / z[0, 0] - 3.0 / 64.0) <= 1e-12
    h_max = maximal_solution(sigma).matrix
    assert abs(h_max[0, 0] - 0.75) <= 1e-12
    verdict = membership(sigma, h_max)
    assert verdict.in_ri and not verdict.in_re
    members = solve_re(sigma).members
    assert len(members) == 1 and abs(members[0][0, 0] - 3.0 / 64.0) <= 1e-12


def _appended_state(seed: int, kind: str) -> SystemRealization:
    """A random realization with n = 1..4, m, p = 1..2 and block norm 0.9,
    plus one state at 0.3 that the input does not reach (``kind``
    ``"uncontrollable"``) or the output does not see (``"unobservable"``),
    coupled to the other side with weight 0.3."""
    rng = np.random.default_rng(seed)
    n, m, p = int(rng.integers(1, 5)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
    sigma = random_realization(rng, n, m, p, passive_norm=0.9)
    a = np.block([[sigma.a, np.zeros((n, 1))], [np.zeros((1, n)), np.full((1, 1), 0.3)]])
    k = max(m, p)
    g = 0.3 * (rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k)))
    if kind == "uncontrollable":
        b = np.vstack([sigma.b, np.zeros((1, m))])
        c = np.hstack([sigma.c, g[0, :p, None]])
    else:
        b = np.vstack([sigma.b, g[1, None, :m]])
        c = np.hstack([sigma.c, np.zeros((p, 1))])
    return SystemRealization(a, b, c, sigma.d)


def _unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return q


def _unit_channel_draw(seed: int) -> SystemRealization:
    """A random realization with n = 1..3, m, p = 1..2 and block norm 0.9,
    with one constant isometric channel added and the inputs and outputs
    rotated by random unitaries U and V: ``(A, [B, 0] V*, U [C; 0],
    U diag(D, 1) V*)``, which is minimal when the first one is."""
    rng = np.random.default_rng(seed)
    n, m, p = int(rng.integers(1, 4)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
    sigma = random_realization(rng, n, m, p, passive_norm=0.9)
    u, v = _unitary(rng, p + 1), _unitary(rng, m + 1)
    d = np.block([[sigma.d, np.zeros((p, 1))], [np.zeros((1, m)), np.ones((1, 1))]])
    return SystemRealization(
        sigma.a,
        np.hstack([sigma.b, np.zeros((n, 1))]) @ v.conj().T,
        u @ np.vstack([sigma.c, np.zeros((1, n))]),
        u @ d @ v.conj().T,
    )


@pytest.mark.parametrize("kind", ["uncontrollable", "unobservable"])
def test_non_minimal_systems_take_the_pencil(kind):
    """A stable uncontrolled or unobserved state leaves the pencil deciding:
    the set is incomplete, and every member is an equality member. With
    the state uncontrollable, scipy's stabilizing DARE solution, H_min, is
    one of them; with it unobservable, H_min is singular."""
    for seed in range(12):
        sigma = _appended_state(seed, kind)
        assert not is_minimal(sigma)
        with pytest.warns(RuntimeWarning, match="non-minimal"):
            solution_set = solve_re(sigma)
        assert solution_set.route == "pencil", seed
        assert not solution_set.complete
        members = list(solution_set.members)
        assert members, seed
        for h in members:
            assert membership(sigma, h).in_re
        if kind == "uncontrollable":
            assert _near(dare_minimal(sigma), members, tol=1e-8), seed


def _three_classes(case: str) -> list[SystemRealization]:
    """Seeded systems of the three kinds the pencil now decides without a
    seeded search: a stable state appended, two coincident zero pencil
    eigenvalues, and a constant isometric channel."""
    if case == "appended-state":
        kinds = ("uncontrollable", "unobservable")
        return [_appended_state(seed, kind) for seed in range(3) for kind in kinds]
    if case == "two-zeros":
        return [
            _zero_eigenvalue_draw(4, 3, 2, 2, zeros=2),
            _zero_eigenvalue_draw(5, 4, 1, 2, zeros=2),
        ]
    return [_unit_channel_draw(s) for s in range(4)]


@pytest.mark.parametrize("case", ["appended-state", "two-zeros", "unit-channel"])
def test_every_accepted_equality_limit_is_a_member(case):
    """Every limit of a root finder on the equality residual, from seeded
    positive-definite starts, that membership accepts is in the set of
    ``solve_re``."""
    accepted = 0
    for k, sigma in enumerate(_three_classes(case)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            members = list(solve_re(sigma).members)
        rng = np.random.default_rng(k)
        starts = [random_pd(rng, sigma.state_dim) for _ in range(6)]
        for h in _equality_limits(sigma, starts):
            if _in_re(sigma, h):
                accepted += 1
                assert _near(h, members), (case, k)
    assert accepted >= 6


def test_unit_channel_is_deflated():
    # T(z) = diag(1, 0.5 z): the first input is a constant isometric
    # channel, and without it the system is T(z) = 0.5 z, whose pencil has
    # a zero eigenvalue; H_min = 1/4 and H_max = 1 in closed form
    sigma = SystemRealization(0.0, [[0.0, 1.0]], [[0.0], [0.5]], np.diag([1.0, 0.0]))
    deflated = _without_unit_channels(sigma)
    assert (deflated.input_dim, deflated.output_dim) == (1, 1)
    solution_set = solve_re(sigma)
    assert solution_set.route == "pencil" and solution_set.complete
    assert [m[0, 0] for m in solution_set.members] == [0.25]
    assert minimal_solution(sigma).matrix[0, 0] == 0.25
    assert abs(maximal_solution(sigma).matrix[0, 0] - 1.0) <= 1e-15


def test_every_input_a_unit_channel_leaves_the_stein_equation():
    # B = 0, and the one input is a constant isometric channel (D u = e2):
    # without it the system has no inputs, its equality is the Stein
    # equation H = A* H A + C* C, and H = 0.25 / (1 - 0.25) = 1/3
    sigma = SystemRealization(0.5, [[0.0]], [[0.5], [0.0]], [[0.0], [1.0]])
    assert _without_unit_channels(sigma).input_dim == 0
    with pytest.warns(RuntimeWarning, match="non-minimal"):
        solution_set = solve_re(sigma)
    assert solution_set.route == "pencil"
    assert not solution_set.complete
    assert [m[0, 0] for m in solution_set.members] == [pytest.approx(1 / 3, rel=1e-15)]
    assert membership(sigma, solution_set.members[0]).in_re


@pytest.mark.parametrize("seed", range(6))
def test_deflated_lmi_is_the_original_without_zero_rows(seed):
    """In the input basis ``[V, N]`` (kept inputs, then the channel), the
    KYP LMI of the system is that of the deflated one bordered by zeros, and
    minimality is unchanged."""
    sigma = _unit_channel_draw(seed)
    deflated = _without_unit_channels(sigma)
    n, m = sigma.state_dim, sigma.input_dim
    assert deflated.input_dim == m - 1 and deflated.output_dim == sigma.output_dim - 1
    assert bool(is_minimal(deflated)) == bool(is_minimal(sigma))
    d = sigma.d
    _, _, vh = np.linalg.svd(
        np.vstack([sigma.b, np.eye(m) - d.conj().T @ d, sigma.c.conj().T @ d])
    )
    basis = np.block([[np.eye(n), np.zeros((n, m))], [np.zeros((m, n)), vh.conj().T]])
    h = random_pd(np.random.default_rng(seed), n)
    full = basis.conj().T @ kyp_lmi(sigma, h) @ basis
    assert spectral_norm(full[n + m - 1:]) <= 1e-12
    assert spectral_norm(full[: n + m - 1, : n + m - 1] - kyp_lmi(deflated, h)) <= 1e-12


class TestExtremalSolutions:
    def test_scalar_interval(self, scalar_interval_system):
        h_min = minimal_solution(scalar_interval_system)
        h_max = maximal_solution(scalar_interval_system)
        assert abs(h_min.matrix[0, 0] - 3.0 / 64.0) <= 1e-12 * 3.0 / 64.0
        assert abs(h_max.matrix[0, 0] - 0.75) <= 1e-12 * 0.75

    def test_scalar_interval_adjoint(self, scalar_interval_system):
        adj = adjoint(scalar_interval_system)
        assert abs(minimal_solution(adj).matrix[0, 0] - 4.0 / 3.0) <= 1e-12 * 4.0 / 3.0
        assert abs(maximal_solution(adj).matrix[0, 0] - 64.0 / 3.0) <= 1e-12 * 64.0 / 3.0

    def test_two_state(self, two_state_system):
        h_min = minimal_solution(two_state_system)
        h_max = maximal_solution(two_state_system)
        assert spectral_norm(h_min.matrix - np.eye(2)) <= 1e-9
        assert spectral_norm(h_max.matrix - np.diag([256.0 / 81.0, 16.0 / 9.0])) <= 1e-8

    def test_coisometry_singleton(self, coisometry_system):
        h_min = minimal_solution(coisometry_system)
        h_max = maximal_solution(coisometry_system)
        assert abs(h_min.matrix[0, 0] - 1.0) <= 1e-10
        assert abs(h_max.matrix[0, 0] - 1.0) <= 1e-10

    def test_minimal_is_equality_member(self, two_state_system):
        h_min = minimal_solution(two_state_system)
        assert membership(two_state_system, h_min).in_re

    def test_minimal_below_sampled_members(self, two_state_system):
        rng = np.random.default_rng(41)
        h_min = minimal_solution(two_state_system)
        h_max = maximal_solution(two_state_system)
        samples = sample_ri_members(
            two_state_system, 100, rng, anchors=[h_min.matrix, h_max.matrix]
        )
        assert len(samples) == 100
        for sample in samples:
            assert loewner_compare(h_min.matrix, sample, tol=1e-8) in (
                Loewner.LESS_EQUAL,
                Loewner.EQUAL,
            )
            assert loewner_compare(sample, h_max.matrix, tol=1e-8) in (
                Loewner.LESS_EQUAL,
                Loewner.EQUAL,
            )

    def test_maximal_is_inverse_of_adjoint_minimal(self, two_state_system):
        h_max = maximal_solution(two_state_system)
        h_min_adj = minimal_solution(adjoint(two_state_system))
        product = h_max.matrix @ h_min_adj.matrix
        assert spectral_norm(product - np.eye(2)) <= 1e-9

    def test_requires_minimal_system(self):
        sigma = SystemRealization(
            np.diag([0.5, 0.25]), [[1.0], [0.0]], [[1.0, 1.0]], [[0.0]]
        )
        with pytest.raises(NotMinimal):
            minimal_solution(sigma)

    def test_non_schur_rejected_early(self):
        sigma = SystemRealization(0.1, 1.0, 1.0, 2.0)
        with pytest.raises(NotSchurClass):
            minimal_solution(sigma)

    @pytest.mark.parametrize("offset", [1e-12, 0.0])
    def test_norm_one_boundary(self, offset):
        # the family of test_circle_gap_decides_the_route: at s = sqrt(13/12)
        # the transfer norm reaches 1 on the circle, where the pencil has
        # double eigenvalues, and diag(16/9, 4/3) is an exact equality member
        s = np.sqrt(13.0 / 12.0) - offset
        sigma = SystemRealization(
            [[0.0, 0.6 * s], [0.8 * s, 0.0]], [[0.0], [0.6]], [[0.0, 0.8]], [[0.0]]
        )
        extremes = [minimal_solution(sigma).matrix, maximal_solution(sigma).matrix]
        for h in extremes:
            assert membership(sigma, h).in_re
        if offset == 0.0:
            target = np.diag([16.0 / 9.0, 4.0 / 3.0])
            assert re_residual_norm(sigma, target) <= 1e-14
            for h in extremes:
                assert spectral_norm(h - target) <= 1e-6


def _dense_transfer_norm(sigma, grid=16384) -> float:
    """Largest singular value of T on a uniform circle grid, from one LU
    solve per point."""
    zeta = np.exp(2j * np.pi * np.arange(grid) / grid)[:, None, None]
    x = np.linalg.solve(
        np.eye(sigma.state_dim) - zeta * sigma.a,
        np.broadcast_to(sigma.b, (grid,) + sigma.b.shape),
    )
    return float(np.linalg.svd(sigma.d + zeta * (sigma.c @ x), compute_uv=False).max())


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=1, max_value=2),
    p=st.integers(min_value=1, max_value=2),
    norm=st.sampled_from([0.9, 0.99, 1.0, 1.001, 1.05, 1.2, None]),
)
def test_schur_test_matches_a_dense_reference(seed, n, m, p, norm):
    """The exact Schur-class test on the QZ eigenvalues passes a random
    minimal system exactly when rho(A) < 1 and the largest singular value of
    T on a dense circle grid is at most 1 + 1e-8. Draws that the grid cannot
    decide are skipped: a dense maximum within 1e-6 of 1, or a pole within
    1e-3 of the circle, whose peak may fall between grid points."""
    rng = np.random.default_rng(seed)
    sigma = random_realization(rng, n, m, p, passive_norm=norm)
    assume(is_minimal(sigma))
    found = extremal(sigma)
    assume(found is not None)
    rho = float(np.abs(np.linalg.eigvals(sigma.a)).max())
    assume(abs(rho - 1.0) > 1e-3)
    if rho < 1.0:
        peak = _dense_transfer_norm(sigma)
        assume(abs(peak - 1.0) > 1e-6)
        schur = peak <= 1.0 + 1e-8
    else:
        schur = False
    try:
        solver_module._require_schur(sigma, found[1])
    except NotSchurClass as exc:
        assert not schur
        assert 0.0 <= exc.angle < 2.0 * np.pi
        assert (exc.norm == np.inf) == (rho > 1.0)
    else:
        assert schur


# -- exact extremes -------------------------------------------------------------


def _sampled_violations(sigma, candidate, side, config=SolverConfig()):
    """The sampled extremality check that once certified every extremal
    solution, kept here as an independent cross-check: the indices of the
    samples (40 sampled inequality members anchored at the candidate,
    and the equality set up to n = 3) that are not on the ``side`` of it."""
    rng = np.random.default_rng(config.seed + (1 if side == "minimal" else 2))
    samples = sample_ri_members(
        sigma, 40, rng, anchors=[candidate], tol=config.membership_tol
    )
    if sigma.state_dim <= 3:
        samples += list(solve_re(sigma, config).members)
    if not samples:  # membership refused the candidate (ill-conditioned H)
        return []
    cmp_tol = 100.0 * config.membership_tol * max(1.0, spectral_norm(candidate))
    # le: the candidate is below the sample; ge: above it
    le, ge = _loewner_masks(candidate, np.array(samples), cmp_tol)
    return np.flatnonzero(~(le if side == "minimal" else ge)).tolist()


def _rel(got, want) -> float:
    return spectral_norm(got - want) / spectral_norm(want)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=1, max_value=2),
    p=st.integers(min_value=1, max_value=2),
    norm=st.sampled_from([0.5, 0.9, 0.99]),
)
def test_extremes_match_the_dare(seed, n, m, p, norm):
    """On random strictly passive minimal systems the pencil's stable
    selection is H_min to 1e-12 of scipy's DARE; H_max, the inverse of the
    adjoint's H_min, is as close as its conditioning allows. The sampled
    certificate finds no inequality member below H_min or above H_max."""
    sigma = random_realization(np.random.default_rng(seed), n, m, p, passive_norm=norm)
    assume(is_minimal(sigma))
    ref_min, ref_max = dare_extremes(sigma)
    h_min = minimal_solution(sigma).matrix
    h_max = maximal_solution(sigma).matrix
    assert _rel(h_min, ref_min) <= 1e-12
    assert _rel(h_max, ref_max) <= 1e-12 * np.linalg.cond(ref_max)
    assert _sampled_violations(sigma, h_min, "minimal") == []
    assert _sampled_violations(sigma, h_max, "maximal") == []


def _bench_zoo(seed: int, max_dim: int = 2) -> list[SystemRealization]:
    """The systems with n <= max_dim of the benchmark's seeded zoo, in its
    order (n, then (m, p)): complex Gaussian realizations with the block
    matrix scaled to norm 0.9. The default gives its eight n <= 2 systems."""
    rng = np.random.default_rng([seed, 0])
    return [
        _zoo_draw(rng, n, m, p)
        for n in range(1, max_dim + 1)
        for m, p in ((1, 1), (1, 2), (2, 1), (2, 2))
    ]


def _zoo_draw(rng: np.random.Generator, n: int, m: int, p: int) -> SystemRealization:
    """One draw of the benchmark's ``random_passive``, consuming ``rng`` as
    it does: a complex Gaussian realization with the block matrix scaled to
    norm 0.9."""
    mats = [
        (rng.standard_normal(s) + 1j * rng.standard_normal(s)) / np.sqrt(2.0 * n)
        for s in ((n, n), (n, m), (p, n), (p, m))
    ]
    factor = 0.9 / spectral_norm(np.block([mats[:2], mats[2:]]))
    return SystemRealization(*(factor * x for x in mats))


@pytest.mark.parametrize("seed", [13, 21, 207, 209, 211])
def test_zoo_extremes_certify(seed):
    # the zoo seeds whose zoo_n2_m1_p2 once raised a false CertificateFailed
    # under the sampled certificate
    for sigma in _bench_zoo(seed):
        ref_min, ref_max = dare_extremes(sigma)
        assert _rel(minimal_solution(sigma).matrix, ref_min) <= 1e-12
        assert _rel(maximal_solution(sigma).matrix, ref_max) <= 1e-10


def _colligation(rng: np.random.Generator, n: int, m: int, p: int) -> SystemRealization:
    """(A, B, C, D) from the leading (n + p) x (n + m) block of a random
    unitary matrix: an isometry (inner) when p >= m, a co-isometry
    (co-inner) when m >= p."""
    size = n + max(m, p)
    q, _ = np.linalg.qr(
        rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    )
    v = q[: n + p, : n + m]
    return SystemRealization(v[:n, :n], v[:n, n:], v[n:, :n], v[n:, n:])


def _lossless_draw(seed: int):
    """A random colligation with n = 1..6 and m, p = 1..2 under the random
    similarity I + 0.3 G, or None when it is not minimal and stable."""
    rng = np.random.default_rng(seed)
    n, m, p = int(rng.integers(1, 7)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
    sigma = similar_realization(_colligation(rng, n, m, p), random_similarity(rng, n))
    if not is_minimal(sigma) or np.abs(np.linalg.eigvals(sigma.a)).max() >= 1.0 - 1e-6:
        return None
    return sigma


# the one draw of seeds 0-99 whose exact member the membership kernel
# refuses (see test_ill_conditioned_lossless_member_is_refused)
REFUSED_LOSSLESS_SEED = 52


@pytest.mark.parametrize("block", range(4))
def test_lossless_systems_take_the_stein_route(block):
    """Random inner and co-inner systems are detected, solved exactly, and
    have H_min = H_max (Arlinskii 2008: RI is one point)."""
    for seed in range(25 * block, 25 * (block + 1)):
        sigma = _lossless_draw(seed)
        if sigma is None:
            continue
        m, p = sigma.input_dim, sigma.output_dim
        kind, member = solver_module._lossless_solution(sigma)
        assert kind == ("inner" if p >= m else "co-inner"), seed
        if seed == REFUSED_LOSSLESS_SEED:
            continue
        solution_set = solve_re(sigma)
        assert solution_set.route == "lossless", seed
        assert solution_set.complete
        assert solution_set.provenance[0]["route"] == f"lossless({kind})"
        assert len(solution_set) == 1
        h_min = minimal_solution(sigma).matrix
        h_max = maximal_solution(sigma).matrix
        assert _rel(h_min, member) <= 1e-12
        assert _rel(h_max, h_min) <= 1e-9 * np.linalg.cond(h_min), seed


def test_ill_conditioned_lossless_member_is_refused():
    # a co-inner n = 6, m = 2, p = 1 draw with ||X|| = 357 and cond(X) =
    # 2.3e3: the identity test holds to 2e-13 relative, but delta(X) keeps a
    # roundoff eigenvalue of 6.6e-13 above the kernel's relative rank cut,
    # so the forward residual reads 1.5e-5 and membership refuses the exact
    # member. A backward-error verdict would accept it.
    sigma = _lossless_draw(REFUSED_LOSSLESS_SEED)
    assert solver_module._lossless_solution(sigma)[0] == "co-inner"
    solution_set = solve_re(sigma)
    assert solution_set.route == "lossless"
    assert not solution_set.complete and len(solution_set) == 0
    with pytest.raises(CertificateFailed) as info:
        minimal_solution(sigma)
    assert info.value.radius < 1.0
    assert info.value.equality_residual > 1e-6


def test_lossy_systems_never_take_the_stein_route():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        n, m, p = int(rng.integers(1, 7)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
        sigma = random_realization(rng, n, m, p, passive_norm=0.999)
        assert solver_module._lossless_solution(sigma) is None, seed


def test_a_singular_stein_equation_gives_no_inner_solution(monkeypatch):
    # A = 1 has a pole on the circle, so no solve is tried; A = diag(2, 1/2)
    # has lambda conj(mu) = 1 off the circle, and the solve raises
    solve, calls = scipy.linalg.solve_discrete_lyapunov, []

    def spy(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(scipy.linalg, "solve_discrete_lyapunov", spy)
    assert solver_module._inner_solution(SystemRealization(1.0, 1.0, 1.0, 0.0)) is None
    assert calls == []
    sigma = SystemRealization(np.diag([2.0, 0.5]), [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
    assert solver_module._inner_solution(sigma) is None
    assert len(calls) == 1
    with pytest.raises(np.linalg.LinAlgError):
        solve(*calls[0])


GOLDEN_DOCS = Path(__file__).resolve().parent / "golden" / "docs"


def _certificate_candidates() -> list[tuple[SystemRealization, np.ndarray]]:
    """The ordered-QZ candidates that :func:`minimal_solution` certifies:
    for each system of the zoo at seeds 301, 401 and 1201 and of each golden
    document, and for its adjoint, the system without its constant
    isometric channels and its candidate, where that system is minimal and
    ordered QZ gives one."""
    systems = [sigma for seed in (301, 401, 1201) for sigma in _bench_zoo(seed, 6)]
    systems += [parse_system(str(path)).realization()
                for path in sorted(GOLDEN_DOCS.glob("*.json"))]
    found = []
    for sigma in systems:
        for side in (sigma, adjoint(sigma)):
            reduced = _without_unit_channels(side)
            candidate = extremal(reduced) if is_minimal(reduced) else None
            if candidate is not None:
                found.append((reduced, candidate[0]))
    return found


def _band_cut_radius(sigma: SystemRealization, h: np.ndarray) -> float:
    """The reference closed-loop radius, from a decomposition of delta(H)
    of its own: the eigenvalues of delta kept above the membership band
    ``MEMBERSHIP_TOL * max(1, ||L(H)||)``, an absolute cut, and not the
    kernel's cut at ``RANK_TOL`` relative to the largest one."""
    alpha, beta, delta = _residual_ops(sigma, h)
    lmi = np.linalg.eigvalsh(_lmi(alpha, beta, delta))
    band = MEMBERSHIP_TOL * max(1.0, float(max(-lmi[0], lmi[-1])))
    w, v = np.linalg.eigh(delta)
    gain = _pinv_kept(w, v, w > band) @ beta
    return float(np.abs(np.linalg.eigvals(sigma.a + sigma.b @ gain)).max(initial=0.0))


class TestCertificate:
    def test_only_the_stable_selection_certifies(self, two_state_system, monkeypatch):
        # closed-loop radius sqrt(3)/2 at H_min, 2/sqrt(3) at the other three
        h1, h2, h3, h4 = two_state_re_solutions()
        assert solver_module._certified(two_state_system, h1, SolverConfig())
        for h in (h2, h3, h4):
            with pytest.raises(CertificateFailed) as info:
                solver_module._certified(two_state_system, h, SolverConfig())
            assert info.value.side == "minimal"
            assert abs(info.value.radius - 2.0 / np.sqrt(3.0)) <= 1e-12
            assert info.value.equality_residual <= 1e-12
        # with the radius bound pulled below sqrt(3)/2 (the equality test
        # reads riccati's own constant), H_min fails and shows its radius
        monkeypatch.setattr(solver_module, "EQUALITY_TOL", -0.2)
        with pytest.raises(CertificateFailed) as info:
            solver_module._certified(two_state_system, h1, SolverConfig())
        assert abs(info.value.radius - np.sqrt(3.0) / 2.0) <= 1e-12
        assert info.value.equality_residual <= 1e-12

    @pytest.mark.parametrize("side", ["minimal", "maximal"])
    def test_a_forced_unstable_selection_fails(self, side, two_state_system, monkeypatch):
        # selection 11 (H_max, radius 1.155) put where selection 00 belongs
        real = solver_module.extremal

        def largest_selection(sigma):
            _, lam = real(sigma)
            return equality_candidates(sigma)[0][-1], lam

        monkeypatch.setattr(solver_module, "extremal", largest_selection)
        solve = minimal_solution if side == "minimal" else maximal_solution
        with pytest.raises(CertificateFailed) as info:
            solve(two_state_system)
        assert info.value.side == side
        assert info.value.radius > 1.15
        assert info.value.equality_residual <= 1e-12

    def test_a_non_equality_candidate_fails(self, two_state_system, monkeypatch):
        real = solver_module.extremal
        monkeypatch.setattr(
            solver_module, "extremal", lambda sigma: (1.5 * np.eye(2), real(sigma)[1])
        )
        with pytest.raises(CertificateFailed) as info:
            minimal_solution(two_state_system)
        assert info.value.equality_residual > 0.1

    def test_a_realization_without_states_fails_its_certificate(self):
        # no states: the 0 x 0 candidate is refused as not positive
        # definite, so the certificate path ends in its typed error, not a
        # bare ValueError, and a refused candidate has no closed loop
        sigma = SystemRealization(
            np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[0.5]]
        )
        for solve in (minimal_solution, maximal_solution, duality_check):
            with pytest.raises(CertificateFailed, match="not positive") as info:
                solve(sigma)
            assert np.isnan(info.value.radius)

    def test_the_kernel_gain_gives_the_band_cut_radius(self, monkeypatch):
        # the certificate reads its loop off the kernel's cut of delta at
        # RANK_TOL; on every positive definite ordered-QZ candidate its
        # radius is the one of the membership band's cut, and the 7 others
        # (of four golden documents, and of their adjoints) have no loop.
        # The radius bound is pulled below zero, so that every candidate
        # fails and shows its radius
        monkeypatch.setattr(solver_module, "EQUALITY_TOL", -2.0)
        candidates = _certificate_candidates()
        assert len(candidates) == 176
        compared = 0
        for sigma, h in candidates:
            with pytest.raises(CertificateFailed) as info:
                solver_module._certified(sigma, h, SolverConfig())
            if "not positive definite" in str(info.value):
                assert np.isnan(info.value.radius)
            else:
                assert info.value.radius == _band_cut_radius(sigma, h)
                compared += 1
        assert compared == 169

    def test_the_certificate_decomposes_delta_once(self, two_state_system, monkeypatch):
        # the membership kernel forms delta(H_min) once and takes the one
        # LMI spectrum and the one eigh of delta; the certificate reads its
        # closed loop off that call, and no step outside it repeats them
        n, m = two_state_system.state_dim, two_state_system.input_dim
        formed, kernel_stacks, spectra, deltas = [], [], [], []

        def spy(module, name, seen, record):
            real = getattr(module, name)

            def call(*args, **kwargs):
                seen.append(record(*args))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, call)

        def weight(_, h):
            return h.copy()

        spy(riccati_module, "_residual_ops", formed, weight)
        spy(solver_module, "_residual_ops", formed, weight)
        spy(riccati_module, "_riccati_stack", kernel_stacks, weight)
        spy(np.linalg, "eigvalsh", spectra, np.shape)
        spy(np.linalg, "eigh", deltas, np.shape)
        h_min = minimal_solution(two_state_system).matrix
        assert [h.tolist() for h in kernel_stacks] == [h_min[None].tolist()]
        assert [h.tolist() for h in formed] == [h_min[None].tolist()]
        assert [shape[-1] for shape in spectra].count(n + m) == 1
        assert [shape[-1] for shape in deltas].count(m) == 1

    def test_extremes_sample_nothing(self, two_state_system, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("the extremal solutions sampled")

        monkeypatch.setattr(solver_module, "sample_ri_members", no_sampling)
        minimal_solution(two_state_system)
        maximal_solution(two_state_system)


class TestDuality:
    def test_scalar_equality_sets_differ_under_inversion(self, scalar_interval_system):
        report = duality_check(scalar_interval_system)
        assert report.failure_count == 0
        assert not report.re_inversion_equal
        assert report.re_members.shape == report.re_adjoint_members.shape == (1, 1, 1)
        assert abs(report.re_members[0][0, 0] - 3.0 / 64.0) <= 1e-10
        assert abs(report.re_adjoint_members[0][0, 0] - 4.0 / 3.0) <= 1e-10

    def test_each_equality_set_solved_once(self, scalar_interval_system, monkeypatch):
        # the duality check solves each equality set once: one solve for the
        # system, one for its adjoint, and none for the extremal solutions
        solved_systems = []
        real_solve_re = solver_module.solve_re

        def spy(sigma, config=None):
            solved_systems.append(sigma)
            return real_solve_re(sigma, config)

        monkeypatch.setattr(solver_module, "solve_re", spy)
        duality_check(scalar_interval_system)
        assert len(solved_systems) == 2

    def test_identity_weight_survives_inversion_for_passive_minimal(
        self, two_state_system
    ):
        assert membership(two_state_system, np.eye(2)).in_ri_circ
        assert membership(adjoint(two_state_system), np.eye(2)).in_ri_circ

    def test_two_state_samples_all_pass(self, two_state_system):
        config = SolverConfig(duality_samples=200)
        report = duality_check(two_state_system, config)
        assert report.sample_count == 200
        assert report.failure_count == 0
        assert all(report.samples_ok)


class TestOrderSolutions:
    def test_two_state_order_structure(self, two_state_system):
        solution_set = solve_re(two_state_system)
        comparisons = solution_set.comparisons
        # members sorted: identity, negative off-diag, positive off-diag, maximal
        assert comparisons[(0, 1)] is Loewner.LESS_EQUAL
        assert comparisons[(0, 2)] is Loewner.LESS_EQUAL
        assert comparisons[(0, 3)] is Loewner.LESS_EQUAL
        assert comparisons[(1, 2)] is Loewner.INCOMPARABLE
        assert comparisons[(1, 3)] is Loewner.LESS_EQUAL
        assert comparisons[(2, 3)] is Loewner.LESS_EQUAL
        assert solution_set.minimal_index == 0
        assert solution_set.maximal_index == 3

    def test_singleton_flags(self, scalar_interval_system):
        solution_set = solve_re(scalar_interval_system)
        assert solution_set.minimal_index == 0
        assert solution_set.maximal_index == 0

    def test_sort_key_ignores_trace_roundoff(self):
        # equal traces up to one unit in the last place: the entries decide
        first = np.diag([1.0, 2.0])
        second = np.diag([2.0, 1.0 - 2.0**-51])
        assert np.trace(second) < np.trace(first)
        assert sorted([second, first], key=_solution_sort_key)[0] is first

    def test_incomparable_members_leave_flags_unset(self):
        _, h2, h3, _ = two_state_re_solutions()
        ordered = order_solutions(solution_set_of([h2, h3]))
        assert ordered.minimal_index is None
        assert ordered.maximal_index is None


def _pairwise_order(members, tol=1e-9):
    """order_solutions computed pair by pair with arithmetic of its own: an
    SVD norm and an eigvalsh of each difference, at the tolerance
    ``tol * max(1, ||H_i||, ||H_j||)`` from spectral_norm. Returns the
    comparisons and the minimal and maximal index."""
    mats = list(members)
    comparisons = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            cut = tol * max(1.0, spectral_norm(mats[i]), spectral_norm(mats[j]))
            diff = mats[j] - mats[i]
            w = np.linalg.eigvalsh(diff)
            if spectral_norm(diff) <= cut:
                comparisons[(i, j)] = Loewner.EQUAL
            elif w[0] >= -cut:
                comparisons[(i, j)] = Loewner.LESS_EQUAL
            elif w[-1] <= cut:
                comparisons[(i, j)] = Loewner.GREATER_EQUAL
            else:
                comparisons[(i, j)] = Loewner.INCOMPARABLE
    flip = {Loewner.LESS_EQUAL: Loewner.GREATER_EQUAL,
            Loewner.GREATER_EQUAL: Loewner.LESS_EQUAL}

    def verdict(i, j):
        if i < j:
            return comparisons[(i, j)]
        return flip.get(comparisons[(j, i)], comparisons[(j, i)])

    def first(wanted):
        for i in range(len(mats)):
            if all(verdict(i, j) in wanted for j in range(len(mats)) if j != i):
                return i
        return None

    return (
        comparisons,
        first((Loewner.LESS_EQUAL, Loewner.EQUAL)),
        first((Loewner.GREATER_EQUAL, Loewner.EQUAL)),
    )


def _order_cases(two_state_system):
    rng = np.random.default_rng(61)
    h = random_pd(rng, 3)
    return {
        "two-state": solve_re(two_state_system).members,
        # a complete 16-member pencil set
        "n4-m2": solve_re(
            random_realization(rng, 4, 2, 2, passive_norm=0.9)
        ).members,
        # equal pairs, a chain, and incomparable pairs
        "mixed": np.array([h, h, 2.0 * h, h + 1e-12 * np.eye(3), random_pd(rng, 3),
                           0.5 * h]),
        "random": np.array([random_pd(rng, 2) for _ in range(7)]),
        # pairs whose verdict turns on the larger of the two norms
        "scales": np.array([np.diag(d) for d in ([1.0, 1.0], [1e3, 0.99], [1.0, 1.0])]),
        "one": h[None],
        "none": np.zeros((0, 3, 3)),
    }


@pytest.mark.parametrize(
    "case", ["two-state", "n4-m2", "mixed", "random", "scales", "one", "none"]
)
@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_batched_order_matches_pairwise(case, tol, two_state_system, monkeypatch):
    members = _order_cases(two_state_system)[case]
    if case == "n4-m2":
        assert len(members) == 16
    monkeypatch.setattr(solver_module, "ORDER_TOL", tol)
    ordered = order_solutions(solution_set_of(members))
    comparisons, minimal, maximal = _pairwise_order(members, tol=tol)
    assert ordered.comparisons == comparisons
    assert ordered.minimal_index == minimal
    assert ordered.maximal_index == maximal


def test_ordering_takes_no_svd(two_state_system, monkeypatch):
    members = _order_cases(two_state_system)["n4-m2"]

    def refuse(*args, **kwargs):
        raise AssertionError("ordering called an SVD")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    ordered = order_solutions(solution_set_of(members))
    assert len(ordered.comparisons) == 16 * 15 // 2


def _subset_order(first: str, second: str) -> Loewner:
    """The order of two pencil selections as sets of their 1-digits."""
    ones = [{k for k, digit in enumerate(label) if digit == "1"} for label in (first, second)]
    if ones[0] <= ones[1]:
        return Loewner.LESS_EQUAL
    if ones[1] <= ones[0]:
        return Loewner.GREATER_EQUAL
    return Loewner.INCOMPARABLE


def _pencil_draws():
    """Seeded draws whose pencil decides: minimal ones with n = 1..5, m, p
    = 1..2, half of them not passive (incomplete sets), and the
    appended-state non-minimal ones."""
    for seed in range(40):
        rng = np.random.default_rng(7000 + seed)
        n, m, p = 1 + seed % 5, 1 + (seed // 5) % 2, 1 + (seed // 10) % 2
        norm = 0.9 if seed % 2 else None
        sigma = random_realization(rng, n, m, p, passive_norm=norm)
        if is_minimal(sigma) and equality_candidates(sigma) is not None:
            yield "minimal", sigma
    for seed in range(12):
        for kind in ("uncontrollable", "unobservable"):
            yield kind, _appended_state(seed, kind)


def test_pencil_order_is_the_subset_order_of_selections():
    # Lancaster & Rodman (Algebraic Riccati Equations, 1995): the Hermitian
    # solutions of a decided pencil form a lattice isomorphic to the subsets
    # of the selected outside eigenvalues, so the Loewner order of two members
    # is the inclusion order of the 1-digits of their selections. Non-passive
    # and non-minimal draws give incomplete sets, on which the order still
    # holds. solve_re reads its order off the digits; the pair-by-pair
    # reference computes it from the members alone.
    kinds = collections.Counter()
    for kind, sigma in _pencil_draws():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            solution_set = solve_re(sigma)
        assert solution_set.route == "pencil"
        labels = [
            entry["route"].removeprefix("pencil(selection=").removesuffix(")")
            for entry in solution_set.provenance
        ]
        assert len(solution_set.comparisons) == len(labels) * (len(labels) - 1) // 2
        for (i, j), verdict in solution_set.comparisons.items():
            assert verdict is _subset_order(labels[i], labels[j]), (kind, i, j)
        comparisons, minimal, maximal = _pairwise_order(solution_set.members)
        assert solution_set.comparisons == comparisons
        assert (solution_set.minimal_index, solution_set.maximal_index) == (minimal, maximal)
        kinds[(kind, sigma.state_dim, solution_set.complete)] += 1
    # every state dimension up to 5, incomplete minimal sets, and both
    # kinds of appended state
    assert {n for kind, n, _ in kinds if kind == "minimal"} == {1, 2, 3, 4, 5}
    assert sum(c for (kind, _, done), c in kinds.items() if kind == "minimal" and not done) >= 2
    assert {kind for kind, _, _ in kinds} == {"minimal", "uncontrollable", "unobservable"}


def _recording_loewner_masks(monkeypatch, flip_first_call=False):
    """Replace the solver's ``_loewner_masks`` by one that records how many
    pairs each call compares and, with ``flip_first_call``, reports the
    first pair of its first call INCOMPARABLE (neither mask set)."""
    sizes = []

    def recording(h1, h2, tol):
        le, ge = _loewner_masks(h1, h2, tol)
        if flip_first_call and not sizes:
            le[0] = ge[0] = False
        sizes.append(len(h2))
        return le, ge

    monkeypatch.setattr(solver_module, "_loewner_masks", recording)
    return sizes


def test_pencil_set_compares_only_its_covering_pairs(monkeypatch):
    # n = 6: 6 * 2**5 = 192 selection pairs one digit apart, against the
    # 64 * 63 / 2 = 2016 pairs of the set
    sigma = random_realization(np.random.default_rng(5), 6, 2, 2, passive_norm=0.9)
    sizes = _recording_loewner_masks(monkeypatch)
    solution_set = solve_re(sigma)
    assert len(solution_set) == 64 and solution_set.complete
    assert sizes == [192]
    assert len(solution_set.comparisons) == 2016
    assert (solution_set.minimal_index, solution_set.maximal_index) == (0, 63)


def test_a_failing_covering_pair_falls_back_to_all_pairs(two_state_system, monkeypatch):
    # the two-state set has 2 * 2 covering pairs of its 6; one reported
    # INCOMPARABLE sends the set to order_solutions, whose all-pairs
    # spectra give the true order
    sizes = _recording_loewner_masks(monkeypatch, flip_first_call=True)
    solution_set = solve_re(two_state_system)
    assert sizes == [4, 6]
    assert not solution_set._lattice
    comparisons, minimal, maximal = _pairwise_order(solution_set.members)
    assert solution_set.comparisons == comparisons
    assert (solution_set.minimal_index, solution_set.maximal_index) == (minimal, maximal)


@pytest.mark.parametrize("n", [5, 6])
def test_seeded_pencil_sets_match_the_pairwise_reference_on_both_routes(n, monkeypatch):
    # the digit lattice (covering pairs only) and order_solutions (every
    # pair) give the reference's verdicts and flags, and one order matrix,
    # on full sets; only the first flags the set as ordered by its digits
    sigma = random_realization(np.random.default_rng(5), n, 2, 2, passive_norm=0.9)
    sizes = _recording_loewner_masks(monkeypatch)
    by_digits = solve_re(sigma)
    assert len(by_digits) == 2**n and by_digits.complete
    assert sizes == [n * 2 ** (n - 1)]
    by_pairs = order_solutions(by_digits)
    assert sizes[1:] == [2**n * (2**n - 1) // 2]
    comparisons, minimal, maximal = _pairwise_order(by_digits.members)
    for ordered in (by_digits, by_pairs):
        assert ordered.comparisons == comparisons
        assert (ordered.minimal_index, ordered.maximal_index) == (minimal, maximal)
    assert by_digits._below.dtype == by_pairs._below.dtype == bool
    assert by_digits._lattice and not by_pairs._lattice
    assert np.array_equal(by_digits._below, by_pairs._below)


def test_an_unordered_set_has_no_comparisons(two_state_system):
    solved = solve_re(two_state_system)
    unordered = SolutionSet(members=solved.members, eigenvalues=solved.eigenvalues)
    assert unordered.comparisons == {}
    assert unordered.minimal_index is None and unordered.maximal_index is None


# entries drawn from a few values, so that traces agree to 9 digits (1 and
# 1 + 2**-40), entries agree exactly, and zeros carry either sign
_SORT_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, 1.0 + 2.0**-40, 2.0, -1.0])


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.just(2), st.just(4)),
               elements=_SORT_ENTRIES)
)
def test_lexsort_order_matches_the_sort_key(parts):
    stack = parts.view(complex).reshape(len(parts), 2, 2)
    want = sorted(range(len(stack)), key=lambda i: _solution_sort_key(stack[i]))
    assert _sorted_order(stack).tolist() == want


def test_lexsort_order_matches_the_sort_key_on_pencil_sets():
    for n in (5, 6):
        sigma = random_realization(np.random.default_rng(5), n, 2, 2, passive_norm=0.9)
        stack = equality_candidates(sigma)[0]
        want = sorted(range(len(stack)), key=lambda i: _solution_sort_key(stack[i]))
        assert _sorted_order(stack).tolist() == want


def test_members_share_the_kernel_decomposition_bit_for_bit():
    # a set is one read-only member stack with the spectra of the eigh the
    # membership kernel takes of the candidate stack; each row is the matrix
    # and the spectrum of the member's own StorageOperator, bit for bit
    sigma = random_realization(np.random.default_rng(5), 6, 2, 2, passive_norm=0.9)
    solution_set = solve_re(sigma)
    members, eigenvalues = solution_set.members, solution_set.eigenvalues
    assert members.shape == (64, 6, 6) and members.dtype == complex
    assert eigenvalues.shape == (64, 6) and eigenvalues.dtype == float
    assert len(members) == len(solution_set.provenance)
    for array in (members, eigenvalues):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    for member, spectrum in zip(members, eigenvalues):
        alone = as_storage(member.copy())
        assert alone.matrix.tobytes() == member.tobytes()
        assert alone.eigenvalues.tobytes() == spectrum.tobytes()
    # sets compare by identity, never element by element through the arrays
    assert solution_set == solution_set and solution_set != solve_re(sigma)


# -- the chord sampler --------------------------------------------------------


@st.composite
def strictly_passive_minimal(draw):
    """A random minimal system with n <= 4, m, p <= 2 and block norm < 1."""
    dims = draw(st.tuples(st.integers(1, 4), st.integers(1, 2), st.integers(1, 2)))
    norm = draw(st.floats(0.5, 0.95))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = random_realization(rng, *dims, passive_norm=norm)
    assume(is_minimal(sigma))
    return sigma


@settings(max_examples=25, deadline=None)
@given(
    sigma=strictly_passive_minimal(),
    both=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_hit_and_run_samples_lie_in_ri(sigma, both, seed):
    h_min, h_max = dare_extremes(sigma)
    anchors = [h_min, h_max] if both else [h_min]
    center = sum(anchors) / len(anchors)
    # the empty-interior branch never fires on strictly passive systems
    assert solver_module._interior_point(sigma, center, 1e-9) is not None

    count = 12
    samples = sample_ri_members(sigma, count, np.random.default_rng(seed), anchors)
    again = sample_ri_members(sigma, count, np.random.default_rng(seed), anchors)
    assert len(samples) == count
    assert all(np.array_equal(x, y) for x, y in zip(samples, again))
    assert all(np.array_equal(x, y) for x, y in zip(samples, anchors))

    adj = adjoint(sigma)
    tol = 1e-8 * max(1.0, spectral_norm(h_max))
    for h in samples[len(anchors):]:
        assert membership(sigma, h).diagnostics.lmi_min_eig >= 0.0
        assert loewner_compare(h_min, h, tol=tol) in (Loewner.LESS_EQUAL, Loewner.EQUAL)
        assert loewner_compare(h, h_max, tol=tol) in (Loewner.LESS_EQUAL, Loewner.EQUAL)
        # inverted as duality_check does, Hermitian to the last bit
        assert membership(adj, solver_module._hermitian_inverse(h)).in_ri_circ


def _thin_cases(coisometry_system):
    cascade = blaschke_system([0.5, -0.3 + 0.4j, 0.2j])
    return {
        "rotation": (SystemRealization(0.6, -0.8, 0.8, 0.6), [np.eye(1)]),
        "coisometry": (coisometry_system, [np.eye(1), np.eye(1)]),
        "allpass-cascade": (cascade, [np.eye(3)]),
    }


@settings(max_examples=25, deadline=None)
@given(sigma=strictly_passive_minimal(), upper=st.booleans())
def test_interior_point_from_an_equality_member(sigma, upper):
    # at H_min or H_max the LMI is singular, so the point comes from a
    # strictly passive neighbour: it clears the band and lies between the
    # extremal pair
    h_min, h_max = dare_extremes(sigma)
    h = solver_module._interior_point(sigma, h_max if upper else h_min, 1e-9)
    assert h is not None
    w = np.linalg.eigvalsh(_lmi(*_residual_ops(sigma, h)))
    assert w[0] > 1e-9 * max(1.0, -w[0], w[-1])
    tol = 1e-8 * max(1.0, spectral_norm(h_max))
    assert loewner_compare(h_min, h, tol=tol) in (Loewner.LESS_EQUAL, Loewner.EQUAL)
    assert loewner_compare(h, h_max, tol=tol) in (Loewner.LESS_EQUAL, Loewner.EQUAL)


def _interior_sweep() -> list[tuple[SystemRealization, np.ndarray]]:
    """The minimal systems of 240 seeded draws, n = 2..10 and m, p = 1..2,
    with C and D scaled so that the block norm is at most 0.5, 0.9, 0.99 or
    0.999, whose extremes certify and whose extremal pair's mean does not
    clear the band, each with that mean."""
    rng = np.random.default_rng(5)
    kept = []
    for _ in range(240):
        n, m, p = int(rng.integers(2, 11)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
        drawn = _zoo_draw(rng, n, m, p)
        scale = rng.choice([0.5, 0.9, 0.99, 0.999]) / 0.9
        sigma = SystemRealization(drawn.a, drawn.b, scale * drawn.c, scale * drawn.d)
        if not is_minimal(sigma):
            continue
        try:
            center = 0.5 * (minimal_solution(sigma).matrix + maximal_solution(sigma).matrix)
        except CertificateFailed:
            continue
        w = np.linalg.eigvalsh(_lmi(*_residual_ops(sigma, center)))
        if w[0] <= 1e-9 * max(1.0, -w[0], w[-1]):
            kept.append((sigma, center))
    return kept


def test_every_strictly_passive_draw_gets_an_interior_point():
    # every draw is strictly passive, so its LMI has an interior, and each
    # kept draw needs the neighbours to find a point in it
    kept = _interior_sweep()
    assert len(kept) >= 200
    missed = [
        sigma.state_dim
        for sigma, center in kept
        if solver_module._interior_point(sigma, center, 1e-9) is None
    ]
    assert missed == []


@pytest.mark.parametrize("case", ["rotation", "coisometry", "allpass-cascade"])
def test_empty_interior_gives_copies_of_the_mean(case, coisometry_system, monkeypatch):
    sigma, anchors = _thin_cases(coisometry_system)[case]
    center = sum(anchors) / len(anchors)
    calls = []

    def counted(neighbour):
        calls.append(neighbour)
        return extremal(neighbour)

    with monkeypatch.context() as patch:
        patch.setattr(solver_module, "extremal", counted)
        assert solver_module._interior_point(sigma, center, 1e-9) is None
    # one ordered QZ per eps = 4**-k down to the band
    band = 1e-9 * max(1.0, spectral_norm(_lmi(*_residual_ops(sigma, center))))
    assert 1 <= len(calls) <= math.ceil(math.log(1.0 / band, 4)) + 1
    samples = sample_ri_members(sigma, 30, np.random.default_rng(3), anchors)
    assert len(samples) == 30
    assert all(np.array_equal(h, center) for h in samples)


def test_ill_conditioned_lmi_still_gives_members():
    # cond(H_max) about 5e7, and the anchors' mean does not clear the band:
    # the chords run through a strictly passive neighbour's solution, not
    # through the mean
    sigma = random_realization(np.random.default_rng(173), 6, 1, 1, passive_norm=0.5)
    anchors = list(dare_extremes(sigma))
    center = sum(anchors) / 2.0
    assert solver_module._interior_point(sigma, center, 1e-9) is not None
    samples = sample_ri_members(sigma, 10, np.random.default_rng(0), anchors)
    assert len(samples) == 10
    assert all(membership(sigma, h).in_ri for h in samples)
    assert not any(np.array_equal(h, center) for h in samples[len(anchors):])


# seed-301 zoo systems with n >= 3 > m, by their index in the zoo; the
# greatest distance of a sample from the first sampled one measured 2.90,
# 2.28, 1.12 and 1.36
CHORD_ZOO = {"n3_m2_p2": 11, "n4_m1_p2": 13, "n5_m2_p2": 19, "n6_m1_p1": 20}


@pytest.mark.parametrize("name", sorted(CHORD_ZOO))
def test_the_samples_spread_through_ri(name):
    # the report shows only sample counts, so the spread of the samples is
    # bounded here
    sigma = _bench_zoo(301, 6)[CHORD_ZOO[name]]
    anchors = [minimal_solution(sigma).matrix, maximal_solution(sigma).matrix]
    samples = sample_ri_members(sigma, 50, np.random.default_rng(7), anchors)
    assert len(samples) == 50
    sampled = samples[len(anchors):]
    assert max(spectral_norm(h - sampled[0]) for h in sampled) >= 1.0


@pytest.mark.parametrize("seed", [301, 401, 1201])
def test_duality_fills_its_samples_on_the_zoo(seed):
    # every zoo system with n <= 6: 50 samples, each inverted into the
    # adjoint's RI
    for sigma in _bench_zoo(seed, 6):
        report = duality_check(sigma, SolverConfig(seed=seed))
        assert report.sample_count == 50
        assert report.failure_count == 0


def test_no_exact_route_fails_the_certificate():
    # T(z) = diag(z, 0.5 z): the inner channel z is not constant, so it is
    # not deflated, and it makes the Popov function singular on the circle
    # and so the pencil; the system is neither inner nor co-inner
    sigma = SystemRealization(np.zeros((2, 2)), np.eye(2), np.diag([1.0, 0.5]),
                              np.zeros((2, 2)))
    assert is_minimal(sigma) and extremal(sigma) is None
    with pytest.raises(CertificateFailed, match="no exact route: singular pencil or V1"):
        minimal_solution(sigma)


@pytest.mark.parametrize(
    "a, b, c, d, norm, route",
    [
        # a decided pencil whose equality set is empty, and no ordered-QZ
        # candidate
        ([[0.5]], [[0.5, 0.0]], [[0.5]], [[0.0, 1.0]], math.sqrt(1.25), "pencil"),
        # T(z) = diag(z, 1.5 z): a singular pencil, and no QZ candidate on
        # either side
        (np.zeros((2, 2)), np.eye(2), np.diag([1.0, 1.5]), np.zeros((2, 2)), 1.5, None),
    ],
    ids=["pencil", "singular-pencil"],
)
def test_no_qz_candidate_still_takes_the_schur_class_test(a, b, c, d, norm, route):
    # ||T(1)|| > 1 + EQUALITY_TOL proves T is not in the Schur class, so
    # both extremes raise NotSchurClass at angle 0, not CertificateFailed
    sigma = SystemRealization(a, b, c, d)
    assert is_minimal(sigma) and extremal(sigma) is None
    for extreme in (minimal_solution, maximal_solution):
        with pytest.raises(NotSchurClass) as raised:
            extreme(sigma)
        assert raised.value.angle == 0.0
        assert raised.value.norm == pytest.approx(norm, rel=1e-12)
    if route is None:  # the extremal route tests it too
        with pytest.raises(NotSchurClass):
            solve_re(sigma)
    else:
        solution_set = solve_re(sigma)
        assert solution_set.route == route and len(solution_set) == 0


def test_duality_check_requires_a_minimal_system():
    sigma = SystemRealization(0.5 * np.eye(2), [[1.0], [1.0]], [[1.0, 0.0]], [[0.0]])
    with pytest.raises(NotMinimal, match="duality statements assume a minimal system"):
        duality_check(sigma)


def test_sampler_requires_a_minimal_system():
    sigma = SystemRealization(
        np.diag([0.5, 0.25]), [[1.0], [0.0]], [[1.0, 1.0]], [[0.0]]
    )
    with pytest.raises(NotMinimal):
        sample_ri_members(sigma, 5, np.random.default_rng(0), [np.eye(2)])


def test_rejected_chain_points_are_drawn_again(two_state_system, monkeypatch):
    # a point the kernel rejects (here: every third of the first round) is
    # dropped, and a further round fills the count
    kernel = solver_module._membership_stack
    rounds = []

    def rejecting(sigma, h, **kwargs):
        table = kernel(sigma, h, **kwargs)
        if not rounds:
            _rejecting_rows(table, slice(None, None, 3))
        rounds.append(h.copy())
        return table

    monkeypatch.setattr(solver_module, "_membership_stack", rejecting)
    anchors = [np.eye(2)]
    samples = sample_ri_members(two_state_system, 20, np.random.default_rng(9), anchors)
    assert len(samples) == 20 and len(rounds) == 2
    assert len(rounds[0]) == 19 and len(rounds[1]) == 7
    kept = list(rounds[0][1::3]) + list(rounds[0][2::3])
    assert not any(np.array_equal(h, x) for h in samples for x in rounds[0][::3])
    assert sum(any(np.array_equal(h, x) for x in kept) for h in samples) == 12


def test_sampler_raises_inconsistent_routes(two_state_system, monkeypatch):
    # the kernel raises the first split of a round; the sampler lets it out
    kernel = solver_module._membership_stack

    def flagging(sigma, h, **kwargs):
        if len(h) > 4:
            raise InconsistentRoutes("flagged")
        return kernel(sigma, h, **kwargs)

    monkeypatch.setattr(solver_module, "_membership_stack", flagging)
    with pytest.raises(InconsistentRoutes, match="flagged"):
        sample_ri_members(two_state_system, 20, np.random.default_rng(9), [np.eye(2)])


def test_a_round_that_keeps_no_point_ends_sampling(two_state_system, monkeypatch):
    # the kernel keeps no point of the first round, and the anchor is all
    # that is returned
    kernel, rounds = solver_module._membership_stack, []

    def rejecting(sigma, h, **kwargs):
        table = kernel(sigma, h, **kwargs)
        table.in_ri[:] = False
        rounds.append(len(h))
        return table

    monkeypatch.setattr(solver_module, "_membership_stack", rejecting)
    samples = sample_ri_members(two_state_system, 20, np.random.default_rng(9), [np.eye(2)])
    assert rounds == [19]
    assert [h.tolist() for h in samples] == [np.eye(2).tolist()]


def test_anchors_outside_ri_are_skipped(scalar_interval_system):
    # RI is [3/64, 3/4]: -1 is not positive definite, and 1 lies above RI
    anchors = [-np.eye(1), np.eye(1)]
    rng = np.random.default_rng(0)
    assert sample_ri_members(scalar_interval_system, 3, rng, anchors) == []


def test_anchors_that_fill_the_count_take_no_search(scalar_interval_system, monkeypatch):
    search, calls = solver_module._interior_point, []

    def spy(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(solver_module, "_interior_point", spy)
    anchors = [-np.eye(1), [[0.1]], [[0.5]], [[0.6]]]
    samples = sample_ri_members(scalar_interval_system, 2, np.random.default_rng(0), anchors)
    assert [h.tolist() for h in samples] == [[[0.1]], [[0.5]]]
    assert calls == []


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_point_does_not_clear_the_band(scalar_interval_system, value):
    assert not solver_module._clears_band(scalar_interval_system, np.array([[value]]), 1e-9)
    assert solver_module._clears_band(scalar_interval_system, np.array([[0.3]]), 1e-9)


def test_re_residual_norm_reads_a_storage_operators_matrix(two_state_system):
    h = as_storage(np.diag([1.0, 2.0]))
    residual = re_residual_norm(two_state_system, h)
    assert residual > 0.0
    assert residual == re_residual_norm(two_state_system, h.matrix)


# -- matching equality sets -----------------------------------------------------


def _pairwise_sets_match(first, second, tol):
    """_sets_match as it was before the batch: one spectral_norm per pair."""
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


def _set_pairs():
    rng = np.random.default_rng(71)
    members = [random_pd(rng, 3) for _ in range(6)]
    shuffled = [members[i] + 1e-9 * np.eye(3) for i in (3, 0, 5, 1, 4, 2)]
    near = members[0] + 1e-7 * np.eye(3)
    # rank-one steps at 0.99 and 1.01 times the threshold: their Frobenius
    # norm falls between the screen's cuts, so a spectral norm decides them
    u = np.ones((3, 1)) / np.sqrt(3.0)
    step = 1e-6 * (1.0 + spectral_norm(members[0])) * (u @ u.T)
    return {
        "match": (members, shuffled),
        "empty": ([], []),
        "lengths": (members, members[:5]),
        "one-off": (members, shuffled[:5] + [members[2] + 1e-3 * np.eye(3)]),
        # greedy first hit: the close pair is taken by the first member
        "greedy": ([near, members[0]], [members[0], 2.0 * members[0]]),
        "duplicates": ([members[0], members[0]], [members[0], near]),
        "inside": (members[:2], [members[0] + 0.99 * step, members[1]]),
        "outside": (members[:2], [members[0] + 1.01 * step, members[1]]),
    }


@pytest.mark.parametrize(
    "case",
    ["match", "empty", "lengths", "one-off", "greedy", "duplicates", "inside", "outside"],
)
def test_batched_sets_match_is_pairwise(case, monkeypatch):
    first, second = (np.array(s, dtype=complex).reshape(-1, 3, 3) for s in _set_pairs()[case])
    expected = _pairwise_sets_match(first, second, tol=1e-6)
    stacks = []

    def recording(a):
        stacks.append(a.shape[0])
        return _spectral_norms(a)

    monkeypatch.setattr(solver_module, "_spectral_norms", recording)
    assert solver_module._sets_match(first, second, tol=1e-6) is expected
    assert expected is (case in ("match", "empty", "duplicates", "inside"))
    # the member norms take one call; only the near pairs take a second one
    near = case in ("inside", "outside")
    assert stacks == ([] if case in ("empty", "lengths") else [len(first)] + [1] * near)


def _golden_system(name: str) -> SystemRealization:
    path = Path(__file__).parent / "golden" / "docs" / f"{name}.json"
    return parse_system(str(path)).realization()


@pytest.mark.parametrize("name", ["coisometry", "blaschke3"])
def test_a_one_point_ri_takes_no_phase_one(name, monkeypatch):
    # co-inner and inner: H_min = H_max, so RI is one point and the duality
    # check builds its samples, the pair and its mean's copies, without the
    # sampler; forced through the sampler, whose interior-point search finds
    # no point, it gives the same report
    sigma = _golden_system(name)
    cfg = SolverConfig(seed=301)
    extremes = minimal_solution(sigma, cfg), maximal_solution(sigma, cfg)
    sampler, search, runs = solver_module.sample_ri_members, solver_module._interior_point, []

    def spy(real, label):
        def counted(*args, **kwargs):
            runs.append((label, real(*args, **kwargs)))
            return runs[-1][1]

        return counted

    monkeypatch.setattr(solver_module, "sample_ri_members", spy(sampler, "sampler"))
    monkeypatch.setattr(solver_module, "_interior_point", spy(search, "search"))
    report = duality_check(sigma, cfg, extremes=extremes)
    assert runs == []

    monkeypatch.setattr(solver_module, "_one_point", lambda h_min, h_max: False)
    forced = duality_check(sigma, cfg, extremes=extremes)
    assert [label for label, _ in runs] == ["search", "sampler"]
    assert runs[0][1] is None
    assert report.sample_count == forced.sample_count == cfg.duality_samples
    assert report.samples_ok == forced.samples_ok
    assert report.failure_count == forced.failure_count
    assert report.re_inversion_equal == forced.re_inversion_equal
    for mine, theirs in ((report.re_members, forced.re_members),
                         (report.re_adjoint_members, forced.re_adjoint_members)):
        assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("name", ["coisometry", "blaschke3"])
def test_duality_checks_each_distinct_sample_once(name, monkeypatch):
    # a one-point RI gives 50 samples of at most three distinct matrices,
    # the anchors and their mean: each is inverted and checked once, in the
    # first kernel call on the adjoint, and every copy reads its verdict
    sigma = _golden_system(name)
    adj = adjoint(sigma)
    kernel, rows = solver_module._membership_stack, []

    def spy(system, h, *args, **kwargs):
        if system is adj:
            rows.append(len(h))
        return kernel(system, h, *args, **kwargs)

    monkeypatch.setattr(solver_module, "_membership_stack", spy)
    report = duality_check(sigma, SolverConfig(seed=301))
    assert report.sample_count == len(report.samples_ok) == 50
    assert 1 <= rows[0] <= 3


@pytest.mark.parametrize("name", sorted(CHORD_ZOO))
def test_each_sample_lies_inside_its_chord(name):
    # one round of 28 directions from the interior point h0: each sample is
    # h0 + t E at its drawn position u of the chord of E, whose ends
    # -1/mu_max and -1/mu_min are read here off the generalized eigenvalues
    # of L(E) x = mu L(h0) x, not off the sampler's factor of L(h0)
    sigma = _bench_zoo(301, 6)[CHORD_ZOO[name]]
    n = sigma.state_dim
    anchors = [minimal_solution(sigma).matrix, maximal_solution(sigma).matrix]
    h0 = solver_module._interior_point(sigma, sum(anchors) / 2.0, 1e-9)
    samples = sample_ri_members(sigma, 30, np.random.default_rng(5), anchors)
    rng = np.random.default_rng(5)
    g = rng.standard_normal((2, 28, n, n))
    dirs = hermitian_part(g[0] + 1j * g[1])
    positions = rng.uniform(size=28)
    l0 = _lmi(*_residual_ops(sigma, h0))
    assert len(samples) == 30
    for h, e, u in zip(samples[2:], dirs, positions):
        mu = scipy.linalg.eigh(solver_module._lmi_linear(sigma, e), l0, eigvals_only=True)
        lo, hi = -1.0 / mu[-1], -1.0 / mu[0]
        t = np.vdot(e, h - h0).real / np.vdot(e, e).real
        assert spectral_norm(h - h0 - t * e) <= 1e-12 * spectral_norm(h0)
        assert lo <= t <= hi
        assert abs(t - (lo + u * (hi - lo))) <= 1e-10 * (hi - lo)


@pytest.mark.parametrize(
    "a, b, c, d",
    [(1.5 * np.exp(0.7j), 0.3, 0.4, 0.1), (0.5, 1.0, 1.0, 0.2j)],
    ids=["pole", "norm"],
)
def test_maximal_solution_names_the_systems_angle(a, b, c, d):
    # the adjoint's transfer function at angle t is T(exp(-1j t))*, so its
    # NotSchurClass is raised at -t mod 2 pi: where minimal_solution names
    # the pole (5.583185, norm inf) or the norm above one (0.394791)
    sigma = SystemRealization(a, b, c, d)
    with pytest.raises(NotSchurClass) as low:
        minimal_solution(sigma)
    with pytest.raises(NotSchurClass) as high:
        maximal_solution(sigma)
    assert abs(high.value.angle - low.value.angle) <= 1e-12
    assert high.value.norm == pytest.approx(low.value.norm, rel=1e-12)


def _block_pencil(sigma: SystemRealization) -> tuple[np.ndarray, np.ndarray]:
    """The extended pencil assembled by np.block and cast to complex."""
    a, b, c, d = sigma.a, sigma.b, sigma.c, sigma.d
    n, m = sigma.state_dim, sigma.input_dim
    eye_n, zero_n, zero_nm = np.eye(n), np.zeros((n, n)), np.zeros((n, m))
    ch = c.conj().T
    big_m = np.block([
        [a, zero_n, b],
        [-ch @ c, eye_n, -ch @ d],
        [d.conj().T @ c, zero_nm.T, d.conj().T @ d - np.eye(m)],
    ])
    big_n = np.block([
        [eye_n, zero_n, zero_nm],
        [zero_n, a.conj().T, zero_nm],
        [zero_nm.T, -b.conj().T, np.zeros((m, m))],
    ])
    return big_m.astype(complex), big_n.astype(complex)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=6),
    m=st.integers(min_value=1, max_value=2),
    p=st.integers(min_value=1, max_value=2),
    real=st.booleans(),
)
def test_extended_pencil_equals_its_block_assembly(seed, n, m, p, real):
    sigma = random_realization(np.random.default_rng(seed), n, m, p)
    if real:  # real data: zero imaginary parts, and signed zeros in products
        sigma = SystemRealization(sigma.a.real, sigma.b.real, sigma.c.real, sigma.d.real)
    big_m, big_n, m_scale, n_scale = _extended_pencil(sigma)
    for got, want in zip((big_m, big_n), _block_pencil(sigma)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    assert (m_scale, n_scale) == (max(np.linalg.norm(big_m), 1.0), max(np.linalg.norm(big_n), 1.0))
    # built once per realization: extremal and equality_candidates read it
    assert _extended_pencil(sigma)[0] is big_m
