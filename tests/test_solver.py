"""Solver tests: scalar closed form, the symplectic-pencil route, multi-start
Newton on the augmented system, extremal solutions with certificates,
inversion duality, ordering, and determinism."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riccati_kyp import (
    InconsistentRoutes,
    IterationDiverged,
    Loewner,
    NotMinimal,
    NotPD,
    NotScalar,
    SolverConfig,
    SystemRealization,
    SolutionSet,
    adjoint,
    as_storage,
    duality_check,
    is_minimal,
    loewner_compare,
    maximal_solution,
    membership,
    minimal_solution,
    order_solutions,
    re_residual_norm,
    sample_ri_members,
    solve_re,
    solve_re_scalar,
    spectral_norm,
    system_matrix,
)
from riccati_kyp import solver as solver_module
from riccati_kyp.linops import _spectral_norms
from riccati_kyp.pencil import CIRCLE_GAP, _extended_pencil, equality_candidates
from riccati_kyp.solver import (
    EQUALITY_TOL,
    MAX_ITER,
    NEWTON_TOL,
    _aug_jacobian,
    _aug_residual,
    _herm_pack,
    _herm_unpack,
    _newton_equality,
    _newton_multistart,
    _pack_residual,
    _solution_sort_key,
    _unpack,
)
from conftest import (
    blaschke_system,
    dare_extremes,
    random_hermitian,
    random_pd,
    random_realization,
    random_similarity,
    two_state_re_solutions,
)


class TestScalarClosedForm:
    def test_interval_example(self, scalar_interval_system):
        solution_set = solve_re_scalar(scalar_interval_system)
        assert len(solution_set) == 1
        assert abs(solution_set.members[0].matrix[0, 0] - 3.0 / 64.0) <= 1e-12

    def test_interval_example_adjoint(self, scalar_interval_system):
        solution_set = solve_re_scalar(adjoint(scalar_interval_system))
        assert len(solution_set) == 1
        assert abs(solution_set.members[0].matrix[0, 0] - 4.0 / 3.0) <= 1e-12

    def test_delay_solution_on_boundary(self):
        sigma = SystemRealization(0.0, 1.0, 1.0, 0.0)  # transfer = lam
        solution_set = solve_re_scalar(sigma)
        assert len(solution_set) == 1
        h = solution_set.members[0].matrix[0, 0]
        assert abs(h - 1.0) <= 1e-12
        from riccati_kyp import riccati_data

        assert abs(riccati_data(sigma, 1.0).delta_op[0, 0]) <= 1e-14

    def test_rejects_non_scalar(self, two_state_system):
        with pytest.raises(NotScalar):
            solve_re_scalar(two_state_system)

    def test_degenerate_continuum_rejected(self):
        # with no input or output coupling and a unimodular state operator,
        # every positive weight satisfies the equality; no finite set exists
        sigma = SystemRealization(1.0, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            solve_re_scalar(sigma)

    def test_decoupled_strictly_stable_state_has_no_solutions(self):
        sigma = SystemRealization(0.5, 0.0, 0.0, 0.5)
        assert len(solve_re_scalar(sigma)) == 0


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
            assert spectral_norm(member.matrix - target) <= 1e-12
        labels = {p["route"] for p in solution_set.provenance}
        assert labels == {f"pencil(selection={s})" for s in ("00", "01", "10", "11")}
        assert all(p["iterations"] == 0 for p in solution_set.provenance)
        assert all(p["residual"] <= 1e-12 for p in solution_set.provenance)
        # the selection of the inside eigenvalues is the minimal solution
        assert solution_set.provenance[0]["route"] == "pencil(selection=00)"
        assert solution_set.provenance[3]["route"] == "pencil(selection=11)"

    def test_scalar_through_newton_matches_closed_form(self, scalar_interval_system):
        # solve_re sends scalar systems to the closed form, so the Newton
        # route is called directly
        solution_set = _newton_multistart(scalar_interval_system, SolverConfig())
        assert solution_set.route == "newton-multistart"
        assert len(solution_set) == 1
        assert abs(solution_set.members[0].matrix[0, 0] - 3.0 / 64.0) <= 1e-10

    def test_scalar_dispatch_forwards_tolerances(
        self, scalar_interval_system, monkeypatch
    ):
        seen = []

        def spy(sigma, h, **kwargs):
            seen.append((kwargs.get("tol"), kwargs.get("eq_tol")))
            return membership(sigma, h, **kwargs)

        monkeypatch.setattr(solver_module, "membership", spy)
        solution_set = solve_re(
            scalar_interval_system, SolverConfig(membership_tol=1e-7)
        )
        assert solution_set.route == "scalar-closed-form"
        assert seen
        assert all(tols == (1e-7, EQUALITY_TOL) for tols in seen)
        assert abs(solution_set.members[0].matrix[0, 0] - 3.0 / 64.0) <= 1e-12

    def test_non_minimal_scalar_warns_on_closed_form_route(self):
        # B = 0 makes the scalar system uncontrollable
        sigma = SystemRealization(0.5, 0.0, 0.5, 0.3)
        with pytest.warns(RuntimeWarning, match="non-minimal"):
            solution_set = solve_re(sigma)
        assert solution_set.route == "scalar-closed-form"

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
            spectral_norm(m.matrix - np.eye(2)) for m in solution_set.members
        ]
        assert min(distances) <= 1e-10

    def test_members_are_fixed_points(self, two_state_system):
        solution_set = solve_re(two_state_system)
        for member in solution_set.members:
            residual = re_residual_norm(two_state_system, member.matrix)
            assert residual <= 1e-9 * (1.0 + spectral_norm(member.matrix))

    def test_deterministic_given_seed(self, two_state_system):
        config = SolverConfig(seed=123)
        first = solve_re(two_state_system, config)
        second = solve_re(two_state_system, config)
        assert len(first) == len(second)
        for a, b in zip(first.members, second.members):
            assert np.array_equal(a.matrix, b.matrix)
        assert first.provenance == second.provenance
        assert first.comparisons == second.comparisons

    def test_dimension_cap(self):
        sigma = SystemRealization(
            np.zeros((7, 7)), np.ones((7, 1)), np.ones((1, 7)), [[0.0]]
        )
        with pytest.raises(ValueError):
            solve_re(sigma)

    def test_non_schur_system_finds_nothing(self):
        sigma = SystemRealization(0.1, 1.0, 1.0, 2.0)
        from riccati_kyp import NoConvergence

        try:
            solution_set = solve_re(sigma)
        except NoConvergence:
            return
        assert len(solution_set) == 0


def _near(h, stack, tol=1e-6) -> bool:
    return any(spectral_norm(h - x) <= tol * max(1.0, spectral_norm(x)) for x in stack)


BLASCHKE3_ZEROS = [0.3 + 0.35j, -0.2, 0.5 - 0.1j]


class TestPencilRoute:
    def test_a_rejected_selection_leaves_the_set_incomplete(
        self, two_state_system, monkeypatch
    ):
        kernel = solver_module._membership_stack

        def reject_last(sigma, h, **kwargs):
            results = kernel(sigma, h, **kwargs)
            results[-1] = NotPD("rejected")
            return results

        monkeypatch.setattr(solver_module, "_membership_stack", reject_last)
        solution_set = solve_re(two_state_system)
        assert solution_set.route == "pencil"
        assert not solution_set.complete
        assert len(solution_set) == 3
        routes = [p["route"] for p in solution_set.provenance]
        assert "pencil(selection=11)" not in routes
        # the maximal solution was the rejected selection
        assert solution_set.maximal_index is None

    @pytest.mark.parametrize("case", ["blaschke3", "coisometry"])
    def test_inner_and_coinner_take_newton(self, case, coisometry_system):
        # the pencil of an inner or co-inner system is singular: its
        # eigenvalues are noise, and reading selections off them would
        # return copies of the one solution
        if case == "blaschke3":
            t = random_similarity(np.random.default_rng(54), 3)
            sigma = blaschke_system(BLASCHKE3_ZEROS, t)
        else:
            sigma = coisometry_system
        assert equality_candidates(sigma) is None
        solution_set = solve_re(sigma)
        assert solution_set.route == "newton-multistart"
        assert not solution_set.complete
        assert len(solution_set) == 1

    def test_circle_eigenvalues_take_newton(self):
        # the two-state example with A scaled by 1.05: the Popov function
        # vanishes on the circle, so the pencil has eigenvalues there
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
        lam = scipy.linalg.eigvals(*_extended_pencil(sigma))
        gap = np.abs(np.abs(lam[np.isfinite(lam)]) - 1.0).min()
        solution_set = solve_re(sigma)
        if offset == 1e-10:
            assert gap > 5 * CIRCLE_GAP
            assert solution_set.route == "pencil" and solution_set.complete
            assert len(solution_set) == 4
        else:
            assert gap < CIRCLE_GAP
            assert equality_candidates(sigma) is None
            assert solution_set.route == "newton-multistart"

    def test_non_minimal_takes_newton(self):
        # the scalar interval example plus an uncontrollable, observable mode
        sigma = SystemRealization(
            np.diag([-0.125, 0.5]), [[1.0], [0.0]], [[0.1875, 0.3]], [[0.5]]
        )
        with pytest.warns(RuntimeWarning, match="non-minimal"):
            solution_set = solve_re(sigma)
        assert solution_set.route == "newton-multistart"
        assert not solution_set.complete


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=1, max_value=2),
    p=st.integers(min_value=1, max_value=2),
    norm=st.sampled_from([0.5, 0.9, 0.99]),
)
def test_pencil_set_holds_every_newton_solution(seed, n, m, p, norm):
    """On random strictly passive minimal systems the pencil decides the
    equality set. Every member passes membership; every limit of Newton from
    seeded random starts is one of the 2**n pencil candidates, and a member
    whenever membership accepts it. The set is complete exactly when all
    2**n candidates are members, and then its flagged extremes are the
    all-inside and all-outside selections."""
    rng = np.random.default_rng(seed)
    sigma = random_realization(rng, n, m, p, passive_norm=norm)
    assume(is_minimal(sigma))
    found = equality_candidates(sigma)
    assert found is not None
    stack, labels = found
    assert stack.shape == (2**n, n, n)
    assert len(set(labels)) == 2**n
    scalar = n == m == p == 1
    solution_set = solve_re(sigma)
    assert solution_set.route == ("scalar-closed-form" if scalar else "pencil")
    members = [member.matrix for member in solution_set.members]
    for h in members:
        assert membership(sigma, h, eq_tol=EQUALITY_TOL).in_re
    if not scalar:
        assert solution_set.complete == (len(members) == 2**n)
    if solution_set.complete:
        assert _near(stack[0], [members[solution_set.minimal_index]], tol=1e-12)
        assert _near(stack[-1], [members[solution_set.maximal_index]], tol=1e-12)
    for _ in range(2):
        h, _, _, converged = _newton_equality(
            sigma, random_hermitian(rng, n), tol=NEWTON_TOL, max_iter=MAX_ITER
        )
        if not converged:
            continue
        assert _near(h, stack)
        try:
            accepted = membership(sigma, h, eq_tol=EQUALITY_TOL).in_re
        except NotPD:
            accepted = False
        if accepted:
            assert _near(h, members)


def _residual_derivative(sigma, k, delta, e, f):
    """The packed derivative of the augmented residual along (E, F), one
    direction at a time, with the matmuls in the solver's order."""
    a_mat, b_mat = sigma.a, sigma.b
    betab = b_mat.conj().T @ e @ b_mat
    d_phi1 = (
        e - a_mat.conj().T @ e @ a_mat + k.conj().T @ betab @ k
        - f.conj().T @ delta @ k - k.conj().T @ delta @ f
    )
    d_phi2 = b_mat.conj().T @ e @ a_mat + betab @ k - delta @ f
    return _pack_residual(0.5 * (d_phi1 + d_phi1.conj().T), d_phi2)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_aug_jacobian_matches_central_differences(n, m):
    """Each column of the batched Jacobian equals the derivative along its
    unit direction taken alone (the same arithmetic, so exactly) and its
    central difference."""
    rng = np.random.default_rng(100 * n + m)
    sigma = random_realization(rng, n, m, 2)
    h = random_hermitian(rng, n)
    k = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    stack = np.stack([random_hermitian(rng, n) for _ in range(5)])
    packed = _herm_pack(stack)
    assert packed.shape == (5, n * n)
    assert np.array_equal(packed[3], _herm_pack(stack[3]))
    assert np.array_equal(_herm_unpack(packed, n), stack)

    delta = _aug_residual(sigma, h, k)[1]
    jac = _aug_jacobian(sigma, k, delta)
    dim = n * n + 2 * m * n
    assert jac.shape == (dim, dim)
    step = 1e-5
    for col, (e, f) in enumerate(zip(*_unpack(np.eye(dim), n, m))):
        assert np.array_equal(jac[:, col], _residual_derivative(sigma, k, delta, e, f))
        plus = _aug_residual(sigma, h + step * e, k + step * f)[0]
        minus = _aug_residual(sigma, h - step * e, k - step * f)[0]
        central = (plus - minus) / (2.0 * step)
        assert np.allclose(jac[:, col], central, rtol=0.0, atol=1e-8), col


class TestExtremalSolutions:
    def test_scalar_interval(self, scalar_interval_system):
        h_min = minimal_solution(scalar_interval_system)
        h_max = maximal_solution(scalar_interval_system)
        assert abs(h_min.matrix[0, 0] - 3.0 / 64.0) <= 1e-9
        assert abs(h_max.matrix[0, 0] - 0.75) <= 1e-9

    def test_scalar_interval_adjoint(self, scalar_interval_system):
        adj = adjoint(scalar_interval_system)
        assert abs(minimal_solution(adj).matrix[0, 0] - 4.0 / 3.0) <= 1e-9
        assert abs(maximal_solution(adj).matrix[0, 0] - 64.0 / 3.0) <= 1e-7

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
        with pytest.raises(IterationDiverged):
            minimal_solution(sigma)


class TestDuality:
    def test_scalar_equality_sets_differ_under_inversion(self, scalar_interval_system):
        report = duality_check(scalar_interval_system)
        assert report.failure_count == 0
        assert not report.re_inversion_equal
        assert abs(report.re_members[0][0, 0] - 3.0 / 64.0) <= 1e-10
        assert abs(report.re_adjoint_members[0][0, 0] - 4.0 / 3.0) <= 1e-10

    def test_each_equality_set_solved_once(self, scalar_interval_system, monkeypatch):
        # the extremal certificates and the duality check share one list of
        # solved sets: one solve for the system, one for its adjoint
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
        solution_set = solve_re_scalar(scalar_interval_system)
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
        ordered = order_solutions(
            SolutionSet(members=[as_storage(h2), as_storage(h3)])
        )
        assert ordered.minimal_index is None
        assert ordered.maximal_index is None


def _pairwise_order(members, tol=1e-9):
    """order_solutions as it was before the batch: one loewner_compare per
    pair. Returns the comparisons and the minimal and maximal index."""
    mats = [m.matrix for m in members]
    comparisons = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            cmp_tol = tol * max(1.0, spectral_norm(mats[i]), spectral_norm(mats[j]))
            comparisons[(i, j)] = loewner_compare(mats[i], mats[j], tol=cmp_tol)
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
        "mixed": [as_storage(x) for x in (h, h, 2.0 * h, h + 1e-12 * np.eye(3),
                                          random_pd(rng, 3), 0.5 * h)],
        "random": [as_storage(random_pd(rng, 2)) for _ in range(7)],
        # pairs whose verdict turns on the larger of the two norms
        "scales": [as_storage(np.diag(d)) for d in ([1.0, 1.0], [1e3, 0.99], [1.0, 1.0])],
        "one": [as_storage(h)],
        "none": [],
    }


@pytest.mark.parametrize(
    "case", ["two-state", "n4-m2", "mixed", "random", "scales", "one", "none"]
)
@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_batched_order_matches_pairwise(case, tol, two_state_system):
    members = _order_cases(two_state_system)[case]
    if case == "n4-m2":
        assert len(members) == 16
    ordered = order_solutions(SolutionSet(members=members), tol=tol)
    comparisons, minimal, maximal = _pairwise_order(members, tol=tol)
    assert ordered.comparisons == comparisons
    assert ordered.minimal_index == minimal
    assert ordered.maximal_index == maximal


# -- the hit-and-run sampler --------------------------------------------------


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
    assert solver_module._phase_one(sigma, center, 1e-9) is not None

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
        assert membership(adj, np.linalg.inv(h)).in_ri_circ


def _thin_cases(coisometry_system):
    cascade = blaschke_system([0.5, -0.3 + 0.4j, 0.2j])
    return {
        "rotation": (SystemRealization(0.6, -0.8, 0.8, 0.6), [np.eye(1)]),
        "coisometry": (coisometry_system, [np.eye(1), np.eye(1)]),
        "allpass-cascade": (cascade, [np.eye(3)]),
    }


@pytest.mark.parametrize("case", ["rotation", "coisometry", "allpass-cascade"])
def test_empty_interior_gives_copies_of_the_mean(case, coisometry_system):
    sigma, anchors = _thin_cases(coisometry_system)[case]
    center = sum(anchors) / len(anchors)
    assert solver_module._phase_one(sigma, center, 1e-9) is None
    samples = sample_ri_members(sigma, 30, np.random.default_rng(3), anchors)
    assert len(samples) == 30
    assert all(np.array_equal(h, center) for h in samples)


def test_ill_conditioned_lmi_still_gives_members():
    # cond(H_max) about 5e7: roundoff can take a phase-I iterate out of the
    # feasible set, and the sampler then falls back to copies of the mean
    sigma = random_realization(np.random.default_rng(173), 6, 1, 1, passive_norm=0.5)
    anchors = list(dare_extremes(sigma))
    samples = sample_ri_members(sigma, 10, np.random.default_rng(0), anchors)
    assert len(samples) == 10
    assert all(membership(sigma, h).in_ri for h in samples)


def test_sampler_requires_a_minimal_system():
    sigma = SystemRealization(
        np.diag([0.5, 0.25]), [[1.0], [0.0]], [[1.0, 1.0]], [[0.0]]
    )
    with pytest.raises(NotMinimal):
        sample_ri_members(sigma, 5, np.random.default_rng(0), [np.eye(2)])


def test_rejected_chain_points_are_drawn_again(two_state_system, monkeypatch):
    # a point the kernel rejects (here: every third of the first round) is
    # dropped, and a further round of the same chain fills the count
    kernel = solver_module._membership_stack
    rounds = []

    def rejecting(sigma, h, **kwargs):
        results = kernel(sigma, h, **kwargs)
        if not rounds:
            results[::3] = [NotPD("rejected")] * len(results[::3])
        rounds.append(h.copy())
        return results

    monkeypatch.setattr(solver_module, "_membership_stack", rejecting)
    anchors = [np.eye(2)]
    samples = sample_ri_members(two_state_system, 20, np.random.default_rng(9), anchors)
    assert len(samples) == 20 and len(rounds) == 2
    assert len(rounds[0]) == 19 and len(rounds[1]) == 7
    kept = list(rounds[0][1::3]) + list(rounds[0][2::3])
    assert not any(np.array_equal(h, x) for h in samples for x in rounds[0][::3])
    assert sum(any(np.array_equal(h, x) for x in kept) for h in samples) == 12


def test_sampler_raises_inconsistent_routes(two_state_system, monkeypatch):
    kernel = solver_module._membership_stack

    def flagging(sigma, h, **kwargs):
        results = kernel(sigma, h, **kwargs)
        results[4] = InconsistentRoutes("flagged")
        return results

    monkeypatch.setattr(solver_module, "_membership_stack", flagging)
    with pytest.raises(InconsistentRoutes, match="flagged"):
        sample_ri_members(two_state_system, 20, np.random.default_rng(9), [np.eye(2)])


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
    first, second = _set_pairs()[case]
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
