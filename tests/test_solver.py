"""Solver tests: scalar closed form, multi-start Newton on the augmented
system, extremal solutions with certificates, inversion duality, ordering,
and determinism."""

import numpy as np
import pytest

from riccati_kyp import (
    IterationDiverged,
    Loewner,
    NotMinimal,
    NotScalar,
    SolverConfig,
    SystemRealization,
    adjoint,
    duality_check,
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
from riccati_kyp.solver import EQUALITY_TOL, _newton_multistart
from conftest import two_state_re_solutions


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
        assert len(solution_set) == 4
        # sorted by trace then entries: identity, negative off-diagonal,
        # positive off-diagonal, diagonal maximal
        order = [expected[0], expected[2], expected[1], expected[3]]
        for member, target in zip(solution_set.members, order):
            assert spectral_norm(member.matrix - target) <= 1e-8

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

    def test_incomparable_members_leave_flags_unset(self):
        from riccati_kyp import SolutionSet, as_storage

        _, h2, h3, _ = two_state_re_solutions()
        ordered = order_solutions(
            SolutionSet(members=[as_storage(h2), as_storage(h3)])
        )
        assert ordered.minimal_index is None
        assert ordered.maximal_index is None
