"""Circle-profile and uniqueness-certificate tests, including the allpass
cascade family where the member set collapses to one point."""

import numpy as np
import pytest

from riccati_kyp import (
    NotMinimal,
    PoleOnCircle,
    SystemRealization,
    UniquenessReason,
    UniquenessVerdict,
    adjoint,
    circle_profile,
    is_coinner,
    is_inner,
    maximal_solution,
    minimal_solution,
    riccati_data,
    solve_re,
    spectral_norm,
    uniqueness_certificate,
)
from conftest import blaschke_system, random_similarity


@pytest.fixture
def delay_system():
    return SystemRealization(0.0, 1.0, 1.0, 0.0)  # transfer = lam


class TestCircleProfile:
    def test_delay_has_no_defect(self, delay_system):
        profile = circle_profile(delay_system, grid_steps=256)
        assert profile.max_defect_right <= 1e-12
        assert profile.max_defect_left <= 1e-12

    def test_coisometry_defects(self, coisometry_system):
        profile = circle_profile(coisometry_system, grid_steps=256)
        assert abs(profile.max_defect_right - 1.0) <= 1e-12
        assert profile.max_defect_left <= 1e-12

    def test_scalar_interval_right_defect_bounded_away_from_zero(
        self, scalar_interval_system
    ):
        # |theta| <= 6/7 on the disc, so 1 - |theta|^2 >= 1 - (6/7)^2
        profile = circle_profile(scalar_interval_system, grid_steps=512)
        assert profile.right_defects.min() >= 1.0 - (6.0 / 7.0) ** 2 - 1e-9

    def test_angles_strictly_increasing_and_values_finite(self, two_state_system):
        profile = circle_profile(two_state_system, grid_steps=128)
        assert np.all(np.diff(profile.angles) > 0)
        assert profile.angles[0] == 0.0
        assert profile.angles[-1] < 2.0 * np.pi
        assert np.all(np.isfinite(profile.values.real))

    def test_pole_on_circle_rejected(self):
        sigma = SystemRealization(1.0, 1.0, 1.0, 0.0)  # pole at 1
        with pytest.raises(PoleOnCircle):
            circle_profile(sigma, grid_steps=64)

    def test_grid_refinement_stability(self, scalar_interval_system):
        coarse = circle_profile(scalar_interval_system, grid_steps=2048)
        fine = circle_profile(scalar_interval_system, grid_steps=4096)
        assert abs(coarse.max_defect_right - fine.max_defect_right) <= 1e-6
        assert abs(coarse.max_defect_left - fine.max_defect_left) <= 1e-6


class TestInnerCoinner:
    def test_delay_both(self, delay_system):
        profile = circle_profile(delay_system, grid_steps=256)
        assert is_inner(profile) and is_coinner(profile)

    def test_coisometry_only_coinner(self, coisometry_system):
        profile = circle_profile(coisometry_system, grid_steps=256)
        assert not is_inner(profile)
        assert is_coinner(profile)

    def test_two_state_neither(self, two_state_system):
        profile = circle_profile(two_state_system, grid_steps=256)
        assert not is_inner(profile) and not is_coinner(profile)

    def test_inner_iff_adjoint_coinner(self, coisometry_system):
        rng = np.random.default_rng(50)
        systems = [
            coisometry_system,
            adjoint(coisometry_system),
            blaschke_system([0.4]),
            blaschke_system([0.3 + 0.2j, -0.5], random_similarity(rng, 2)),
        ]
        for sigma in systems:
            profile = circle_profile(sigma, grid_steps=512)
            adj_profile = circle_profile(adjoint(sigma), grid_steps=512)
            assert is_inner(profile) == is_coinner(adj_profile)
            assert is_coinner(profile) == is_inner(adj_profile)


class TestUniquenessCertificate:
    def test_delay_certified_through_inner_route(self, delay_system):
        cert = uniqueness_certificate(delay_system, grid_steps=256)
        assert cert.verdict is UniquenessVerdict.UNIQUE_SINGLETON
        assert cert.reason is UniquenessReason.INNER_FR0
        assert cert.delta_at_solution <= 1e-12
        # the input-side residual vanishes at the unique member
        assert abs(riccati_data(delay_system, 1.0).delta_op[0, 0]) <= 1e-14

    def test_coisometry_certified_through_coinner_route(self, coisometry_system):
        cert = uniqueness_certificate(coisometry_system, grid_steps=256)
        assert cert.verdict is UniquenessVerdict.UNIQUE_SINGLETON
        assert cert.reason is UniquenessReason.COINNER_FL0
        # the adjoint-side residual vanishes at the inverted member ...
        assert cert.delta_at_solution <= 1e-12
        # ... while the system's own residual at the member is nonzero
        delta = riccati_data(coisometry_system, 1.0).delta_op
        assert np.allclose(delta, np.diag([0.0, 1.0]))
        assert spectral_norm(delta) > 0.5

    def test_interval_example_unknown(self, scalar_interval_system):
        # the second system has |theta| = 1 - 5e-9 on the circle: its right
        # defect, about 1.00000006e-8, sits just above the tolerance, so it
        # is not inner and nothing certifies a singleton
        r, s = np.sqrt(0.91), 1.0 - 5e-9
        near_allpass = SystemRealization([[0.3]], [[r]], [[r * s]], [[-0.3 * s]])
        assert not is_inner(circle_profile(near_allpass, grid_steps=256))
        for sigma in (scalar_interval_system, near_allpass):
            cert = uniqueness_certificate(sigma, grid_steps=256)
            assert cert.verdict is UniquenessVerdict.UNKNOWN
            assert cert.reason is UniquenessReason.NONE
            assert cert.delta_at_solution is None

    def test_requires_minimal_system(self):
        sigma = SystemRealization(
            np.diag([0.0, 0.5]), [[1.0], [0.0]], [[1.0, 0.0]], [[0.0]]
        )
        with pytest.raises(NotMinimal):
            uniqueness_certificate(sigma, grid_steps=64)


class TestAllpassCascades:
    @pytest.mark.parametrize(
        "zeros",
        [[0.4], [0.5, -0.25], [0.3 + 0.35j, -0.2, 0.5 - 0.1j]],
        ids=["degree1", "degree2", "degree3"],
    )
    def test_singleton_consistency(self, zeros):
        rng = np.random.default_rng(51 + len(zeros))
        t = random_similarity(rng, len(zeros))
        sigma = blaschke_system(zeros, t)

        profile = circle_profile(sigma, grid_steps=1024)
        assert is_inner(profile)
        cert = uniqueness_certificate(sigma, profile)
        assert cert.verdict is UniquenessVerdict.UNIQUE_SINGLETON
        assert cert.reason is UniquenessReason.INNER_FR0
        assert cert.delta_at_solution <= 1e-8

        h_min = minimal_solution(sigma)
        h_max = maximal_solution(sigma)
        expected = np.linalg.inv(t).conj().T @ np.linalg.inv(t)
        assert spectral_norm(h_min.matrix - expected) <= 1e-8
        assert spectral_norm(h_min.matrix - h_max.matrix) <= 1e-8

        solution_set = solve_re(sigma)
        assert len(solution_set) == 1
        assert spectral_norm(solution_set.members[0].matrix - h_min.matrix) <= 1e-8

        assert spectral_norm(riccati_data(sigma, h_min).delta_op) <= 1e-8
