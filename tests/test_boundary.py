"""Circle-profile and uniqueness-certificate tests, including the allpass
cascade family where the member set collapses to one point."""

from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from riccati_kyp import (
    NotMinimal,
    NotSchurClass,
    PoleOnCircle,
    SingularResolvent,
    SystemRealization,
    UniquenessReason,
    UniquenessVerdict,
    adjoint,
    circle_profile,
    is_coinner,
    is_inner,
    is_minimal,
    maximal_solution,
    minimal_solution,
    riccati_data,
    schur_class_margin,
    solve_re,
    spectral_norm,
    uniqueness_certificate,
)
from riccati_kyp import systems as systems_module
from riccati_kyp.boundary import CircleProfile
from riccati_kyp.cli import parse_system
from riccati_kyp.systems import POLE_TOL, SINGULAR_TOL, _schur_form
from conftest import (
    blaschke_system,
    exact_transfer,
    grid_error,
    grid_error_bound,
    grid_realization,
    random_realization,
    random_similarity,
    unit_pole_realization,
)


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

    @pytest.mark.parametrize("grid_steps", [0, -3])
    def test_a_grid_without_steps_is_refused(self, delay_system, grid_steps):
        with pytest.raises(ValueError, match="^grid_steps must be positive$"):
            circle_profile(delay_system, grid_steps=grid_steps)

    def test_pole_on_circle_rejected(self):
        sigma = SystemRealization(1.0, 1.0, 1.0, 0.0)  # pole at 1
        with pytest.raises(PoleOnCircle):
            circle_profile(sigma, grid_steps=64)

    def test_non_normal_resolvent_caught_by_singular_values(self):
        # eigenvalues 0.5 pass the pole test, but ||A|| = 1e13: only the
        # per-point singular-value test sees the ill-conditioned resolvent
        sigma = SystemRealization([[0.5, 1e13], [0.0, 0.5]], [[0.0], [1.0]],
                                  [[1.0, 0.0]], [[0.0]])
        with pytest.raises(PoleOnCircle) as caught:
            circle_profile(sigma)
        with pytest.raises(PoleOnCircle) as expected:
            _reference_circle_profile(sigma, 4096)
        assert caught.value.angle == expected.value.angle == 0.0

    def test_grid_refinement_stability(self, scalar_interval_system):
        coarse = circle_profile(scalar_interval_system, grid_steps=2048)
        fine = circle_profile(scalar_interval_system, grid_steps=4096)
        assert abs(coarse.max_defect_right - fine.max_defect_right) <= 1e-6
        assert abs(coarse.max_defect_left - fine.max_defect_left) <= 1e-6


def _two_spectrum_defects(values):
    """Right and left defects of a (k, p, m) value stack from the spectra of
    ``I - theta* theta`` and ``I - theta theta*``, taken separately."""
    vt = values.conj().transpose(0, 2, 1)
    right = np.eye(values.shape[2])[None, :, :] - vt @ values
    left = np.eye(values.shape[1])[None, :, :] - values @ vt
    return (
        np.abs(np.linalg.eigvalsh(right)).max(axis=1),
        np.abs(np.linalg.eigvalsh(left)).max(axis=1),
    )


def _reference_circle_profile(sigma, grid_steps):
    """circle_profile with the singular-value test run at every grid point,
    whatever ||A||: the reference for the kernel's norm screen."""
    for lam in np.linalg.eigvals(sigma.a):
        mag = abs(lam)
        if mag > 0.0 and abs(1.0 / mag - 1.0) < POLE_TOL:
            raise PoleOnCircle(float(-np.angle(lam) % (2.0 * np.pi)))
    angles = 2.0 * np.pi * np.arange(grid_steps) / grid_steps
    zeta = np.exp(1j * angles)
    n, m = sigma.state_dim, sigma.input_dim
    resolvents = np.eye(n)[None, :, :] - zeta[:, None, None] * sigma.a[None, :, :]
    svals = np.linalg.svd(resolvents, compute_uv=False)
    bad = svals[:, -1] <= SINGULAR_TOL * svals[:, 0]
    if np.any(bad):
        raise PoleOnCircle(float(angles[int(np.argmax(bad))]))
    rhs = np.broadcast_to(sigma.b, (grid_steps, n, m))
    x = np.linalg.solve(resolvents, rhs)
    values = sigma.d[None, :, :] + zeta[:, None, None] * (sigma.c @ x)
    right_defects, left_defects = _two_spectrum_defects(values)
    return CircleProfile(
        angles=angles,
        values=values,
        right_defects=right_defects,
        left_defects=left_defects,
    )


_GRID_DRAWS = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=1, max_value=2),
    p=st.integers(min_value=1, max_value=2),
    kappa=st.sampled_from([1.0, 1e2, 1e4]),
)


@settings(max_examples=40, deadline=None)
@given(**_GRID_DRAWS, grid_steps=st.integers(min_value=1, max_value=512))
def test_circle_profile_decision_equals_per_point_reference(seed, n, m, p, kappa, grid_steps):
    """The norm screen changes no decision: contractive state operators take
    it, similarity transforms with ||A|| > 1 take the per-point test, and the
    kernel raises exactly where the reference does, at the same angle."""
    sigma = grid_realization(seed, n, m, p, kappa)
    assume(kappa == 1.0 or spectral_norm(sigma.a) > 1.0)
    try:
        expected = _reference_circle_profile(sigma, grid_steps)
    except PoleOnCircle as exc:
        with pytest.raises(PoleOnCircle) as caught:
            circle_profile(sigma, grid_steps=grid_steps)
        assert caught.value.angle == exc.angle
        return
    profile = circle_profile(sigma, grid_steps=grid_steps)
    assert np.array_equal(profile.angles, expected.angles)
    assert np.all(np.isfinite(profile.values))


def _nonnormal_draw(seed: int, n: int, m: int, p: int, exponent: float) -> SystemRealization:
    """A = Q T Q* for a random unitary Q and an upper triangular T with
    eigenvalues of modulus below 0.999 and off-diagonal entries of size
    10**exponent. Those are T's eigenvalues, not the stored A's: once
    ``exponent`` is large, rounding Q T Q* moves them. At seed 0, n = 3 and
    exponent 6, the eigenvalues of the stored A, the roots of its exact
    characteristic polynomial, have moduli 1.475, 1.559 and 1.916."""
    rng = np.random.default_rng(seed)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    mu = rng.uniform(0.0, 0.999, n) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    t = np.diag(mu) + 10.0**exponent * np.triu(gaussian(n, n), 1)
    q, _ = np.linalg.qr(gaussian(n, n))
    return SystemRealization(q @ t @ q.conj().T, gaussian(n, m), gaussian(p, n), gaussian(p, m))


def _unscreened():
    """Every grid point of a non-contractive A goes to the singular-value
    test, as if the comparison-matrix screen proved none."""
    return mock.patch.object(
        systems_module, "_screened", lambda t, lams, bound: np.zeros(lams.size, dtype=bool)
    )


def _first_singular(sigma: SystemRealization, lams: np.ndarray) -> int | None:
    """The index of the first point whose resolvent fails the singular-value
    test when every point is tested, or None."""
    n = sigma.state_dim
    resolvents = np.eye(n)[None, :, :] - lams[:, None, None] * sigma.a[None, :, :]
    svals = np.linalg.svd(resolvents, compute_uv=False)
    bad = svals[:, -1] <= SINGULAR_TOL * svals[:, 0]
    return int(np.argmax(bad)) if bad.any() else None


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=4),
    m=st.integers(min_value=1, max_value=2),
    p=st.integers(min_value=1, max_value=2),
    exponent=st.floats(min_value=0.0, max_value=9.0),
    grid_steps=st.sampled_from([64, 512, 4096]),
)
def test_schur_screen_changes_no_value_and_no_raise(seed, n, m, p, exponent, grid_steps):
    """On non-normal state operators with ||A|| >= 1 and off-diagonal Schur
    entries up to 1e9, the circle profile and the Schur margin on its circle
    of radius 0.999 with the comparison-matrix screen raise at the first
    point, in index order, that fails the singular-value test when every
    point is tested, and where no point fails, their values are those of
    testing every point, byte for byte. A margin whose computed spectrum
    (off by orders of magnitude at such entries) puts a pole in the disc
    reads inf without its grid, about a third of the draws."""
    sigma = _nonnormal_draw(seed, n, m, p, exponent)
    assume(spectral_norm(sigma.a) >= 1.0)
    angles = 2.0 * np.pi * np.arange(grid_steps) / grid_steps
    first = _first_singular(sigma, np.exp(1j * angles))
    if first is None:
        profile = circle_profile(sigma, grid_steps=grid_steps)
        with _unscreened():
            reference = circle_profile(sigma, grid_steps=grid_steps)
        for got, want in ((profile.values, reference.values),
                          (profile.right_defects, reference.right_defects),
                          (profile.left_defects, reference.left_defects)):
            assert got.tobytes() == want.tobytes()
    else:
        with pytest.raises(PoleOnCircle) as caught:
            circle_profile(sigma, grid_steps=grid_steps)
        assert caught.value.angle == angles[first]
    circle = 0.999 * systems_module._circle_points(48)[1]
    first = _first_singular(sigma, circle)
    if (np.abs(np.diagonal(_schur_form(sigma)[1])) * 0.999 >= 1.0).any():
        with _unscreened():
            assert schur_class_margin(sigma) == np.inf
    elif first is None:
        margin = schur_class_margin(sigma)
        with _unscreened():
            assert margin == schur_class_margin(sigma)
    else:
        with pytest.raises(SingularResolvent) as caught:
            schur_class_margin(sigma)
        assert caught.value.lam == circle[first]


def test_screen_proves_every_point_of_blaschke3(monkeypatch):
    # ||A|| = 1.0000000000000002 misses the contraction screen, and the
    # comparison matrix proves all 4096 grid points, so no SVD is taken
    path = Path(__file__).parent / "golden" / "docs" / "blaschke3.json"
    sigma = parse_system(str(path)).realization()
    norm_a = _schur_form(sigma)[0]  # decided before the spy
    assert not 1.0 - norm_a >= 2.0 * SINGULAR_TOL * (1.0 + norm_a)
    real_svd, calls = np.linalg.svd, []

    def svd(*args, **kwargs):
        calls.append(args[0])
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd)
    profile = circle_profile(sigma, grid_steps=4096)
    assert calls == []
    with _unscreened():
        reference = circle_profile(sigma, grid_steps=4096)
    assert len(calls) == 1 and len(calls[0]) == 4096
    assert profile.values.tobytes() == reference.values.tobytes()


@settings(max_examples=40, deadline=None)
@given(**_GRID_DRAWS, grid_steps=st.integers(min_value=1, max_value=16))
# the Schur solve is off by 5.0e-13 here and LU by 9.8e-15: both within the
# first-order bound, LU far inside it, so the LU term alone would fail
@example(seed=13834902, n=2, m=1, p=1, kappa=100.0, grid_steps=1)
def test_circle_profile_values_as_accurate_as_per_point_reference(
    seed, n, m, p, kappa, grid_steps
):
    """Against a 40-digit evaluation, the Schur-coordinate values are within
    ten times the error of the reference's LU solves plus twice the
    first-order bound of a backward-stable evaluation, plus 1e-13. The bound
    term is needed: an LU solve of a small resolvent can come out far inside
    it, and a search over 2500 draws, targeted at each ratio, found the
    kernel at up to 8.4 times the LU term alone but at most 0.28 times the
    whole right-hand side."""
    sigma = grid_realization(seed, n, m, p, kappa)
    assume(kappa == 1.0 or spectral_norm(sigma.a) > 1.0)
    try:
        expected = _reference_circle_profile(sigma, grid_steps)
    except PoleOnCircle:
        return  # the decision property covers raising grids
    profile = circle_profile(sigma, grid_steps=grid_steps)
    zeta = np.exp(1j * profile.angles)
    exact = exact_transfer(sigma, zeta)
    reference_error = grid_error(expected.values, exact)
    bound = grid_error_bound(sigma, zeta, exact)
    assert grid_error(profile.values, exact) <= 10.0 * reference_error + 2.0 * bound + 1e-13


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=1, max_value=3),
    p=st.integers(min_value=1, max_value=3),
    kappa=st.sampled_from([1.0, 1e2]),
    gain=st.sampled_from([0.5, 1.0, 3.0, 30.0]),
)
def test_defects_from_one_gram_spectrum_match_two(seed, n, m, p, kappa, gain):
    """Both defects, read off the eigenvalues of the smaller Gram matrix,
    equal the eigenvalues of I - theta* theta and I - theta theta* taken
    separately, to roundoff in the larger of 1 and ||theta||^2. The bound is
    16 eps: over 1500 draws the two computations differed by up to 8 eps,
    the error of the two-spectrum side against a 40-digit evaluation (the
    one-spectrum defects were within 0.5 eps of it on the same points)."""
    sigma = grid_realization(seed, n, m, p, kappa)
    sigma = SystemRealization(sigma.a, sigma.b, gain * sigma.c, gain * sigma.d)
    profile = circle_profile(sigma, grid_steps=64)
    right, left = _two_spectrum_defects(profile.values)
    scale = np.maximum(1.0, np.linalg.svd(profile.values, compute_uv=False)[:, 0] ** 2)
    tol = 16.0 * np.finfo(float).eps * scale
    assert np.all(np.abs(profile.right_defects - right) <= tol)
    assert np.all(np.abs(profile.left_defects - left) <= tol)


def _angle_gap(first: float, second: float) -> float:
    """Distance of two angles on the circle."""
    return abs((first - second + np.pi) % (2.0 * np.pi) - np.pi)


@pytest.mark.parametrize("seed", range(6))
def test_unit_eigenvalue_of_a_dense_state_operator_is_a_pole_on_the_circle(seed):
    # circle_profile and minimal_solution read the eigenvalues of A off the
    # diagonal of the realization's Schur form; their decisions are those of
    # np.linalg.eigvals, and the pole exp(-1j theta) has the angle -theta
    sigma, theta = unit_pole_realization(seed)
    assert is_minimal(sigma)
    angle = -theta % (2.0 * np.pi)
    mu = np.linalg.eigvals(sigma.a)
    on_circle = [lam for lam in mu if abs(1.0 / abs(lam) - 1.0) < POLE_TOL]
    assert len(on_circle) == 1
    assert _angle_gap(-np.angle(on_circle[0]), angle) <= 1e-12
    with pytest.raises(PoleOnCircle) as pole:
        circle_profile(sigma, grid_steps=64)
    assert _angle_gap(pole.value.angle, angle) <= 1e-12
    # the Schur-class test names the same pole, also where |mu| rounds
    # below 1 (seeds 0, 2, 3 and 4)
    with pytest.raises(NotSchurClass) as schur:
        minimal_solution(sigma)
    assert schur.value.norm == np.inf
    assert _angle_gap(schur.value.angle, angle) <= 1e-12


def test_unmatched_output_dimensions_give_left_defect_one():
    # theta theta* has rank at most m < p, and a passive theta has
    # |1 - sigma^2| <= 1, so the left defect is 1 at every point
    sigma = random_realization(np.random.default_rng(7), 3, 1, 3, passive_norm=0.9)
    profile = circle_profile(sigma, grid_steps=256)
    assert np.all(profile.left_defects == 1.0)
    assert profile.max_defect_left == 1.0
    assert profile.max_defect_right < 1.0


@pytest.mark.parametrize("m, p", [(0, 1), (1, 0)])
def test_realization_without_inputs_or_outputs(m, p):
    # I - theta* theta is m x m and I - theta theta* is p x p: the empty side
    # has defect 0, and the other is the identity, of defect 1
    sigma = SystemRealization(0.5 * np.eye(1), np.full((1, m), 0.5),
                              np.full((p, 1), 0.5), np.zeros((p, m)))
    profile = circle_profile(sigma, grid_steps=16)
    assert profile.values.shape == (16, p, m)
    assert np.all(profile.right_defects == float(m > p))
    assert np.all(profile.left_defects == float(p > m))


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

    def test_a_screen_the_identities_refuse_is_unknown(self):
        # T(z) = (1 + z) / 2 is unimodular only at z = 1, the one point of a
        # one-step grid, so the screen passes; its Stein solution X = 1/4
        # leaves beta(X) = 1/4, and the identities refuse it
        sigma = SystemRealization([[0.0]], [[1.0]], [[0.5]], [[0.5]])
        profile = circle_profile(sigma, grid_steps=1)
        assert profile.max_defect_right == 0.0 and is_inner(profile)
        assert not is_inner(circle_profile(sigma, grid_steps=2))
        cert = uniqueness_certificate(sigma, profile)
        assert cert.verdict is UniquenessVerdict.UNKNOWN
        assert cert.reason is UniquenessReason.NONE
        assert cert.delta_at_solution is None

    @pytest.mark.parametrize("padded", [False, True], ids=["inner", "coinner"])
    def test_unstable_allpass_unknown(self, padded):
        # T(z) = (z - 2) / (1 - 2z) is unimodular on the circle and satisfies
        # the Stein identities with X = -3, but its pole at z = 1/2 puts it
        # outside the Schur class, so it has no inequality member. Padded
        # with a zero input column it is co-inner only, and its adjoint's
        # Stein solution is W = -1/3.
        pad = [0.0] if padded else []
        sigma = SystemRealization([[2.0]], [[1.0] + pad], [[-3.0]], [[-2.0] + pad])
        profile = circle_profile(sigma, grid_steps=256)
        assert is_inner(profile) != padded and is_coinner(profile)
        cert = uniqueness_certificate(sigma, profile)
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
        assert spectral_norm(solution_set.members[0] - h_min.matrix) <= 1e-8

        assert spectral_norm(riccati_data(sigma, h_min).delta_op) <= 1e-8
