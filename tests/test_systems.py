"""Realization tests: immutability, block matrix, transfer evaluation,
subspaces, minimality, adjoint, passivity, the disc-norm bound on its
boundary circle, simulation, and dissipation margins."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from riccati_kyp import (
    DimensionMismatch,
    NotPD,
    SingularResolvent,
    SystemRealization,
    adjoint,
    controllable_subspace,
    dissipation_check,
    is_minimal,
    is_passive,
    schur_class_margin,
    simulate,
    spectral_norm,
    system_matrix,
    transfer_eval,
    unobservable_subspace,
)
from riccati_kyp.systems import (
    SINGULAR_TOL,
    _circle_points,
    _gram_eigs,
    _schur_form,
    _screened,
    _transfer_grid,
)
from conftest import (
    decisions,
    exact_transfer,
    grid_error,
    grid_error_bound,
    grid_realization,
    nonnormal_realization,
    random_realization,
)


class TestImmutableRealization:
    def test_fields_cannot_be_assigned(self, two_state_system):
        with pytest.raises(dataclasses.FrozenInstanceError):
            two_state_system.a = np.zeros((2, 2))

    def test_matrices_are_read_only(self, two_state_system):
        for mat in (two_state_system.a, two_state_system.b,
                    two_state_system.c, two_state_system.d):
            with pytest.raises(ValueError):
                mat[0, 0] = 1.0

    def test_constructor_copies_its_arrays(self):
        mats = [np.full((2, 2), 0.5, dtype=complex), np.ones((2, 1), dtype=complex),
                np.ones((1, 2), dtype=complex), np.zeros((1, 1), dtype=complex)]
        sigma = SystemRealization(*mats)
        before = [mat.copy() for mat in mats]
        for mat in mats:
            mat += 1.0
        for kept, mat in zip(before, (sigma.a, sigma.b, sigma.c, sigma.d)):
            assert np.array_equal(mat, kept)

    def test_minimality_report_is_decided_once_and_frozen(self, monkeypatch):
        # the memo reaches the decider only on the first call for a
        # realization, and every call returns the one frozen report, which
        # known reads back without deciding
        sigma = random_realization(np.random.default_rng(24), 3, 2, 1)
        decided = decisions(monkeypatch, is_minimal)
        assert is_minimal.known(sigma) is None and decided == []
        report = is_minimal(sigma)
        assert is_minimal(sigma) is report and decided == [sigma]
        assert is_minimal.known(sigma) is report
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.minimal = False

    def test_schur_form_is_read_only(self, two_state_system):
        norm_a, t, q = _schur_form(two_state_system)
        assert _schur_form(two_state_system)[1] is t
        assert not t.flags.writeable and not q.flags.writeable
        assert np.allclose(q @ t @ q.conj().T, two_state_system.a, atol=1e-15)
        assert norm_a == spectral_norm(two_state_system.a)


class TestSystemMatrix:
    def test_scalar_interval_blocks(self, scalar_interval_system):
        m = system_matrix(scalar_interval_system)
        assert np.allclose(m, [[-0.125, 1.0], [0.1875, 0.5]])

    def test_zero_system(self):
        sigma = SystemRealization(np.zeros((2, 2)), np.zeros((2, 1)),
                                  np.zeros((1, 2)), np.zeros((1, 1)))
        assert np.allclose(system_matrix(sigma), np.zeros((3, 3)))

    def test_coisometry_blocks(self, coisometry_system):
        m = system_matrix(coisometry_system)
        assert np.allclose(m, [[0, 1, 0], [1, 0, 0]])

    def test_dimension_validation(self):
        with pytest.raises(DimensionMismatch):
            SystemRealization(np.eye(2), np.ones((3, 1)), np.ones((1, 2)), [[0.0]])
        with pytest.raises(ValueError):
            SystemRealization([[np.inf]], [[1.0]], [[1.0]], [[0.0]])


class TestTransferEval:
    def test_value_at_zero_is_feedthrough(self, two_state_system):
        sample = transfer_eval(two_state_system, 0.0)
        assert np.allclose(sample.value, two_state_system.d)

    def test_scalar_interval_at_one(self, scalar_interval_system):
        # rational form (2*lam + 4) / (lam + 8) evaluated at 1
        sample = transfer_eval(scalar_interval_system, 1.0)
        assert abs(sample.value[0, 0] - 2.0 / 3.0) <= 1e-12
        assert abs(sample.norm - 2.0 / 3.0) <= 1e-12

    def test_two_state_at_half(self, two_state_system):
        # rational form lam*a*b / (1 - lam^2 a b) evaluated at 1/2
        sample = transfer_eval(two_state_system, 0.5)
        assert abs(sample.value[0, 0] - 3.0 / 11.0) <= 1e-12

    def test_singular_resolvent(self):
        sigma = SystemRealization(2.0, 1.0, 1.0, 0.0)  # pole at 1/2
        with pytest.raises(SingularResolvent):
            transfer_eval(sigma, 0.5)

    @pytest.mark.parametrize("lam", [np.inf, np.nan, complex(1.0, np.inf)],
                             ids=["inf", "nan", "complex-inf"])
    def test_non_finite_point_is_refused(self, two_state_system, lam):
        # numpy's SVD once failed to converge here, after a RuntimeWarning
        # at inf
        with pytest.raises(ValueError, match="finite point"):
            transfer_eval(two_state_system, lam)

    @pytest.mark.parametrize("m, p", [(0, 1), (1, 0)])
    def test_realization_without_inputs_or_outputs(self, m, p):
        # the transfer function is an empty matrix, of norm 0, at a point
        # and on the disc grid
        sigma = SystemRealization(0.5 * np.eye(1), np.full((1, m), 0.5),
                                  np.full((p, 1), 0.5), np.zeros((p, m)))
        sample = transfer_eval(sigma, 0.3)
        assert sample.value.shape == (p, m)
        assert sample.norm == 0.0
        assert schur_class_margin(sigma, grid_steps=8) == 0.0


class TestSubspaces:
    def test_zero_input_operator(self):
        sigma = SystemRealization(np.eye(2), np.zeros((2, 1)), np.ones((1, 2)), [[0.0]])
        assert controllable_subspace(sigma).shape == (2, 0)

    def test_scalar_interval_fully_controllable(self, scalar_interval_system):
        assert controllable_subspace(scalar_interval_system).shape == (1, 1)

    def test_rank_one_krylov(self):
        sigma = SystemRealization(np.diag([1.0, 2.0]), [[1.0], [0.0]],
                                  [[1.0, 1.0]], [[0.0]])
        basis = controllable_subspace(sigma)
        assert basis.shape == (2, 1)
        assert abs(abs(basis[0, 0]) - 1.0) <= 1e-12

    def test_zero_output_operator_unobservable(self):
        sigma = SystemRealization(np.eye(2), np.ones((2, 1)), np.zeros((1, 2)), [[0.0]])
        assert unobservable_subspace(sigma).shape == (2, 2)

    def test_two_state_observable(self, two_state_system):
        assert unobservable_subspace(two_state_system).shape == (2, 0)

    def test_unobservable_direction(self):
        sigma = SystemRealization(np.diag([1.0, 2.0]), [[1.0], [1.0]],
                                  [[1.0, 0.0]], [[0.0]])
        basis = unobservable_subspace(sigma)
        assert basis.shape == (2, 1)
        assert abs(abs(basis[1, 0]) - 1.0) <= 1e-12


class TestMinimality:
    def test_scalar_interval_minimal(self, scalar_interval_system):
        report = is_minimal(scalar_interval_system)
        assert report.minimal and bool(report)

    def test_zero_input_not_minimal(self):
        sigma = SystemRealization(np.eye(2), np.zeros((2, 1)), np.ones((1, 2)), [[0.0]])
        report = is_minimal(sigma)
        assert not report.minimal
        assert report.controllable_dim == 0

    def test_deficient_input_range_not_minimal(self):
        sigma = SystemRealization(np.diag([1.0, 2.0]), [[1.0], [0.0]],
                                  [[1.0, 1.0]], [[0.0]])
        assert not is_minimal(sigma)

    def test_dimensions_are_the_ranks_of_the_subspace_bases(self):
        # is_minimal counts the two Krylov ranks from singular values alone;
        # they are the column counts of the bases the subspace functions
        # build, on minimal systems and on ones whose last state is cut off
        # from the input, from the output, or from both
        rng = np.random.default_rng(21)
        for k in range(40):
            n, m, p = (int(x) for x in rng.integers(1, 5, size=3))
            sigma = random_realization(rng, n, m, p)
            a, b, c = sigma.a.copy(), sigma.b.copy(), sigma.c.copy()
            if k % 4 in (1, 3):  # the last state gets no input
                a[-1, :-1], b[-1] = 0.0, 0.0
            if k % 4 in (2, 3):  # the last state reaches no output
                a[:-1, -1], c[:, -1] = 0.0, 0.0
            sigma = SystemRealization(a, b, c, sigma.d)
            report = is_minimal(sigma)
            assert report.controllable_dim == controllable_subspace(sigma).shape[1]
            assert report.unobservable_dim == unobservable_subspace(sigma).shape[1]
            assert report.minimal == (k % 4 == 0)
            assert report.state_dim == n

    def test_minimality_matches_adjoint(self):
        rng = np.random.default_rng(20)
        for k in range(20):
            n, m, p = rng.integers(1, 4, size=3)
            sigma = random_realization(rng, int(n), int(m), int(p))
            if k % 3 == 0:
                sigma = SystemRealization(sigma.a, np.zeros_like(sigma.b),
                                          sigma.c, sigma.d)
            assert bool(is_minimal(sigma)) == bool(is_minimal(adjoint(sigma)))


class TestAdjoint:
    def test_scalar_interval_values(self, scalar_interval_system):
        adj = adjoint(scalar_interval_system)
        assert np.allclose(adj.a, [[-0.125]])
        assert np.allclose(adj.b, [[0.1875]])
        assert np.allclose(adj.c, [[1.0]])
        assert np.allclose(adj.d, [[0.5]])

    def test_symmetric_system_fixed(self):
        sigma = SystemRealization([[0.5]], [[0.25]], [[0.25]], [[0.1]])
        adj = adjoint(sigma)
        for x, y in zip((adj.a, adj.b, adj.c, adj.d),
                        (sigma.a, sigma.b, sigma.c, sigma.d)):
            assert np.allclose(x, y)

    def test_involution(self):
        rng = np.random.default_rng(21)
        sigma = random_realization(rng, 3, 2, 2)
        twice = adjoint(adjoint(sigma))
        for x, y in zip((twice.a, twice.b, twice.c, twice.d),
                        (sigma.a, sigma.b, sigma.c, sigma.d)):
            assert np.allclose(x, y)

    def test_built_once_and_linked_back(self, monkeypatch):
        # the adjoint is one realization with its own facts, whose adjoint
        # is the realization it came from, without a second build
        sigma = random_realization(np.random.default_rng(23), 3, 2, 1)
        built = decisions(monkeypatch, adjoint)
        adj = adjoint(sigma)
        assert adjoint(sigma) is adj and adjoint(adj) is sigma
        assert built == [sigma]
        assert is_minimal(adjoint(sigma)) is is_minimal(adj)
        assert _schur_form(adjoint(sigma)) is _schur_form(adj)

    @pytest.mark.parametrize("first", [0, 1])
    def test_the_pair_takes_one_schur_form(self, first, monkeypatch):
        # whichever of the pair is decomposed first, the other reads its
        # form off it, A* = (Q J)(J T* J)(Q J)* with J the reversal: an
        # upper triangular Schur form with the conjugate eigenvalues in
        # reverse order, the same norm, and no second LAPACK call
        import scipy.linalg

        sigma = random_realization(np.random.default_rng(25), 4, 2, 1)
        pair = [sigma, adjoint(sigma)]
        real, calls = scipy.linalg.schur, []
        monkeypatch.setattr(scipy.linalg, "schur",
                            lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
        norm_a, t, q = _schur_form(pair[first])
        other_norm, other_t, other_q = _schur_form(pair[1 - first])
        assert len(calls) == 1 and other_norm == norm_a
        assert not other_t.flags.writeable and not other_q.flags.writeable
        assert np.array_equal(other_t, np.triu(other_t))
        assert np.array_equal(np.diagonal(other_t), np.diagonal(t)[::-1].conj())
        assert np.allclose(other_q.conj().T @ other_q, np.eye(4), atol=1e-14)
        assert np.allclose(other_q @ other_t @ other_q.conj().T, pair[1 - first].a,
                           atol=1e-14)

    def test_transfer_conjugation_identity(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            sigma = random_realization(rng, 3, 2, 2)
            adj = adjoint(sigma)
            for lam in (0.1 + 0.2j, -0.3, 0.05 - 0.4j):
                direct = transfer_eval(adj, lam).value
                conjugated = transfer_eval(sigma, np.conj(lam)).value.conj().T
                assert spectral_norm(direct - conjugated) <= 1e-10


class TestPassivity:
    def test_two_state_passive(self, two_state_system):
        assert bool(is_passive(two_state_system))

    def test_amplifier_not_passive(self):
        sigma = SystemRealization(0.0, 0.0, 0.0, 2.0)
        report = is_passive(sigma)
        assert not report.passive
        assert abs(report.system_norm - 2.0) <= 1e-12

    def test_coisometry_zero_margin(self, coisometry_system):
        report = is_passive(coisometry_system)
        assert report.passive
        assert abs(report.margin) <= 1e-12


class TestSchurMargin:
    def test_constant_transfer(self):
        sigma = SystemRealization(0.0, 0.0, 0.0, 0.7)
        assert abs(schur_class_margin(sigma, grid_steps=8, radius=0.9) - 0.7) <= 1e-12

    def test_scalar_interval_bound(self, scalar_interval_system):
        value = schur_class_margin(scalar_interval_system, grid_steps=64, radius=0.999)
        assert value <= 6.0 / 7.0 + 1e-6

    def test_delay_reaches_radius(self):
        sigma = SystemRealization(0.0, 1.0, 1.0, 0.0)  # transfer = lam
        for radius in (0.5, 0.9):
            value = schur_class_margin(sigma, grid_steps=16, radius=radius)
            assert abs(value - radius) <= 1e-12

    @pytest.mark.parametrize("grid_steps", [0, -3])
    def test_a_grid_without_steps_is_refused(self, grid_steps):
        sigma = SystemRealization(0.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="^grid_steps must be positive$"):
            schur_class_margin(sigma, grid_steps=grid_steps, radius=0.9)

    def test_passive_systems_stay_contractive_on_grid(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            sigma = random_realization(rng, 3, 2, 2, passive_norm=0.98)
            assert schur_class_margin(sigma, grid_steps=24, radius=0.95) <= 1.0 + 1e-8

    def test_pole_in_the_disc_reads_inf(self):
        # A = 1.002 puts the pole 1/1.002 inside the disc of radius 0.999,
        # and A = 1 puts it on the unit circle, outside that disc, where the
        # circle points read up to 0.999 / 0.001
        for a, expected in ((1.002, np.inf), (2.0, np.inf), (1.0, 0.999 / 0.001)):
            sigma = SystemRealization(a, 1.0, 1.0, 0.0)  # transfer lam / (1 - a lam)
            margin = schur_class_margin(sigma)
            assert margin == expected or abs(margin - expected) <= 1e-9 * expected

    def test_margin_is_the_largest_norm_on_the_circle_grid(self):
        # the grid is the cached unit circle grid scaled by the radius, and
        # by the maximum-modulus principle no inner point of the polar grid
        # with the same outer circle reads more on these seeded draws
        rng = np.random.default_rng(26)
        for _ in range(10):
            sigma = random_realization(rng, 3, 2, 2, passive_norm=0.98)
            circle = 0.9 * _circle_points(48)[1]
            norms = [transfer_eval(sigma, lam).norm for lam in circle]
            margin = schur_class_margin(sigma, grid_steps=48, radius=0.9)
            assert abs(margin - max(norms)) <= 8.0 * np.finfo(float).eps * margin
            inside = np.linalg.svd(_transfer_grid(sigma, _disc_grid(48, 0.9)),
                                   compute_uv=False)[:, 0]
            assert inside.max() <= margin * (1.0 + 1e-12)

    def test_radius_validation(self):
        sigma = SystemRealization(0.0, 1.0, 1.0, 0.0)
        for radius in (1.0, 0.0, -0.5, 1.5, float("nan")):
            with pytest.raises(ValueError, match="^radius must lie strictly between 0 and 1$"):
                schur_class_margin(sigma, radius=radius)

    def test_non_normal_resolvent_caught_by_singular_values(self):
        # eigenvalues 0.5, far from every grid point, but ||A|| = 1e13: only
        # the per-point singular-value test sees the ill-conditioned resolvent
        sigma = SystemRealization([[0.5, 1e13], [0.0, 0.5]], [[0.0], [1.0]],
                                  [[1.0, 0.0]], [[0.0]])
        with pytest.raises(SingularResolvent) as caught:
            schur_class_margin(sigma)
        with pytest.raises(SingularResolvent) as expected:
            _reference_schur_class_margin(sigma, 48, 0.999)
        assert caught.value.lam == expected.value.lam == 0.999


def test_the_nonnormal_golden_system_takes_both_branches_of_the_screen():
    # the system of the nonnormal_n3 analyze golden: ||A|| = 1e5 and
    # rho(A) = 0.9, so the comparison matrix proves most points of the
    # unit circle grid and of the margin's circle grid but not all, and the
    # singular-value test finds none of the rest singular
    sigma = nonnormal_realization(5)
    norm_a, t, _ = _schur_form(sigma)
    circle = np.exp(2j * np.pi * np.arange(4096) / 4096)
    for lams in (circle, _circle_grid(48, 0.999)):
        proved = int(_screened(t, lams, float(np.abs(lams).max()) * norm_a).sum())
        assert 0.9 * lams.size < proved < lams.size
        assert np.isfinite(_transfer_grid(sigma, lams)).all()


def _circle_grid(grid_steps, radius):
    """The grid of :func:`schur_class_margin`: ``grid_steps`` points of the
    circle ``|lam| = radius``."""
    return radius * np.exp(2j * np.pi * np.arange(grid_steps) / grid_steps)


def _disc_grid(grid_steps, radius):
    """A polar grid of the disc ``|lam| <= radius``, where the kernel is
    asked for single values: the origin and ``grid_steps`` circles of
    ``grid_steps`` points."""
    radii = np.linspace(radius / grid_steps, radius, grid_steps)
    angles = 2.0 * np.pi * np.arange(grid_steps) / grid_steps
    return np.concatenate(
        [[0.0 + 0.0j], (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()]
    )


def _reference_disc_values(sigma, lams):
    """Transfer values by one LU solve per point, with the singular-value
    test run at every point, whatever ||A||: the reference for the kernel's
    norm screen and its Schur-coordinate solve."""
    n = sigma.state_dim
    resolvents = np.eye(n)[None, :, :] - lams[:, None, None] * sigma.a[None, :, :]
    svals = np.linalg.svd(resolvents, compute_uv=False)
    bad = svals[:, -1] <= SINGULAR_TOL * svals[:, 0]
    if np.any(bad):
        raise SingularResolvent(complex(lams[int(np.argmax(bad))]))
    rhs = np.broadcast_to(sigma.b, (lams.size, n, sigma.input_dim))
    x = np.linalg.solve(resolvents, rhs)
    return sigma.d[None, :, :] + lams[:, None, None] * (sigma.c @ x)


def _reference_schur_class_margin(sigma, grid_steps, radius):
    """inf when an eigenvalue mu of A has ``|mu| radius >= 1``, a pole in
    the disc; otherwise the largest singular value on the circle grid."""
    if (np.abs(np.linalg.eigvals(sigma.a)) * radius >= 1.0).any():
        return np.inf
    values = _reference_disc_values(sigma, _circle_grid(grid_steps, radius))
    return float(np.linalg.svd(values, compute_uv=False)[:, 0].max())


_GRID_DRAWS = dict(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=1, max_value=2),
    p=st.integers(min_value=1, max_value=2),
    kappa=st.sampled_from([1.0, 1e2, 1e4]),
    radius=st.floats(min_value=0.05, max_value=0.999),
)


@settings(max_examples=40, deadline=None)
@given(**_GRID_DRAWS, grid_steps=st.integers(min_value=1, max_value=24))
def test_schur_margin_decision_equals_per_point_reference(
    seed, n, m, p, kappa, radius, grid_steps
):
    """The norm screen changes no decision: contractive state operators take
    it, similarity transforms with ||A|| > 1 take the per-point test, and the
    kernel raises exactly where the reference does, at the same point of
    the circle grid."""
    sigma = grid_realization(seed, n, m, p, kappa)
    assume(kappa == 1.0 or spectral_norm(sigma.a) > 1.0)
    try:
        _reference_schur_class_margin(sigma, grid_steps, radius)
    except SingularResolvent as exc:
        with pytest.raises(SingularResolvent) as caught:
            schur_class_margin(sigma, grid_steps, radius)
        assert caught.value.lam == exc.lam
        return
    assert np.isfinite(schur_class_margin(sigma, grid_steps, radius))


@settings(max_examples=40, deadline=None)
@given(**_GRID_DRAWS, grid_steps=st.integers(min_value=1, max_value=3))
def test_disc_values_as_accurate_as_per_point_reference(
    seed, n, m, p, kappa, radius, grid_steps
):
    """On the disc grid (at most 10 points), against a 40-digit evaluation,
    the Schur-coordinate values are within ten times the error of the
    reference's LU solves plus twice the first-order bound of a
    backward-stable evaluation, plus 1e-13 (see the circle-grid property in
    test_boundary)."""
    sigma = grid_realization(seed, n, m, p, kappa)
    assume(kappa == 1.0 or spectral_norm(sigma.a) > 1.0)
    lams = _disc_grid(grid_steps, radius)
    try:
        expected = _reference_disc_values(sigma, lams)
    except SingularResolvent:
        return  # the decision property covers raising grids
    exact = exact_transfer(sigma, lams)
    reference_error = grid_error(expected, exact)
    bound = grid_error_bound(sigma, lams, exact)
    assert grid_error(_transfer_grid(sigma, lams), exact) <= (
        10.0 * reference_error + 2.0 * bound + 1e-13
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=1, max_value=3),
    p=st.integers(min_value=1, max_value=3),
    gain=st.sampled_from([0.5, 1.0, 3.0, 30.0]),
    grid_steps=st.integers(min_value=1, max_value=24),
    radius=st.floats(min_value=0.05, max_value=0.999),
)
def test_schur_margin_from_gram_spectrum_matches_svd(seed, n, m, p, gain, grid_steps, radius):
    """The square root of the largest Gram eigenvalue is the largest
    singular value of the same values to 8 eps relative (over 1500 draws
    they differed by up to 3.6 eps; LAPACK's SVD alone is off a 40-digit
    evaluation by up to 2.9 eps)."""
    sigma = grid_realization(seed, n, m, p, 1.0)
    sigma = SystemRealization(sigma.a, sigma.b, gain * sigma.c, gain * sigma.d)
    values = _transfer_grid(sigma, _circle_grid(grid_steps, radius))
    expected = float(np.linalg.svd(values, compute_uv=False)[:, 0].max())
    margin = schur_class_margin(sigma, grid_steps, radius)
    assert abs(margin - expected) <= 8.0 * np.finfo(float).eps * expected


_GRAM_DRAWS = ("general", "rank_one", "double", "near_isometric")


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=1, max_value=16),
    p=st.integers(min_value=0, max_value=3),
    m=st.integers(min_value=0, max_value=3),
    draw=st.sampled_from(_GRAM_DRAWS),
    exponent=st.sampled_from([-100, 0, 100]),
)
@example(seed=0, k=2, p=3, m=3, draw="general", exponent=0)
def test_gram_eigs_match_eigvalsh_of_the_gram_matrix(seed, k, p, m, draw, exponent):
    """The closed-form spectra (min(m, p) <= 2) and the batched eigvalsh
    (min(m, p) = 3) equal eigvalsh of the Gram matrix formed by matmul, as
    ascending (k, min(m, p)) rows, to 8 eps times the largest eigenvalue
    (over 3,000 stacks they differed by up to 4.6 eps), also for rank-one
    values, double eigenvalues with a zero off-diagonal entry, near-isometric
    values and entries of size 1e-100 and 1e100."""
    rng = np.random.default_rng(seed)
    r = min(m, p)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    values = gaussian(k, p, m)
    if draw == "rank_one":
        values = gaussian(k, p, 1) * gaussian(k, 1, m)
    elif draw == "double":
        values = np.zeros((k, p, m), dtype=complex)
        values[:, np.arange(r), np.arange(r)] = gaussian(k, 1)
    elif draw == "near_isometric" and r:
        u, _, wh = np.linalg.svd(values, full_matrices=False)
        values = (u * (1.0 + 1e-9 * rng.standard_normal((k, 1, r)))) @ wh
    values = values * 10.0**exponent

    vt = values.conj().transpose(0, 2, 1)
    expected = np.linalg.eigvalsh(vt @ values if m <= p else values @ vt)
    eigs = _gram_eigs(values)
    assert eigs.shape == (k, r)
    assert np.all(np.diff(eigs, axis=1) >= 0.0)
    scale = np.maximum(expected.max(axis=1, initial=0.0), np.finfo(float).tiny)
    assert np.all(np.abs(eigs - expected) <= 8.0 * np.finfo(float).eps * scale[:, None])


class TestSimulate:
    def test_zero_everything(self, scalar_interval_system):
        traj = simulate(scalar_interval_system, [0.0], np.zeros((5, 1)))
        assert np.allclose(traj.states, 0.0)
        assert np.allclose(traj.outputs, 0.0)

    def test_hand_recursion(self, scalar_interval_system):
        traj = simulate(scalar_interval_system, [1.0], [[1.0], [0.0]])
        assert abs(traj.states[1, 0] - 7.0 / 8.0) <= 1e-15
        assert abs(traj.outputs[0, 0] - 11.0 / 16.0) <= 1e-15
        assert abs(traj.states[2, 0] + 7.0 / 64.0) <= 1e-15
        assert abs(traj.outputs[1, 0] - 21.0 / 128.0) <= 1e-15

    def test_single_step_matches_block_matrix(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            sigma = random_realization(rng, 3, 2, 2)
            x0 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            u = rng.standard_normal((1, 2)) + 1j * rng.standard_normal((1, 2))
            traj = simulate(sigma, x0, u)
            stacked = system_matrix(sigma) @ np.concatenate([x0, u[0]])
            assert np.allclose(traj.states[1], stacked[:3])
            assert np.allclose(traj.outputs[0], stacked[3:])

    def test_dimension_validation(self, scalar_interval_system):
        with pytest.raises(DimensionMismatch):
            simulate(scalar_interval_system, [1.0, 2.0], [[0.0]])


class TestDissipation:
    def test_zero_trajectory(self, two_state_system):
        traj = simulate(two_state_system, np.zeros(2), np.zeros((4, 1)))
        margins = dissipation_check(traj, np.eye(2))
        assert np.allclose(margins, 0.0)

    def test_identity_weight_on_passive_systems(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            n, m, p = (int(v) for v in rng.integers(1, 4, size=3))
            sigma = random_realization(rng, n, m, p, passive_norm=float(rng.uniform(0.5, 1.0)))
            x0 = rng.standard_normal(n)
            u = rng.standard_normal((20, m))
            margins = dissipation_check(simulate(sigma, x0, u), np.eye(n))
            assert margins.min() >= -1e-10

    def test_equality_weight_on_scalar_interval(self, scalar_interval_system):
        rng = np.random.default_rng(26)
        x0 = [rng.standard_normal()]
        u = rng.standard_normal((50, 1))
        margins = dissipation_check(
            simulate(scalar_interval_system, x0, u), [[3.0 / 64.0]]
        )
        assert margins.min() >= -1e-10

    def test_rejects_indefinite_weight(self, two_state_system):
        traj = simulate(two_state_system, np.zeros(2), np.zeros((3, 1)))
        with pytest.raises(NotPD):
            dissipation_check(traj, np.diag([1.0, -1.0]))
