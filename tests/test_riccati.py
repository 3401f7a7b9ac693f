"""Riccati/KYP tests: residual operators against closed forms, the quadratic
form vs LMI identity, two-route membership, the similarity-transformed
system, and the equality gap cross-checked against the infimum oracle."""

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riccati_kyp import (
    BlockNonneg,
    C3Violation,
    DeltaNotPSD,
    DimensionMismatch,
    InconsistentRoutes,
    MembershipDiagnostics,
    MembershipVerdict,
    NotInRI,
    NotPD,
    StorageOperator,
    SystemRealization,
    adjoint,
    associated_system,
    brute_force_infimum,
    equality_gap,
    h_passivity_check,
    inequality_surplus,
    is_minimal,
    kyp_form,
    kyp_lmi,
    membership,
    riccati_data,
    sample_ri_members,
    simulate,
    dissipation_check,
    spectral_norm,
    system_matrix,
    transfer_eval,
)
from riccati_kyp.linops import TINY, _pd_mask, hermitian_part
from riccati_kyp.pencil import extremal
from riccati_kyp import riccati as riccati_module
from riccati_kyp.riccati import (
    BOUNDARY_BAND,
    EQUALITY_TOL,
    RANGE_TOL,
    RANK_TOL,
    _membership_stack,
)
from conftest import random_hermitian, random_pd, random_realization


def scalar_closed_forms(h):
    """alpha, beta, delta of the scalar interval example as functions of h."""
    alpha = (9.0 / 64.0) * (7.0 * h - 0.25)
    beta = (1.0 / 8.0) * (0.75 - h)
    delta = 0.75 - h
    return alpha, beta, delta


class TestStorageOperator:
    def test_cached_roots(self):
        rng = np.random.default_rng(30)
        h = random_pd(rng, 4)
        storage = StorageOperator(h)
        scale = 1.0 + spectral_norm(h)
        assert spectral_norm(storage.sqrt @ storage.sqrt - h) <= 1e-10 * scale
        assert spectral_norm(storage.sqrt @ storage.inv_sqrt - np.eye(4)) <= 1e-10 * scale

    def test_rejects_indefinite_and_singular(self):
        with pytest.raises(NotPD):
            StorageOperator(np.diag([1.0, -1.0]))
        with pytest.raises(NotPD):
            StorageOperator(np.diag([1.0, 0.0]))


    def test_stack_is_the_one_matrix_operator(self):
        rng = np.random.default_rng(31)
        pd = [random_pd(rng, 3) for _ in range(4)]
        failing = [np.diag([1.0, -1.0, 2.0]), np.diag([1.0, 0.0, 3.0]),
                   random_hermitian(rng, 3)]
        # PD and failing entries interleaved, as hermitian_part returns them
        stack = hermitian_part(np.array([pd[0], failing[0], pd[1], failing[1],
                                         pd[2], pd[3], failing[2]]))
        w = np.linalg.eigh(stack)[0]
        mask, low = _pd_mask(w)
        assert mask.tolist() == [True, False, True, False, True, True, False]
        for h, value in zip(stack[~mask], low[~mask]):
            with pytest.raises(NotPD, match=re.escape(f"smallest eigenvalue {value:.3e})")):
                StorageOperator(h)
        for h, spectrum in zip(stack[mask], w[mask]):
            assert StorageOperator(h).eigenvalues.tobytes() == spectrum.tobytes()


class TestRiccatiData:
    @pytest.mark.parametrize("h", [0.1, 3.0 / 64.0, 0.7])
    def test_scalar_interval_closed_forms(self, scalar_interval_system, h):
        data = riccati_data(scalar_interval_system, h)
        alpha, beta, delta = scalar_closed_forms(h)
        assert abs(data.alpha_op[0, 0] - alpha) <= 1e-14
        assert abs(data.beta_op[0, 0] - beta) <= 1e-14
        assert abs(data.delta_op[0, 0] - delta) <= 1e-14

    def test_coisometry_delta(self, coisometry_system):
        data = riccati_data(coisometry_system, 1.0)
        assert np.allclose(data.delta_op, np.diag([0.0, 1.0]))
        assert data.range_inclusion_residual <= 1e-14

    def test_state_only_system(self):
        rng = np.random.default_rng(31)
        a = 0.5 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        sigma_zero = __import__("riccati_kyp").SystemRealization(
            a, np.zeros((3, 2)), np.zeros((2, 3)), np.zeros((2, 2))
        )
        h = random_pd(rng, 3)
        data = riccati_data(sigma_zero, h)
        assert np.allclose(data.alpha_op, h - a.conj().T @ h @ a)
        assert np.allclose(data.beta_op, 0.0)
        assert np.allclose(data.delta_op, np.eye(2))


class TestInequalitySurplus:
    def test_equality_point_vanishes(self, scalar_interval_system):
        s = inequality_surplus(scalar_interval_system, 3.0 / 64.0)
        assert abs(s[0, 0]) <= 1e-14

    def test_boundary_point_uses_zero_pseudo_inverse(self, scalar_interval_system):
        # delta vanishes there, the cross term vanishes with it, and the
        # surplus equals the state-side residual 45/64
        s = inequality_surplus(scalar_interval_system, 0.75)
        assert abs(s[0, 0] - 45.0 / 64.0) <= 1e-14

    def test_below_interval_negative(self, scalar_interval_system):
        s = inequality_surplus(scalar_interval_system, 0.01)
        assert s[0, 0].real < 0.0

    def test_delta_not_psd(self, scalar_interval_system):
        with pytest.raises(DeltaNotPSD):
            inequality_surplus(scalar_interval_system, 0.76)

    def test_range_inclusion_violation(self):
        # delta vanishes while the cross term does not, so the inclusion fails
        from riccati_kyp import SystemRealization

        r = 1.0 / np.sqrt(2.0)
        sigma = SystemRealization(r, 1.0, r, 0.0)
        with pytest.raises(C3Violation):
            inequality_surplus(sigma, 1.0)


class TestKypForm:
    def test_zero_arguments(self, two_state_system):
        assert kyp_form(two_state_system, np.eye(2), np.zeros(2), np.zeros(1)) == 0.0

    def test_state_only_equals_alpha_quadratic(self, scalar_interval_system):
        value = kyp_form(scalar_interval_system, 3.0 / 64.0, [1.0], [0.0])
        assert abs(value - 45.0 / 4096.0) <= 1e-14

    def test_a_storage_of_another_dimension_is_refused(self, two_state_system):
        message = "^storage dimension 3 does not match state dimension 2$"
        with pytest.raises(DimensionMismatch, match=message):
            kyp_form(two_state_system, np.eye(3), np.zeros(2), np.zeros(1))

    @pytest.mark.parametrize("x, u", [(np.zeros(3), np.zeros(1)), (np.zeros(2), np.zeros(2))])
    def test_a_state_or_input_of_another_length_is_refused(self, two_state_system, x, u):
        message = re.escape(f"(x, u) have lengths {(len(x), len(u))}, expected (2, 1)")
        with pytest.raises(DimensionMismatch, match=f"^{message}$"):
            kyp_form(two_state_system, np.eye(2), x, u)

    def test_matches_lmi_quadratic_form(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            n, m, p = (int(v) for v in rng.integers(1, 5, size=3))
            sigma = random_realization(rng, n, m, p)
            h = random_pd(rng, n)
            lmi = kyp_lmi(sigma, h)
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            xu = np.concatenate([x, u])
            quad = float(np.real(xu.conj() @ lmi @ xu))
            assert abs(kyp_form(sigma, h, x, u) - quad) <= 1e-10 * (1.0 + abs(quad))


class TestKypLmi:
    def test_equality_point_is_psd_rank_deficient(self, scalar_interval_system):
        lmi = kyp_lmi(scalar_interval_system, 3.0 / 64.0)
        alpha, beta, delta = scalar_closed_forms(3.0 / 64.0)
        assert np.allclose(lmi, [[alpha, -beta], [-beta, delta]])
        w = np.linalg.eigvalsh(lmi)
        assert w[0] >= -1e-14
        assert abs(np.linalg.det(lmi)) <= 1e-14

    def test_identity_weight_on_contractive_system(self):
        rng = np.random.default_rng(33)
        sigma = random_realization(rng, 3, 2, 2, passive_norm=0.9)
        w = np.linalg.eigvalsh(kyp_lmi(sigma, np.eye(3)))
        assert w[0] >= -1e-12

    def test_below_interval_indefinite(self, scalar_interval_system):
        w = np.linalg.eigvalsh(kyp_lmi(scalar_interval_system, 0.01))
        assert w[0] < -1e-6


class TestMembership:
    def test_scalar_interval_verdicts(self, scalar_interval_system):
        v = membership(scalar_interval_system, 3.0 / 64.0)
        assert (v.in_ri, v.in_re, v.in_ri_circ) == (True, True, True)
        v = membership(scalar_interval_system, 0.75)
        assert (v.in_ri, v.in_re) == (True, False)
        v = membership(scalar_interval_system, 0.5)
        assert (v.in_ri, v.in_re) == (True, False)
        assert not membership(scalar_interval_system, 0.01).in_ri
        assert not membership(scalar_interval_system, 0.76).in_ri

    def test_equality_implies_inequality(self, two_state_system):
        from conftest import two_state_re_solutions

        for h in two_state_re_solutions():
            v = membership(two_state_system, h)
            assert v.in_re and v.in_ri and v.in_ri_circ

    def test_diagnostics_fields(self, scalar_interval_system):
        v = membership(scalar_interval_system, 0.5)
        d = v.diagnostics
        assert abs(d.delta_min_eig - 0.25) <= 1e-14
        assert d.c3_residual <= 1e-14
        assert d.sigma_h_minimal
        assert not d.boundary_case
        assert d.lmi_min_eig <= d.surplus_min_eig + 1e-12

    def test_system_without_inputs(self):
        # m = 0: delta is empty, the equality is the Stein equation
        # H = A* H A + C* C (here H = 1/3), the LMI is alpha(H), and the
        # least eigenvalue of the empty delta is +inf
        sigma = SystemRealization(0.5, np.zeros((1, 0)), [[0.5]], np.zeros((1, 0)))
        v = membership(sigma, 1.0 / 3.0)
        assert (v.in_ri, v.in_re, v.in_ri_circ) == (True, True, False)
        d = v.diagnostics
        assert d.delta_min_eig == np.inf
        assert d.c3_residual == 0.0
        assert abs(d.lmi_min_eig) <= 1e-15 and abs(d.equality_residual) <= 1e-15
        v = membership(sigma, 0.5)  # alpha = 0.5 - 0.125 - 0.25 > 0
        assert (v.in_ri, v.in_re) == (True, False)
        assert v.diagnostics.lmi_min_eig == pytest.approx(0.125)
        assert not membership(sigma, 0.2).in_ri

    def test_routes_agree_on_random_instances(self):
        rng = np.random.default_rng(34)
        for k in range(200):
            n, m, p = (int(v) for v in rng.integers(1, 5, size=3))
            norm = float(rng.choice([0.8, 0.99, 1.05])) if k % 3 == 0 else None
            sigma = random_realization(rng, n, m, p, passive_norm=norm)
            h = np.eye(n) if k % 4 == 0 else random_pd(rng, n)
            v = membership(sigma, h)  # raises InconsistentRoutes on a real split
            assert v.in_ri or not v.in_re
            assert v.in_ri or not v.in_ri_circ

    def test_lmi_is_congruent_to_transformed_defect(self):
        # the LMI matrix equals diag(S, I) (I - M* M) diag(S, I) for the
        # square root S of the weight and M the transformed block matrix
        rng = np.random.default_rng(39)
        for _ in range(30):
            n, m, p = (int(v) for v in rng.integers(1, 5, size=3))
            sigma = random_realization(rng, n, m, p)
            storage = StorageOperator(random_pd(rng, n))
            lmi = kyp_lmi(sigma, storage)
            mat = system_matrix(associated_system(sigma, storage).system)
            defect = np.eye(n + m) - mat.conj().T @ mat
            congr = np.zeros((n + m, n + m), dtype=complex)
            congr[:n, :n] = storage.sqrt
            congr[n:, n:] = np.eye(m)
            reassembled = congr @ defect @ congr
            scale = 1.0 + spectral_norm(lmi)
            assert spectral_norm(lmi - reassembled) <= 1e-10 * scale


class TestAssociatedSystem:
    def test_identity_weight_is_identity_transform(self, two_state_system):
        assoc = associated_system(two_state_system, np.eye(2))
        for x, y in ((assoc.system.a, two_state_system.a),
                     (assoc.system.b, two_state_system.b),
                     (assoc.system.c, two_state_system.c),
                     (assoc.system.d, two_state_system.d)):
            assert np.allclose(x, y)

    def test_scalar_transform_values(self, scalar_interval_system):
        h = 3.0 / 64.0
        assoc = associated_system(scalar_interval_system, h)
        root = np.sqrt(h)
        assert abs(assoc.system.a[0, 0] + 0.125) <= 1e-14
        assert abs(assoc.system.b[0, 0] - root) <= 1e-14
        assert abs(assoc.system.c[0, 0] - 0.1875 / root) <= 1e-14

    def test_similarity_identities(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            sigma = random_realization(rng, 3, 2, 2)
            storage = StorageOperator(random_pd(rng, 3))
            assoc = associated_system(sigma, storage)
            s = storage.sqrt
            assert spectral_norm(assoc.system.a @ s - s @ sigma.a) <= 1e-10
            assert spectral_norm(assoc.system.b - s @ sigma.b) <= 1e-12
            assert spectral_norm(assoc.system.c @ s - sigma.c) <= 1e-10

    def test_transfer_function_invariance(self):
        rng = np.random.default_rng(36)
        for _ in range(5):
            sigma = random_realization(rng, 3, 2, 2)
            assoc = associated_system(sigma, random_pd(rng, 3))
            for lam in np.linspace(-0.6, 0.6, 20):
                direct = transfer_eval(sigma, lam).value
                transformed = transfer_eval(assoc.system, lam).value
                assert spectral_norm(direct - transformed) <= 1e-10


def _random_unitary(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    return q


def _rank_decisions_clear(sigma, slack):
    """Whether every relative singular value of the controllability and
    observability blocks lies a factor ``slack`` away from the rank cut of
    :func:`is_minimal` (1e-10), so a congruence of condition number up to
    ``slack`` cannot move it across."""
    blocks = [sigma.b, sigma.c]
    for _ in range(sigma.state_dim - 1):
        blocks = [sigma.a @ blocks[0], blocks[1] @ sigma.a] + blocks
    for k in (np.hstack(blocks[0::2]), np.vstack(blocks[1::2])):
        s = np.linalg.svd(k, compute_uv=False)
        rel = s / s[0] if s[0] > 0.0 else np.zeros_like(s)
        if np.any((rel > 1e-10 / slack) & (rel < 1e-10 * slack)):
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=1, max_value=2),
    p=st.integers(min_value=1, max_value=2),
    defect=st.sampled_from(["none", "uncontrollable", "unobservable"]),
    log_cond=st.floats(min_value=0.0, max_value=6.0),
)
def test_associated_system_minimal_iff_system_minimal(seed, n, m, p, defect, log_cond):
    """Sigma_H = (S A S^-1, S B, C S^-1, D) with S = H^{1/2} is similar to
    sigma, so the two are minimal together; membership relies on this to
    decide in_ri_circ from sigma alone. The systems are random, or carry a
    hidden uncontrollable or unobservable part, and cond(H) <= 1e6."""
    rng = np.random.default_rng(seed)
    if defect == "unobservable":
        m, p = p, m  # built as an uncontrollable system, then adjoined
    sigma = random_realization(rng, n, m, p)
    if defect != "none":
        r = int(rng.integers(0, n))  # dimension of the controllable part
        a, b = sigma.a.copy(), sigma.b.copy()
        a[r:, :r] = 0.0
        b[r:] = 0.0
        q = _random_unitary(rng, n)
        sigma = SystemRealization(
            q @ a @ q.conj().T, q @ b, sigma.c @ q.conj().T, sigma.d
        )
        if defect == "unobservable":
            sigma = adjoint(sigma)
    # cond(S) = sqrt(cond(H)) <= 1e3 bounds how far the congruence moves
    # a relative singular value
    assume(_rank_decisions_clear(sigma, 1e4))
    exponents = rng.uniform(0.0, log_cond, size=n)
    exponents[0] = log_cond
    q = _random_unitary(rng, n)
    h = (q * 10.0 ** exponents) @ q.conj().T
    transformed = associated_system(sigma, h).system
    assert is_minimal(transformed) == is_minimal(sigma)


def test_uncontrollable_system_has_inequality_members_outside_ri_circ():
    # the second state is neither reached by the input nor coupled back
    sigma = SystemRealization(
        np.diag([0.5, 0.3]), [[0.5], [0.0]], [[0.3, 0.3]], [[0.0]]
    )
    assert not is_minimal(sigma)
    for h in (np.eye(2), np.array([[1.0, 0.2], [0.2, 1.5]])):
        verdict = membership(sigma, h)
        assert verdict.in_ri
        assert not verdict.in_ri_circ
        assert not verdict.diagnostics.sigma_h_minimal


class TestHPassivity:
    def test_equality_point(self, scalar_interval_system):
        assert h_passivity_check(scalar_interval_system, 3.0 / 64.0)

    def test_amplifier_identity_weight(self):
        from riccati_kyp import SystemRealization

        sigma = SystemRealization(0.0, 0.0, 0.0, 2.0)
        assert not h_passivity_check(sigma, 1.0)

    def test_maximal_weight_on_two_state(self, two_state_system):
        from conftest import two_state_re_solutions

        h4 = two_state_re_solutions()[3]
        assert membership(two_state_system, h4).in_ri
        assert h_passivity_check(two_state_system, h4)

    def test_every_member_makes_system_h_passive(self, scalar_interval_system):
        for h in (3.0 / 64.0, 0.1, 0.3, 0.5, 0.75):
            assert h_passivity_check(scalar_interval_system, h)

    def test_sampled_members_make_system_h_passive(self, two_state_system):
        rng = np.random.default_rng(44)
        from conftest import two_state_re_solutions

        members = two_state_re_solutions()
        for h in sample_ri_members(
            two_state_system, 15, rng, anchors=[members[0], members[3]]
        ):
            assert h_passivity_check(two_state_system, h)


class TestEqualityGap:
    def test_zero_at_equality_point(self, scalar_interval_system):
        assert equality_gap(scalar_interval_system, 3.0 / 64.0) <= 1e-10

    def test_boundary_point_value_against_oracle(self, scalar_interval_system):
        gap = equality_gap(scalar_interval_system, 0.75)
        # independent route: infimum of the defect form of the transformed
        # system over the input argument, at unit state
        assoc = associated_system(scalar_interval_system, 0.75)
        m = system_matrix(assoc.system)
        r = np.eye(2) - m.conj().T @ m
        block = BlockNonneg(r[:1, :1], r[:1, 1:], r[1:, 1:])
        oracle = brute_force_infimum(block, [1.0], grid_radius=2.0, grid_steps=9)
        assert abs(gap - oracle) <= 1e-9
        assert abs(gap - 15.0 / 16.0) <= 1e-12

    def test_identity_weight_on_two_state(self, two_state_system):
        assert equality_gap(two_state_system, np.eye(2)) <= 1e-10

    def test_requires_inequality_membership(self, scalar_interval_system):
        with pytest.raises(NotInRI):
            equality_gap(scalar_interval_system, 0.01)

    def test_congruence_links_gap_and_surplus(self, scalar_interval_system):
        for h in (0.1, 0.3, 0.5, 0.75):
            gap = equality_gap(scalar_interval_system, h)
            surplus_norm = spectral_norm(
                inequality_surplus(scalar_interval_system, h)
            )
            assert abs(surplus_norm - h * gap) <= 1e-10

    def test_equality_criteria_coincide_on_samples(self, two_state_system):
        rng = np.random.default_rng(37)
        from conftest import two_state_re_solutions

        members = two_state_re_solutions()
        samples = sample_ri_members(
            two_state_system, 25, rng, anchors=[members[0], members[3]]
        )
        assert len(samples) == 25
        for h in samples:
            gap = equality_gap(two_state_system, h)
            surplus_norm = spectral_norm(inequality_surplus(two_state_system, h))
            assert (gap <= 1e-8) == (surplus_norm <= 1e-8)

    def test_routes_that_disagree_raise(self, scalar_interval_system, monkeypatch):
        # a Schur complement moved off the surplus's congruence stands in
        # for the rank-decision bug that the cross-check guards against
        factor = riccati_module.minimal_contraction

        def perturbed(block, **kwargs):
            fact = factor(block, **kwargs)
            fact.complement = fact.complement + 1e-3 * np.eye(len(fact.complement))
            return fact

        monkeypatch.setattr(riccati_module, "minimal_contraction", perturbed)
        with pytest.raises(InconsistentRoutes, match="disagree under the congruence"):
            equality_gap(scalar_interval_system, 0.3)


class TestDissipationOfMembers:
    def test_margins_nonnegative_along_trajectories(self, scalar_interval_system):
        rng = np.random.default_rng(38)
        for h in (3.0 / 64.0, 0.2, 0.75):
            traj = simulate(
                scalar_interval_system, [0.3], rng.standard_normal((100, 1))
            )
            margins = dissipation_check(traj, [[h]])
            assert margins.min() >= -1e-10


# -- the stacked membership kernel ---------------------------------------------


def _reference_membership(sigma, h, tol=1e-9, surplus_shift=0.0):
    """Membership of one candidate computed on its own, step by step, as it
    was before the stacked kernel: the reference the kernel must match.
    ``surplus_shift`` pushes the surplus down by that multiple of I, as a
    test that splits the routes pushes the kernel's."""

    def herm(x):
        return 0.5 * (x + x.conj().T)

    def norm2(x):
        return float(np.linalg.norm(x, 2))

    def least_and_norm(x):
        lam = np.linalg.eigvalsh(x)
        return float(lam[0]), max(float(lam[-1]), -float(lam[0]))

    hm = StorageOperator(h).matrix
    a, b, c, d = sigma.a, sigma.b, sigma.c, sigma.d
    alpha = herm(hm - a.conj().T @ hm @ a - c.conj().T @ c)
    beta = d.conj().T @ c + b.conj().T @ hm @ a
    delta = herm(np.eye(sigma.input_dim) - d.conj().T @ d - b.conj().T @ hm @ b)
    w, v = np.linalg.eigh(delta)
    # beta along the eigenvectors of delta that the magnitude cut drops
    dropped = np.abs(w) <= max(RANK_TOL * float(np.abs(w).max(initial=0.0)), TINY)
    c3_res = norm2((v * dropped).conj().T @ beta)

    lmi = herm(np.block([[alpha, -beta.conj().T], [-beta, delta]]))
    lmi_min, lmi_norm = least_and_norm(lmi)
    scale = max(1.0, lmi_norm)
    threshold = tol * scale
    delta_min = float(w[0])
    c3_threshold = RANGE_TOL * max(1.0, norm2(beta))
    if delta_min >= -threshold and c3_res <= c3_threshold:
        kept = w > max(RANK_TOL * float(w.max(initial=0.0)), TINY)
        inv_w = np.where(kept, 1.0 / np.where(kept, w, 1.0), 0.0)
        pinv = herm((v * inv_w) @ v.conj().T)
        surplus = herm(alpha - beta.conj().T @ pinv @ beta)
        surplus = surplus - surplus_shift * np.eye(len(hm))
        surplus_min, equality_residual = least_and_norm(surplus)
        route_one = surplus_min >= -threshold
    else:
        surplus_min = equality_residual = float("nan")
        route_one = False
    route_two = lmi_min >= -threshold
    boundary = False
    if route_one != route_two:
        margins = [abs(lmi_min + threshold), abs(delta_min + threshold),
                   abs(c3_res - c3_threshold)]
        if not np.isnan(surplus_min):
            margins.append(abs(surplus_min + threshold))
        if min(margins) <= BOUNDARY_BAND * threshold:
            boundary = True
        else:
            raise InconsistentRoutes(
                f"surplus route says {route_one}, LMI route says {route_two} "
                f"(delta_min={delta_min:.3e}, surplus_min={surplus_min:.3e}, "
                f"lmi_min={lmi_min:.3e}, c3={c3_res:.3e})"
            )
    in_ri = route_two if boundary else route_one
    in_re = bool(in_ri and not np.isnan(equality_residual)
                 and equality_residual <= EQUALITY_TOL * scale)
    minimal = bool(is_minimal(sigma))
    return MembershipVerdict(
        in_ri=bool(in_ri),
        in_re=in_re,
        in_ri_circ=bool(in_ri and minimal),
        diagnostics=MembershipDiagnostics(
            delta_min_eig=delta_min,
            surplus_min_eig=surplus_min,
            equality_residual=equality_residual,
            lmi_min_eig=lmi_min,
            c3_residual=c3_res,
            sigma_h_minimal=minimal,
            boundary_case=boundary,
        ),
    )


def _outcome(result):
    """A verdict as flags and the bytes of its diagnostics, or an error as
    its type and message, so equal outcomes are equal bit for bit."""
    if isinstance(result, Exception):
        return type(result).__name__, str(result)
    diag = vars(result.diagnostics)
    return (
        result.in_ri,
        result.in_re,
        result.in_ri_circ,
        tuple(np.float64(x).tobytes() if isinstance(x, float) else x
              for x in diag.values()),
    )


def _row_outcome(table, i):
    """Row ``i`` of a verdict table as :func:`_outcome` gives a verdict."""
    floats = (table.delta_min, table.surplus_min, table.equality_residual,
              table.lmi_min, table.c3)
    return (
        bool(table.in_ri[i]),
        bool(table.in_re[i]),
        bool(table.in_ri_circ[i]),
        tuple(np.float64(x[i]).tobytes() for x in floats)
        + (table.sigma_h_minimal, bool(table.boundary[i])),
    )


def _outcome_of(call):
    try:
        return _outcome(call())
    except Exception as exc:  # the outcome under test includes the error
        return _outcome(exc)


def _mixed_candidates(rng, sigma):
    """Interior, equality-perturbed, not-PD, singular-delta and outside
    candidates for a passive system, shuffled."""
    n, m = sigma.state_dim, sigma.input_dim

    def bump(h, size):
        return 0.5 * (h + h.conj().T) + size * random_hermitian(rng, n)

    h_min, _ = extremal(sigma)
    r = np.eye(m) - sigma.d.conj().T @ sigma.d
    li = np.linalg.inv(np.linalg.cholesky(r))
    pencil = li @ sigma.b.conj().T @ sigma.b @ li.conj().T
    # delta(c I) = I - D*D - c B*B is singular for this c
    singular = np.eye(n) / float(np.linalg.eigvalsh(pencil)[-1])
    candidates = [
        bump(0.5 * (h_min + np.eye(n)), 0.01),
        np.eye(n),
        h_min,
        bump(h_min, 1e-9),
        bump(h_min, 1e-6),
        singular,
        bump(singular, 1e-10),
        -np.eye(n),
        bump(np.zeros((n, n)), 1.0),
        np.diag(np.r_[np.ones(n - 1), 0.0]),
        30.0 * np.eye(n) + bump(np.zeros((n, n)), 1.0),
        1e-3 * np.eye(n),
    ]
    order = rng.permutation(len(candidates))
    return [0.5 * (candidates[i] + candidates[i].conj().T) for i in order]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=4),
    m=st.integers(min_value=1, max_value=2),
    p=st.integers(min_value=1, max_value=2),
    norm=st.sampled_from([0.5, 0.9, 0.99, 1.0]),
    tol=st.sampled_from([1e-9, 1e-6, 1e-3]),
)
def test_membership_kernel_matches_one_candidate_at_a_time(seed, n, m, p, norm, tol):
    """Every row of one kernel call on a mixed stack equals, bit for bit,
    what the step-by-step reference gives its candidate alone, at each
    band ``tol``: a candidate the reference refuses as not PD reads
    False in every mask and NaN in every float, a row keeps its gain where
    it forms the surplus, and membership gives each candidate the
    reference's verdict or error. When the routes of some
    candidates split, the call raises the first one's InconsistentRoutes,
    and the rest of the stack is compared without them."""
    tols = {"tol": tol}
    rng = np.random.default_rng(seed)
    sigma = random_realization(rng, n, m, p, passive_norm=norm)
    assume(np.linalg.eigvalsh(np.eye(m) - sigma.d.conj().T @ sigma.d)[0] > 1e-6)
    assume(spectral_norm(sigma.b) > 1e-6)
    candidates = _mixed_candidates(rng, sigma)
    expected = [
        _outcome_of(lambda: _reference_membership(sigma, h, **tols)) for h in candidates
    ]
    splits = [e for e in expected if e[0] == "InconsistentRoutes"]
    if splits:
        with pytest.raises(InconsistentRoutes) as raised:
            _membership_stack(sigma, np.array(candidates), **tols)
        assert _outcome(raised.value) == splits[0]
    rest = [i for i, e in enumerate(expected) if e[0] != "InconsistentRoutes"]
    table = _membership_stack(sigma, np.array(candidates)[rest], **tols)
    nan = np.float64(np.nan).tobytes()
    refused = (False, False, False, (nan,) * 5 + (table.sigma_h_minimal, False))
    assert len(table.pd) == len(rest)
    for row, i in enumerate(rest):
        if expected[i][0] == "NotPD":
            assert not table.pd[row] and _row_outcome(table, row) == refused
        else:
            assert table.pd[row] and _row_outcome(table, row) == expected[i]
    # a row keeps a finite closed-loop gain exactly where it forms the surplus
    unformed = np.isnan(table.surplus_min)
    assert (np.isnan(table.gain).all(axis=(1, 2)) == unformed).all()
    assert np.isfinite(table.gain[~unformed]).all()
    for h, want in zip(candidates, expected):
        assert _outcome_of(lambda: membership(sigma, h, **tols)) == want


def test_kernel_on_a_stack_without_positive_definite_candidates(
    scalar_interval_system,
):
    """No row reaches a verdict: every mask reads False and every float NaN,
    also for the 0 x 0 candidates of a realization without states, with
    inputs or without, whose LMIs are empty without inputs."""
    stateless = [
        SystemRealization(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((1, 0)), d)
        for m, d in ((1, [[0.5]]), (0, np.zeros((1, 0))))
    ]
    for sigma, stack in (
        (stateless[0], np.zeros((2, 0, 0))),
        (stateless[1], np.zeros((2, 0, 0))),
        (scalar_interval_system, np.array([[[-1.0]], [[0.0]]])),
    ):
        table = _membership_stack(sigma, stack)
        masks = (table.pd, table.in_ri, table.in_re, table.in_ri_circ, table.boundary)
        floats = (table.delta_min, table.surplus_min, table.equality_residual,
                  table.lmi_min, table.c3)
        assert not np.any(masks) and np.isnan(floats).all()
        assert np.shape(masks) == np.shape(floats) == (5, 2)
        assert np.isnan(table.gain).all()
        assert table.gain.shape == (2, sigma.input_dim, sigma.state_dim)


def test_kernel_raises_the_first_split_in_stack_order(two_state_system, monkeypatch):
    """With the surplus of two interior candidates pushed down, the later
    one by more, their routes split outside the band, and the kernel raises
    the InconsistentRoutes of the earlier one in stack order. The band is
    narrowed (tol 1e-12), since at the default tolerances a zero range
    residual lies within it of its threshold, and every split is a boundary
    case."""
    from conftest import two_state_re_solutions

    members = two_state_re_solutions()
    samples = sample_ri_members(
        two_state_system, 8, np.random.default_rng(3), anchors=[members[0], members[3]]
    )
    stack = np.array(samples[2:])  # the sampled points, not the anchors
    tols = {"tol": 1e-12}
    table = _membership_stack(two_state_system, stack, **tols)
    assert table.in_ri.all() and np.isfinite(table.surplus_min).all()
    assert not table.boundary.any()
    shift = np.array([0.0, 0.0, 3.0, 0.0, 5.0, 0.0])
    surplus = riccati_module._surplus

    def shifted(*args):
        value, gain = surplus(*args)
        return value - shift[:, None, None] * np.eye(2), gain

    monkeypatch.setattr(riccati_module, "_surplus", shifted)
    with pytest.raises(InconsistentRoutes) as raised:
        _membership_stack(two_state_system, stack, **tols)
    message = str(raised.value)
    assert message.startswith("surplus route says False, LMI route says True")
    assert f"surplus_min={table.surplus_min[2] - 3.0:.3e}" in message
    assert f"lmi_min={table.lmi_min[2]:.3e}" in message


def test_kernel_forms_the_range_columns_only_where_they_are_read(
    scalar_interval_system, monkeypatch
):
    """The kernel takes the range residual c3 only on rows whose rank cut
    drops an eigenvalue of delta, and ||beta|| only on rows with c3 above
    RANGE_TOL or split routes; on those rows it matches the step-by-step
    reference bit for bit. scalar_interval at H = 3/4 has delta = 0, so the
    cut drops its eigenvalue; A = 1e-8, B = C = 0.5, D = 0 at its H_max = 4
    has delta = 0 and c3 = 2e-8 above RANGE_TOL, a boundary split. A scaled
    scalar system whose surplus is pushed down by 3 splits with ||beta|| =
    2.97 and ||L(H)|| = 12.65, so RANGE_TOL ||beta|| = 2.97e-8 is the
    margin that decides: outside the band 100 tol ||L(H)|| at tol 1e-12,
    where the split raises, and inside it at tol 1e-10, where it is a
    boundary case."""
    calls = []
    norms = riccati_module._spectral_norms

    def spy(a):
        calls.append(len(a))
        return norms(a)

    monkeypatch.setattr(riccati_module, "_spectral_norms", spy)

    def check(sigma, stack, formed, shift=0.0, **tols):
        # the rows of one kernel call, or the error it raises, against the
        # reference on each row; ``formed`` lists the rows of each SVD call
        calls.clear()
        expected = [
            _outcome_of(
                lambda: _reference_membership(sigma, h, surplus_shift=shift, **tols)
            )
            for h in stack
        ]
        try:
            table = _membership_stack(sigma, np.array(stack, dtype=complex), **tols)
            got = [_row_outcome(table, i) for i in range(len(stack))]
        except InconsistentRoutes as exc:
            got = [_outcome(exc)]
        assert got == expected
        assert calls == formed
        return got

    # only the row at 3/4 takes c3 (one SVD of one row); no row takes ||beta||
    check(scalar_interval_system, [[[0.25]], [[0.75]], [[0.5]]], [1])
    # the row at 4 takes c3 and then ||beta||; the row at 2 takes neither
    found_53 = SystemRealization([[1e-8]], [[0.5]], [[0.5]], [[0.0]])
    check(found_53, [[[4.0]], [[2.0]]], [1, 1])
    table = _membership_stack(found_53, np.array([[[4.0]]]))
    assert table.boundary[0] and table.c3[0] > 1e-8

    # an interior point of the scaled system: delta = 0.9 and c3 = 0, so the
    # one SVD is that of ||beta|| on the split row
    scaled = SystemRealization([[0.9]], [[0.03]], [[3.0]], [[0.0]])
    surplus = riccati_module._surplus

    def shifted(*args):
        value, gain = surplus(*args)
        return value - 3.0, gain

    monkeypatch.setattr(riccati_module, "_surplus", shifted)
    for tol, raises in ((1e-12, True), (1e-10, False)):
        (got,) = check(scaled, [[[110.0]]], [1], shift=3.0, tol=tol)
        assert (got[0] == "InconsistentRoutes") == raises
        assert raises or got[3][-1]  # the boundary flag


def test_membership_reads_a_storage_operators_eigenvalues(
    two_state_system, monkeypatch
):
    # a StorageOperator hands the kernel the eigenvalues it holds, so the
    # only eigh is delta's (1 x 1 here); a matrix is decomposed first (2 x 2)
    storage = StorageOperator(np.diag([1.0, 2.0]))
    shapes, eigh = [], np.linalg.eigh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    verdict = membership(two_state_system, storage)
    assert shapes == [(1, 1, 1)]
    shapes.clear()
    assert _outcome(membership(two_state_system, storage.matrix)) == _outcome(verdict)
    assert shapes == [(1, 2, 2), (1, 1, 1)]


@pytest.mark.parametrize("seed", [60, 109])
def test_kernel_positivity_is_a_storage_operators(seed):
    # a weight whose least eigenvalue is within 1e-3 of the PD_TOL floor:
    # on these seeds eigh and eigvalsh put it on opposite sides (eigh says
    # PD at 60 and not PD at 109), and the kernel, given no eigenvalues,
    # decides as a StorageOperator of the same weight does
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(g)
    w = np.array([1e-12 * (1.0 + rng.uniform(-1e-3, 1e-3)), 0.5, 1.0])
    h = hermitian_part(q @ np.diag(w) @ q.conj().T)
    assert abs(np.linalg.eigh(h)[0][0] / 1e-12 - 1.0) < 1e-3
    sigma = SystemRealization(np.kron(np.eye(3), [[0.5]]), np.full((3, 1), 0.3),
                              np.full((1, 3), 0.3), [[0.0]])
    try:
        StorageOperator(h)
        constructs = True
    except NotPD:
        constructs = False
    assert bool(_membership_stack(sigma, h[None]).pd[0]) == constructs
