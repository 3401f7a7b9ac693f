"""Operator-utility tests: PSD calculus, the minimal-contraction
factorization against its brute-force infimum oracle, and the Loewner order."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from riccati_kyp import (
    BlockNonneg,
    DimensionMismatch,
    Loewner,
    NotNonneg,
    NotPSD,
    RangeViolation,
    StorageOperator,
    SystemRealization,
    brute_force_infimum,
    dissipation_check,
    ensure_hermitian,
    loewner_compare,
    membership,
    minimal_contraction,
    psd_pseudo_inverse,
    psd_rank,
    psd_sqrt,
    range_projector,
    simulate,
    spectral_norm,
    sqrt_pinv_commute_check,
    system_matrix,
)
from riccati_kyp.linops import _psd_spectral, _spectral_norms
from conftest import random_block_nonneg, random_hermitian, random_psd


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "entry_point",
    [
        ensure_hermitian,
        psd_sqrt,
        psd_pseudo_inverse,
        range_projector,
        StorageOperator,
        lambda h: membership(SystemRealization(0.5, 0.5, 0.5, 0.0), h),
        lambda h: dissipation_check(
            simulate(SystemRealization(0.5, 0.5, 0.5, 0.0), [1.0], np.ones((3, 1))), h
        ),
    ],
    ids=["ensure_hermitian", "psd_sqrt", "psd_pseudo_inverse", "range_projector",
         "StorageOperator", "membership", "dissipation_check"],
)
def test_non_finite_matrices_are_refused(entry_point, value):
    # nan > tol is False, so only an explicit test keeps such a matrix from
    # passing the symmetry check
    with pytest.raises(ValueError, match="non-finite"):
        entry_point(np.array([[value]]))


_SCALAR = SystemRealization(0.5, 0.5, 0.5, 0.0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ensure_hermitian(np.ones((2, 3))),
         DimensionMismatch, "expected a square matrix, got shape (2, 3)"),
        (lambda: BlockNonneg(np.eye(1), np.zeros((1, 1)), np.eye(2)),
         DimensionMismatch, "off-diagonal block has shape (1, 1), expected (1, 2)"),
        (lambda: minimal_contraction(
            BlockNonneg([[1.0]], [[0.0, 1e-4]], np.diag([1.0, 1e-9])), rank_tol=1e-6),
         RangeViolation, "off-diagonal block does not factor (residual 1.000e-04); "
         "the operator is not PSD to working precision"),
        (lambda: brute_force_infimum(BlockNonneg(np.eye(1), np.zeros((1, 1)), np.eye(1)),
                                     np.ones(2)),
         DimensionMismatch, "x has length 2, expected 1"),
        (lambda: SystemRealization(np.ones((1, 2)), 0.5, 0.5, 0.0),
         DimensionMismatch, "state operator must be square, got (1, 2)"),
        (lambda: SystemRealization(0.5, 0.5, [[0.5, 0.5]], 0.0),
         DimensionMismatch, "output operator has 2 columns, expected 1"),
        (lambda: SystemRealization(0.5, 0.5, 0.5, [[0.0, 0.0]]),
         DimensionMismatch, "feed-through has shape (1, 2), expected (1, 1)"),
        (lambda: simulate(_SCALAR, [1.0], np.ones((3, 2))),
         DimensionMismatch, "inputs have width 2, expected 1"),
        (lambda: dissipation_check(simulate(_SCALAR, [1.0], np.ones((3, 1))), np.eye(2)),
         DimensionMismatch, "weight dimension 2 does not match state dimension 1"),
    ],
    ids=["ensure_hermitian", "BlockNonneg", "minimal_contraction", "brute_force_infimum",
         "state-operator", "output-operator", "feed-through", "simulate",
         "dissipation_check"],
)
def test_malformed_arguments_are_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_empty_matrices_on_a_stack_have_norm_zero():
    assert _spectral_norms(np.zeros((3, 0, 2))).tolist() == [0.0, 0.0, 0.0]


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]))

    def test_square_reproduces(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = random_psd(rng, int(rng.integers(1, 6)))
            s = psd_sqrt(a)
            assert spectral_norm(s @ s - a) <= 1e-10 * (1.0 + spectral_norm(a))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -0.5]))

    def test_clamps_roundoff_negatives(self):
        a = np.diag([1.0, -1e-14])
        s = psd_sqrt(a, rank_tol=1e-12)
        assert float(np.linalg.eigvalsh(s)[0]) >= 0.0


class TestPsdPseudoInverse:
    def test_zero_maps_to_zero(self):
        assert np.allclose(psd_pseudo_inverse(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_diagonal(self):
        assert np.allclose(
            psd_pseudo_inverse(np.diag([2.0, 0.0])), np.diag([0.5, 0.0])
        )

    def test_moore_penrose_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            a = random_psd(rng, n, rank=int(rng.integers(1, n)))
            pinv = psd_pseudo_inverse(a)
            assert spectral_norm(a @ pinv @ a - a) <= 1e-10 * (1.0 + spectral_norm(a))
            # pinv is PSD and a @ pinv projects onto the range
            assert float(np.linalg.eigvalsh(pinv)[0]) >= -1e-12
            proj = a @ pinv
            assert spectral_norm(proj - range_projector(a)) <= 1e-10

    def test_rank(self):
        assert psd_rank(np.diag([3.0, 1e-20, 0.0])) == 1


class TestSqrtPinvCommute:
    def test_identity(self):
        assert sqrt_pinv_commute_check(np.eye(3)) <= 1e-14

    def test_diagonal(self):
        # both routes give diag(1/2, 0)
        assert sqrt_pinv_commute_check(np.diag([4.0, 0.0])) <= 1e-14

    def test_random_rank_deficient(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            rank = int(rng.integers(1, n))
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, _ = np.linalg.qr(g)
            eigs = np.concatenate([10.0 ** rng.uniform(-3, 0, rank), np.zeros(n - rank)])
            a = (q * eigs) @ q.conj().T
            a = 0.5 * (a + a.conj().T)
            assert sqrt_pinv_commute_check(a) <= 1e-8 * (1.0 + spectral_norm(a))


class TestLoewner:
    def test_reflexive_equal(self):
        rng = np.random.default_rng(3)
        h = random_psd(rng, 3)
        assert loewner_compare(h, h) is Loewner.EQUAL

    def test_antisymmetric(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 5))
            h1 = random_hermitian(rng, n)
            h2 = random_hermitian(rng, n)
            fwd = loewner_compare(h1, h2)
            rev = loewner_compare(h2, h1)
            flip = {
                Loewner.LESS_EQUAL: Loewner.GREATER_EQUAL,
                Loewner.GREATER_EQUAL: Loewner.LESS_EQUAL,
                Loewner.EQUAL: Loewner.EQUAL,
                Loewner.INCOMPARABLE: Loewner.INCOMPARABLE,
            }
            assert rev is flip[fwd]

    def test_equal_diagonal_opposite_off_diagonal_incomparable(self):
        from conftest import two_state_re_solutions

        _, h2, h3, _ = two_state_re_solutions()
        assert loewner_compare(h2, h3) is Loewner.INCOMPARABLE

    def test_identity_below_diagonal_maximal(self):
        from conftest import two_state_re_solutions

        h4 = two_state_re_solutions()[3]
        assert np.allclose(h4, np.diag([256.0 / 81.0, 16.0 / 9.0]))
        assert loewner_compare(np.eye(2), h4) is Loewner.LESS_EQUAL

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            loewner_compare(np.eye(2), np.eye(3))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=4),
        near=st.booleans(),
        side=st.sampled_from(["low", "high"]),
        ulps=st.sampled_from([-1, 0, 1]),
    )
    def test_tie_tolerances_follow_the_documented_precedence(self, seed, n, near, side, ulps):
        # tol is -lambda_min or lambda_max of h2 - h1 exactly, or one ulp
        # either side, so each mask sits on its edge; the verdict is EQUAL
        # when the difference's norm max(-lambda_min, lambda_max) is within
        # tol, then LESS_EQUAL, GREATER_EQUAL and INCOMPARABLE in turn
        rng = np.random.default_rng(seed)
        h1 = random_hermitian(rng, n)
        h2 = h1 + (1e-12 if near else 1.0) * random_hermitian(rng, n)
        w = np.linalg.eigvalsh((h2 - h1)[None])[0]
        low, high = w[0], w[-1]
        tie = -low if side == "low" else high
        tol = float(np.nextafter(tie, np.inf * ulps) if ulps else tie)
        if max(-low, high) <= tol:
            want = Loewner.EQUAL
        elif low >= -tol:
            want = Loewner.LESS_EQUAL
        elif high <= tol:
            want = Loewner.GREATER_EQUAL
        else:
            want = Loewner.INCOMPARABLE
        assert loewner_compare(h1, h2, tol) is want


class TestMinimalContraction:
    def test_zero_cross_block(self):
        rng = np.random.default_rng(5)
        alpha = random_psd(rng, 3)
        delta = random_psd(rng, 2)
        block = BlockNonneg(alpha, np.zeros((3, 2)), delta)
        fact = minimal_contraction(block)
        assert spectral_norm(fact.gamma) <= 1e-12
        assert spectral_norm(fact.complement - alpha) <= 1e-10

    def test_contraction_defect_block(self):
        # T = I - M* M for a random strict contraction M
        rng = np.random.default_rng(6)
        for _ in range(20):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            g = rng.standard_normal((n + 1, n + m)) + 1j * rng.standard_normal(
                (n + 1, n + m)
            )
            g *= 0.9 / spectral_norm(g)
            t = np.eye(n + m) - g.conj().T @ g
            block = BlockNonneg(t[:n, :n], t[:n, n:], t[n:, n:])
            fact = minimal_contraction(block)
            residual = spectral_norm(
                block.beta.conj().T
                - psd_sqrt(block.delta) @ fact.gamma @ psd_sqrt(block.alpha)
            )
            assert residual <= 1e-10

    def test_coisometry_defect_has_zero_complement(self, coisometry_system):
        # the co-isometry block matrix leaves a defect supported entirely on
        # the input side, so the state-supported complement vanishes
        m = system_matrix(coisometry_system)
        t = np.eye(3) - m.conj().T @ m
        block = BlockNonneg(t[:1, :1], t[:1, 1:], t[1:, 1:])
        fact = minimal_contraction(block)
        assert spectral_norm(fact.complement) <= 1e-12

    def test_factorization_invariants(self):
        rng = np.random.default_rng(7)
        for k in range(200):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            block, _ = random_block_nonneg(rng, n, m, deficient=(k % 3 == 0))
            fact = minimal_contraction(block)
            t_norm = spectral_norm(block.assembled())
            # contraction
            assert spectral_norm(fact.gamma) <= 1.0 + 1e-10
            # annihilates ker(alpha): columns of the kernel projector
            kernel_proj = np.eye(n) - range_projector(block.alpha)
            assert spectral_norm(fact.gamma @ kernel_proj) <= 1e-10 * (1 + t_norm)
            # maps into range(delta)
            outside = np.eye(m) - range_projector(block.delta)
            assert spectral_norm(outside @ fact.gamma) <= 1e-10 * (1 + t_norm)
            # factorization residual
            residual = spectral_norm(
                block.beta.conj().T
                - psd_sqrt(block.delta) @ fact.gamma @ psd_sqrt(block.alpha)
            )
            assert residual <= 1e-10 * (1 + t_norm)
            # complement PSD
            assert float(np.linalg.eigvalsh(fact.complement)[0]) >= -1e-10 * (
                1 + t_norm
            )

    def test_recovers_constructed_contraction(self):
        rng = np.random.default_rng(8)
        for k in range(100):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            block, gamma = random_block_nonneg(rng, n, m, deficient=(k % 2 == 0))
            fact = minimal_contraction(block)
            assert spectral_norm(fact.gamma - gamma) <= 1e-8

    def test_uniqueness_perturbation_rejection(self):
        # any perturbation of gamma either breaks the factorization identity
        # or violates the kernel constraint that pins gamma down
        rng = np.random.default_rng(9)
        hits = 0
        for _ in range(50):
            n, m = 3, 2
            block, _ = random_block_nonneg(rng, n, m, deficient=True)
            fact = minimal_contraction(block)
            sqrt_a, sqrt_d = psd_sqrt(block.alpha), psd_sqrt(block.delta)
            kernel_proj = np.eye(n) - range_projector(block.alpha)
            if spectral_norm(kernel_proj) > 0.5:
                hits += 1
                # kernel-supported perturbations keep the identity but break
                # the kernel constraint
                w = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
                perturbed = fact.gamma + 0.1 * w @ kernel_proj
                residual = spectral_norm(
                    block.beta.conj().T - sqrt_d @ perturbed @ sqrt_a
                )
                assert residual <= 1e-8
                assert spectral_norm(perturbed @ kernel_proj) > 1e-3
            # active-space perturbations break the factorization identity
            active = (
                range_projector(block.delta)
                @ (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
                @ range_projector(block.alpha)
            )
            if spectral_norm(active) > 1e-8:
                perturbed = fact.gamma + 0.1 * active
                residual = spectral_norm(
                    block.beta.conj().T - sqrt_d @ perturbed @ sqrt_a
                )
                assert residual > 1e-6
        assert hits > 5  # the deficient generator produced real kernels

    def test_rejects_indefinite(self):
        block = BlockNonneg(np.zeros((1, 1)), np.array([[1.0]]), np.zeros((1, 1)))
        with pytest.raises(NotNonneg):
            minimal_contraction(block)

    def test_complement_zero_iff_partial_isometry(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            block, gamma = random_block_nonneg(rng, n, m)
            fact = minimal_contraction(block)
            proj_a = range_projector(block.alpha)
            isometry_defect = spectral_norm(
                (np.eye(n) - fact.gamma.conj().T @ fact.gamma) @ proj_a
            )
            if spectral_norm(fact.complement) <= 1e-12:
                assert isometry_defect <= 1e-8
            if isometry_defect <= 1e-12:
                assert spectral_norm(fact.complement) <= 1e-8


class TestBruteForceInfimum:
    def test_zero_state_vector(self):
        rng = np.random.default_rng(11)
        block, _ = random_block_nonneg(rng, 2, 2)
        assert abs(brute_force_infimum(block, np.zeros(2))) <= 1e-12

    def test_decoupled(self):
        rng = np.random.default_rng(12)
        alpha = random_psd(rng, 3)
        delta = random_psd(rng, 2)
        block = BlockNonneg(alpha, np.zeros((3, 2)), delta)
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        expected = float(np.real(x.conj() @ alpha @ x))
        assert abs(brute_force_infimum(block, x) - expected) <= 1e-10 * (1 + expected)

    def test_matches_schur_complement(self):
        rng = np.random.default_rng(13)
        for k in range(60):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            block, _ = random_block_nonneg(rng, n, m, deficient=(k % 3 == 0))
            fact = minimal_contraction(block)
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            quad = float(np.real(x.conj() @ fact.complement @ x))
            oracle = brute_force_infimum(block, x, grid_radius=2.0, grid_steps=3)
            assert abs(quad - oracle) <= 1e-6 * (1.0 + float(np.real(x.conj() @ x)))

    def test_rejects_indefinite(self):
        block = BlockNonneg(np.zeros((1, 1)), np.array([[1.0]]), np.zeros((1, 1)))
        with pytest.raises(NotNonneg):
            brute_force_infimum(block, np.ones(1))


@st.composite
def psd_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    entries = draw(
        st.lists(
            st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
            min_size=2 * n * n,
            max_size=2 * n * n,
        )
    )
    flat = np.array(entries[: n * n]) + 1j * np.array(entries[n * n :])
    g = flat.reshape(n, n)
    return g @ g.conj().T


@settings(max_examples=40, deadline=None)
@given(psd_matrices())
@example(np.array([[1e-310 + 0j]]))
@example(np.array([[0.140625, -0.375j], [0.375j, 1 + 1e-9]]))
@example(np.array([[1, 1], [1, 1 + 1e-9]], dtype=complex))
@example(np.array([[2.0000000000000002e-20 + 0j]]))
def test_psd_identities_property(a):
    """The fixed bounds hold while the kept spectrum's condition number kappa
    is at most 1e4. With lam the smallest kept eigenvalue, ``a pinv a``
    carries roundoff of order eps * kappa * ||a|| (pinv has norm 1/lam), and
    the commutator, whose two sides have norm 1/sqrt(lam), of order
    eps * sqrt(kappa / lam) (see ``sqrt_pinv_commute_check``). So above
    1e4 both bounds grow by kappa / 1e4, and the commutator bound is relative
    to max(1 + ||a||, 1/sqrt(lam)). The square root is backward stable and
    keeps its bound."""
    w, _, kept = _psd_spectral(a, None)
    lam = w[kept].min(initial=np.inf)
    growth = max(1.0, w[kept].max(initial=0.0) / lam / 1e4)
    s = psd_sqrt(a)
    scale = 1.0 + spectral_norm(a)
    assert spectral_norm(s @ s - a) <= 1e-10 * scale
    pinv = psd_pseudo_inverse(a)
    assert spectral_norm(a @ pinv @ a - a) <= 1e-10 * scale * growth
    assert sqrt_pinv_commute_check(a) <= 1e-8 * max(scale, lam**-0.5) * growth
