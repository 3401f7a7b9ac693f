"""Acceptance suite.

One test per acceptance criterion; each prints a single pass/fail line with
its number so the whole gate can be audited from the test log. Expected
numbers come from closed forms or from the independent oracles defined in
the library (brute-force infimum, rejection sampling, hand recursions).

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import numpy as np

from riccati_kyp import (
    Loewner,
    SolverConfig,
    SystemRealization,
    UniquenessReason,
    UniquenessVerdict,
    adjoint,
    brute_force_infimum,
    dissipation_check,
    duality_check,
    equality_gap,
    inequality_surplus,
    maximal_solution,
    membership,
    minimal_contraction,
    minimal_solution,
    psd_sqrt,
    range_projector,
    riccati_data,
    sample_ri_members,
    simulate,
    solve_re,
    spectral_norm,
    sqrt_pinv_commute_check,
    uniqueness_certificate,
)
from conftest import (
    blaschke_system,
    random_block_nonneg,
    random_pd,
    random_realization,
    random_similarity,
    two_state_re_solutions,
)


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {status} - {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


SCALAR_INTERVAL = SystemRealization(-0.125, 1.0, 0.1875, 0.5)
TWO_STATE = SystemRealization(
    [[0.0, 0.6], [0.8, 0.0]], [[0.0], [0.6]], [[0.0, 0.8]], [[0.0]]
)
COISOMETRY = SystemRealization([[0.0]], [[1.0, 0.0]], [[1.0]], [[0.0, 0.0]])


def test_criterion_01_scalar_interval_reproduction():
    ok = True
    detail = []

    solution_set = solve_re(SCALAR_INTERVAL)
    ok &= solution_set.complete and len(solution_set) == 1
    ok &= abs(solution_set.members[0][0, 0] - 3.0 / 64.0) <= 1e-12
    detail.append(f"re={solution_set.members[0][0, 0].real:.9f}")

    for h in (3.0 / 64.0, 0.1, 0.5, 0.75):
        ok &= membership(SCALAR_INTERVAL, h).in_ri
    for h in (0.01, 0.76):
        ok &= not membership(SCALAR_INTERVAL, h).in_ri

    h_min = minimal_solution(SCALAR_INTERVAL).matrix[0, 0].real
    h_max = maximal_solution(SCALAR_INTERVAL).matrix[0, 0].real
    ok &= abs(h_min - 3.0 / 64.0) <= 1e-9
    ok &= abs(h_max - 0.75) <= 1e-9
    detail.append(f"extremes=({h_min:.9f}, {h_max:.9f})")
    _report(1, "scalar interval example reproduced", ok, ", ".join(detail))


def test_criterion_02_scalar_interval_adjoint():
    adj = adjoint(SCALAR_INTERVAL)
    ok = True

    solution_set = solve_re(adj)
    ok &= solution_set.complete and len(solution_set) == 1
    ok &= abs(solution_set.members[0][0, 0] - 4.0 / 3.0) <= 1e-12

    h_min = minimal_solution(adj).matrix[0, 0].real
    h_max = maximal_solution(adj).matrix[0, 0].real
    ok &= abs(h_min - 4.0 / 3.0) <= 1e-9
    ok &= abs(h_max - 64.0 / 3.0) <= 1e-9

    report = duality_check(SCALAR_INTERVAL)
    ok &= report.failure_count == 0
    ok &= report.re_inversion_equal is False

    _report(
        2,
        "adjoint system extremes and inversion mismatch of equality sets",
        ok,
        f"extremes=({h_min:.9f}, {h_max:.9f}), "
        f"re_inversion_equal={report.re_inversion_equal}",
    )


def test_criterion_03_two_state_four_solutions():
    solution_set = solve_re(TWO_STATE)
    expected = two_state_re_solutions()
    ok = len(solution_set) == 4
    if ok:
        # output order is trace-then-entry sorted: identity, negative
        # off-diagonal, positive off-diagonal, diagonal maximal
        order = [expected[0], expected[2], expected[1], expected[3]]
        for member, target in zip(solution_set.members, order):
            ok &= spectral_norm(member - target) <= 1e-8
        ok &= solution_set.minimal_index == 0
        ok &= solution_set.maximal_index == 3
        ok &= solution_set.comparisons[(1, 2)] is Loewner.INCOMPARABLE
    _report(
        3,
        "two-state example: exactly four equality solutions with the "
        "expected order structure",
        ok,
        f"found={len(solution_set)}",
    )


def test_criterion_04_coisometry_uniqueness():
    cert = uniqueness_certificate(COISOMETRY, grid_steps=1024)
    ok = cert.verdict is UniquenessVerdict.UNIQUE_SINGLETON
    ok &= cert.reason is UniquenessReason.COINNER_FL0

    h_min = minimal_solution(COISOMETRY).matrix
    h_max = maximal_solution(COISOMETRY).matrix
    ok &= abs(h_min[0, 0] - 1.0) <= 1e-10
    ok &= abs(h_max[0, 0] - 1.0) <= 1e-10
    ok &= membership(COISOMETRY, 1.0).in_ri_circ

    delta = riccati_data(COISOMETRY, 1.0).delta_op
    ok &= np.array_equal(delta, np.diag([0.0, 1.0]).astype(complex))
    ok &= spectral_norm(delta) > 0.0
    _report(
        4,
        "co-isometry example: co-inner uniqueness with nonzero input-side "
        "residual at the member",
        ok,
        f"reason={cert.reason.value}, delta=diag(0,1)",
    )


def test_criterion_05_inner_singletons():
    rng = np.random.default_rng(105)
    ok = True
    details = []
    for zeros in ([0.4], [0.5, -0.25], [0.3 + 0.35j, -0.2, 0.5 - 0.1j]):
        t = random_similarity(rng, len(zeros))
        sigma = blaschke_system(zeros, t)
        cert = uniqueness_certificate(sigma, grid_steps=1024)
        ok &= cert.verdict is UniquenessVerdict.UNIQUE_SINGLETON
        ok &= cert.reason is UniquenessReason.INNER_FR0
        h_min = minimal_solution(sigma)
        h_max = maximal_solution(sigma)
        ok &= spectral_norm(h_min.matrix - h_max.matrix) <= 1e-8
        delta_norm = spectral_norm(riccati_data(sigma, h_min).delta_op)
        ok &= delta_norm <= 1e-8
        details.append(f"deg{len(zeros)}: |delta|={delta_norm:.1e}")
    _report(
        5,
        "allpass products of degree 1-3: singleton member with vanishing "
        "input-side residual",
        ok,
        "; ".join(details),
    )


def test_criterion_06_two_route_agreement():
    rng = np.random.default_rng(106)
    in_count = 0
    boundary = 0
    for k in range(1000):
        n, m, p = (int(v) for v in rng.integers(1, 5, size=3))
        norm = float(rng.choice([0.8, 0.99, 1.05])) if k % 3 == 0 else None
        sigma = random_realization(rng, n, m, p, passive_norm=norm)
        h = np.eye(n) if k % 4 == 0 else random_pd(rng, n)
        # raises InconsistentRoutes on any non-boundary disagreement
        verdict = membership(sigma, h)
        in_count += verdict.in_ri
        boundary += verdict.diagnostics.boundary_case
    _report(
        6,
        "surplus route and LMI route agree on 1000 random systems/weights",
        True,
        f"members={in_count}, boundary_cases={boundary}",
    )


def test_criterion_07_infimum_oracle():
    rng = np.random.default_rng(107)
    worst = 0.0
    for k in range(200):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        block, _ = random_block_nonneg(rng, n, m, deficient=(k % 3 == 0))
        fact = minimal_contraction(block)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        quad = float(np.real(x.conj() @ fact.complement @ x))
        oracle = brute_force_infimum(block, x, grid_radius=2.0, grid_steps=3)
        bound = 1e-6 * (1.0 + float(np.real(x.conj() @ x)))
        worst = max(worst, abs(quad - oracle) / bound)
        assert abs(quad - oracle) <= bound
    _report(
        7,
        "state-supported complement matches the brute-force infimum on 200 "
        "random blocks",
        True,
        f"worst error at {worst:.2e} of the bound",
    )


def test_criterion_08_factorization_constraints_and_uniqueness():
    rng = np.random.default_rng(108)
    worst_residual = 0.0
    worst_recovery = 0.0
    for k in range(1000):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        block, gamma0 = random_block_nonneg(rng, n, m, deficient=(k % 3 == 0))
        fact = minimal_contraction(block)
        t_norm = spectral_norm(block.assembled())
        residual = spectral_norm(
            block.beta.conj().T
            - psd_sqrt(block.delta) @ fact.gamma @ psd_sqrt(block.alpha)
        )
        worst_residual = max(worst_residual, residual)
        assert residual <= 1e-10 * (1.0 + t_norm)
        assert spectral_norm(fact.gamma) <= 1.0 + 1e-10
        kernel_proj = np.eye(n) - range_projector(block.alpha)
        assert spectral_norm(fact.gamma @ kernel_proj) <= 1e-10 * (1.0 + t_norm)
        outside = np.eye(m) - range_projector(block.delta)
        assert spectral_norm(outside @ fact.gamma) <= 1e-10 * (1.0 + t_norm)
        # uniqueness: the constrained contraction is pinned down
        worst_recovery = max(worst_recovery, spectral_norm(fact.gamma - gamma0))
        assert spectral_norm(fact.gamma - gamma0) <= 1e-8
        if k % 100 == 0 and spectral_norm(kernel_proj) > 0.5:
            # perturbation rejection: kernel-supported changes keep the
            # factorization but violate the defining constraints
            w = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            perturbed = fact.gamma + 0.1 * w @ kernel_proj
            assert spectral_norm(perturbed @ kernel_proj) > 1e-3
    _report(
        8,
        "minimal-contraction constraints hold on 1000 random blocks with "
        "uniqueness by perturbation rejection",
        True,
        f"worst residual {worst_residual:.2e}, worst recovery "
        f"{worst_recovery:.2e}",
    )


def test_criterion_09_equality_criteria_coincide():
    rng = np.random.default_rng(109)
    checked = 0
    for sigma, anchors in (
        (SCALAR_INTERVAL, [np.array([[3.0 / 64.0]]), np.array([[0.75]])]),
        (TWO_STATE, [two_state_re_solutions()[0], two_state_re_solutions()[3]]),
    ):
        samples = sample_ri_members(sigma, 15, rng, anchors=anchors)
        assert len(samples) == 15
        for h in samples:
            gap = equality_gap(sigma, h)
            surplus_norm = spectral_norm(inequality_surplus(sigma, h))
            assert (gap <= 1e-8) == (surplus_norm <= 1e-8)
            checked += 1
    # the boundary point where the input-side residual vanishes entirely
    gap = equality_gap(SCALAR_INTERVAL, 0.75)
    surplus_norm = spectral_norm(inequality_surplus(SCALAR_INTERVAL, 0.75))
    assert gap > 1e-8 and surplus_norm > 1e-8
    assert abs(gap - 15.0 / 16.0) <= 1e-12
    _report(
        9,
        "complement gap and surplus norm agree as equality criteria, "
        "including the boundary point",
        True,
        f"samples={checked}, boundary gap={gap:.6f}",
    )


def test_criterion_10_dissipation_margins():
    rng = np.random.default_rng(110)
    worst = 0.0
    cases = 0
    for sigma, anchors in (
        (SCALAR_INTERVAL, [np.array([[3.0 / 64.0]]), np.array([[0.75]])]),
        (TWO_STATE, [two_state_re_solutions()[0], two_state_re_solutions()[3]]),
        (COISOMETRY, [np.array([[1.0]])]),
    ):
        samples = sample_ri_members(sigma, 10, rng, anchors=anchors)
        assert samples
        for h in samples:
            x0 = rng.standard_normal(sigma.state_dim)
            u = rng.standard_normal((100, sigma.input_dim))
            margins = dissipation_check(simulate(sigma, x0, u), h)
            worst = min(worst, float(margins.min())) if cases else float(margins.min())
            assert margins.min() >= -1e-10
            cases += 1
    _report(
        10,
        "per-step storage margins stay above -1e-10 along 100-step random "
        "trajectories for sampled members",
        True,
        f"cases={cases}, worst margin={worst:.2e}",
    )


def test_criterion_11_sqrt_pinv_identity():
    rng = np.random.default_rng(111)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 7))
        rank = int(rng.integers(1, n))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(g)
        eigs = np.concatenate(
            [10.0 ** rng.uniform(-3, 0, rank), np.zeros(n - rank)]
        )
        a = (q * eigs) @ q.conj().T
        a = 0.5 * (a + a.conj().T)
        deviation = sqrt_pinv_commute_check(a)
        worst = max(worst, deviation)
        assert deviation <= 1e-8
    _report(
        11,
        "pseudo-inverse of the square root equals the square root of the "
        "pseudo-inverse on 500 rank-deficient matrices",
        True,
        f"worst deviation {worst:.2e}",
    )
