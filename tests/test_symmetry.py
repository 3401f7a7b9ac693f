"""Symmetry oracles: verdicts and extremes that cannot depend on the
coordinates.

A unitary change of the state, input and output coordinates, ``(A, B, C, D)
-> (U A U*, U B V_in, V_out C U*, V_out D V_in)``, maps the residual
operators at ``H' = U H U*`` to ``alpha' = U alpha U*``, ``beta' = V_in*
beta U*`` and ``delta' = V_in* delta V_in``: the KYP LMI is transformed by a
unitary congruence, so RE and RI map by ``H -> U H U*``. Complex conjugation
of A, B, C and D conjugates them, ``H -> conj(H)``. Every norm and
tolerance of the package is unitarily invariant, so each property below
needs no reference solver:

* ``membership``'s ``in_ri`` agrees, except where a verdict is flagged
  ``boundary_case``;
* ``minimal_solution`` and ``maximal_solution`` map by the transform, to
  ``1e-12 cond(H)`` relative;
* ``uniqueness_certificate`` gives the same verdict and reason;
* ``analyze``'s passivity margin and circle defects agree to 1e-12 (on the
  circle grid, which conjugation maps onto itself).

The systems are the seed-301 and seed-401 benchmark zoos (n = 1..6, m, p =
1..2, block norm 0.9), seeded ``random_realization`` draws (block norm
0.95), and lossless colligations under a similarity, whose one inequality
member the uniqueness certificate decides. The defects of a lossless draw
vanish only to roundoff in ``||A||`` (up to 1e-11), so those draws take no
part in the margin and defect comparison. The first three properties are
also checked on 200 hypothesis draws of strictly passive minimal systems
(``test_solver.strictly_passive_minimal``), under one drawn transform per
draw: the extremes and ``in_ri`` on one set of draws, the uniqueness
verdict on another.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_kyp import (
    SystemRealization,
    circle_profile,
    maximal_solution,
    membership,
    minimal_solution,
    spectral_norm,
    uniqueness_certificate,
)
from riccati_kyp.cli import _analyze_payload
from riccati_kyp.riccati import _memberships
from conftest import random_realization
from test_solver import _bench_zoo, _lossless_draw, strictly_passive_minimal

# the transforms applied to each system: which of U, V_in and V_out are
# random unitaries (the others are identities), and whether the result is
# conjugated
TRANSFORMS = {
    "state": ("state",),
    "input": ("input",),
    "output": ("output",),
    "unitary": ("state", "input", "output"),
    "conjugate": (),
    "conjugate_unitary": ("state", "input", "output"),
}
GRID = 4096
TOL = 1e-9


def _unitary(rng: np.random.Generator, k: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return q


def _transformed(sigma: SystemRealization, rng: np.random.Generator, name: str):
    """The transform ``name`` of ``sigma`` and the map that takes RE and RI
    of ``sigma`` onto those of the result."""
    changed = TRANSFORMS[name]
    u, v_in, v_out = (
        _unitary(rng, k) if part in changed else np.eye(k)
        for part, k in (("state", sigma.state_dim), ("input", sigma.input_dim),
                        ("output", sigma.output_dim))
    )
    u_star = u.conj().T
    mats = (u @ sigma.a @ u_star, u @ sigma.b @ v_in, v_out @ sigma.c @ u_star,
            v_out @ sigma.d @ v_in)
    if name.startswith("conjugate"):
        mats = tuple(mat.conj() for mat in mats)
        return SystemRealization(*mats), lambda h: (u @ h @ u_star).conj()
    return SystemRealization(*mats), lambda h: u @ h @ u_star


@functools.cache
def _systems(group: str) -> tuple[SystemRealization, ...]:
    if group == "zoo":
        return tuple(_bench_zoo(301, 6) + _bench_zoo(401, 6))
    if group == "random":
        return tuple(
            random_realization(
                np.random.default_rng(seed), 1 + seed % 4, 1 + seed % 2,
                1 + (seed // 2) % 2, passive_norm=0.95,
            )
            for seed in range(16)
        )
    draws = (_lossless_draw(seed) for seed in range(12))
    return tuple(sigma for sigma in draws if sigma is not None)


@functools.cache
def _cases(group: str) -> tuple:
    """``(sigma, h_min, h_max, transforms)`` per system of ``group``, with
    ``transforms`` the ``(name, sigma', map)`` of each transform, drawn from
    a generator seeded by the system's index."""
    cases = []
    for index, sigma in enumerate(_systems(group)):
        rng = np.random.default_rng([index, 5])
        transforms = [(name, *_transformed(sigma, rng, name)) for name in TRANSFORMS]
        h_min, h_max = minimal_solution(sigma).matrix, maximal_solution(sigma).matrix
        cases.append((sigma, h_min, h_max, transforms))
    return tuple(cases)


def _rel(got: np.ndarray, want: np.ndarray) -> float:
    return spectral_norm(got - want) / spectral_norm(want)


def _candidates(h_min: np.ndarray, h_max: np.ndarray) -> list[np.ndarray]:
    """H_min, H_max, three mixtures (inside RI) and half of H_min (outside
    it for a strictly passive system)."""
    return [h_min, h_max, 0.5 * h_min] + [
        (1.0 - lam) * h_min + lam * h_max for lam in (0.25, 0.5, 0.75)
    ]


GROUPS = ["zoo", "random", "lossless"]


def test_groups_are_populated():
    # 48 zoo systems, 16 random draws and the lossless draws of seeds 0-11
    assert [len(_systems(group)) for group in GROUPS] == [48, 16, 12]


@pytest.mark.parametrize("group", GROUPS)
def test_in_ri_agrees_under_every_transform(group):
    for sigma, h_min, h_max, transforms in _cases(group):
        candidates = _candidates(h_min, h_max)
        verdicts = [membership(sigma, h, tol=TOL) for h in candidates]
        for name, other, to_other in transforms:
            for h, verdict in zip(candidates, verdicts):
                moved = membership(other, to_other(h), tol=TOL)
                if verdict.diagnostics.boundary_case or moved.diagnostics.boundary_case:
                    continue
                assert moved.in_ri == verdict.in_ri, name


@pytest.mark.parametrize("group", GROUPS)
def test_extremes_map_by_the_transform(group):
    for _, h_min, h_max, transforms in _cases(group):
        for name, other, to_other in transforms:
            for solve, h in ((minimal_solution, h_min), (maximal_solution, h_max)):
                got = solve(other).matrix
                bound = 1e-12 * np.linalg.cond(h)
                assert _rel(got, to_other(h)) <= bound, (name, solve)


@pytest.mark.parametrize("group", GROUPS)
def test_analyze_agrees_under_every_transform(group):
    # the uniqueness verdict and reason everywhere; the passivity margin
    # and the circle defects off the lossless group, whose defects are
    # roundoff in ||A||
    for sigma, _, _, transforms in _cases(group):
        want = _analyze_payload(sigma, TOL, GRID)
        unique = want["uniqueness"]
        lossless = group == "lossless"
        assert unique.verdict.value == ("unique_singleton" if lossless else "unknown")
        for name, other, _ in transforms:
            got = _analyze_payload(other, TOL, GRID)
            assert (got["uniqueness"].verdict, got["uniqueness"].reason) == (
                unique.verdict, unique.reason), name
            if lossless:
                continue
            margins = got["passivity"].margin, want["passivity"].margin
            assert abs(margins[0] - margins[1]) <= 1e-12, name
            for side in ("max_defect_right", "max_defect_left"):
                defects = got["circle"][side], want["circle"][side]
                assert abs(defects[0] - defects[1]) <= 1e-12, (name, side)


# -- hypothesis draws ---------------------------------------------------------

# a strictly passive minimal draw, one transform and the seed of its unitaries
DRAWS = dict(
    sigma=strictly_passive_minimal(),
    name=st.sampled_from(list(TRANSFORMS)),
    seed=st.integers(0, 2**32 - 1),
)


@settings(max_examples=200, deadline=None)
@given(**DRAWS)
def test_drawn_extremes_and_in_ri_agree_under_a_transform(sigma, name, seed):
    # one property per draw for both, so that each draw solves its extremes once
    other, to_other = _transformed(sigma, np.random.default_rng(seed), name)
    extremes = minimal_solution(sigma).matrix, maximal_solution(sigma).matrix
    for solve, h in zip((minimal_solution, maximal_solution), extremes):
        assert _rel(solve(other).matrix, to_other(h)) <= 1e-12 * np.linalg.cond(h), solve
    candidates = _candidates(*extremes)
    # each side's candidates in one kernel call, as a report checks its own
    verdicts = _memberships(sigma, candidates, tol=TOL)
    moved = _memberships(other, [to_other(h) for h in candidates], tol=TOL)
    for want, got in zip(verdicts, moved):
        if not (want.diagnostics.boundary_case or got.diagnostics.boundary_case):
            assert got.in_ri == want.in_ri


@settings(max_examples=200, deadline=None)
@given(**DRAWS)
def test_drawn_uniqueness_verdict_agrees_under_a_transform(sigma, name, seed):
    other, _ = _transformed(sigma, np.random.default_rng(seed), name)
    want, got = (
        uniqueness_certificate(s, circle_profile(s, grid_steps=GRID))
        for s in (sigma, other)
    )
    assert (got.verdict, got.reason) == (want.verdict, want.reason)
