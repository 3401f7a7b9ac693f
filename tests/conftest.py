"""Shared fixtures: the three worked example systems, random generators, an
allpass-cascade builder for inner transfer functions, the extremal
solutions from scipy's discrete Riccati solver, and a spy on the decisions
behind a realization's kept facts."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from riccati_kyp import (
    BlockNonneg,
    SystemRealization,
    adjoint,
    psd_sqrt,
    range_projector,
    spectral_norm,
    system_matrix,
)


@pytest.fixture
def scalar_interval_system() -> SystemRealization:
    """Scalar system whose equality set is the point 3/64 and whose
    inequality set is the interval [3/64, 3/4]."""
    return SystemRealization(-0.125, 1.0, 0.1875, 0.5)


@pytest.fixture
def two_state_system() -> SystemRealization:
    """Two-state passive system with exactly four equality solutions."""
    a, b = 3.0 / 5.0, 4.0 / 5.0
    return SystemRealization([[0, a], [b, 0]], [[0], [a]], [[0, b]], [[0]])


@pytest.fixture
def coisometry_system() -> SystemRealization:
    """One-state, two-input system whose block matrix is a co-isometry; its
    transfer function is co-inner but not inner."""
    return SystemRealization([[0.0]], [[1.0, 0.0]], [[1.0]], [[0.0, 0.0]])


def decisions(monkeypatch, decider) -> list:
    """The realizations that the memo of ``decider`` (a function wrapped by
    ``riccati_kyp.systems._memo``) hands to the decider behind it from now
    on: one entry per decision, none for a kept fact read back."""
    decide, calls = decider.__wrapped__, []

    def spy(sigma):
        calls.append(sigma)
        return decide(sigma)

    monkeypatch.setattr(decider, "__wrapped__", spy)
    return calls


def two_state_re_solutions() -> list[np.ndarray]:
    """The four closed-form equality solutions of the two-state example,
    ordered: identity, the two incomparable ones, the diagonal maximal one."""
    a, b = 3.0 / 5.0, 4.0 / 5.0
    off = (b - a) * np.sqrt(b / a)
    h2 = (1.0 / a**2) * np.array([[(1 - a * b) * (b / a), off], [off, 1 - a * b]])
    h3 = (1.0 / a**2) * np.array([[(1 - a * b) * (b / a), -off], [-off, 1 - a * b]])
    h4 = (1.0 / a**4) * np.diag([b**4, a**2 * b**2])
    return [np.eye(2), h2, h3, h4]


def random_realization(
    rng: np.random.Generator, n: int, m: int, p: int, passive_norm: float | None = None
) -> SystemRealization:
    """Random complex realization; when ``passive_norm`` is given, the block
    matrix is rescaled to that norm."""
    scale = 1.0 / np.sqrt(2.0 * n)
    mats = [
        scale * (rng.standard_normal(s) + 1j * rng.standard_normal(s))
        for s in ((n, n), (n, m), (p, n), (p, m))
    ]
    sigma = SystemRealization(*mats)
    if passive_norm is not None:
        factor = passive_norm / spectral_norm(system_matrix(sigma))
        sigma = SystemRealization(*(factor * mat for mat in mats))
    return sigma


def similar_realization(sigma: SystemRealization, t: np.ndarray) -> SystemRealization:
    """(T A T^-1, T B, C T^-1, D): the same transfer function, and in general
    a non-passive realization of it."""
    t = np.asarray(t, dtype=complex)
    t_inv = np.linalg.inv(t)
    return SystemRealization(t @ sigma.a @ t_inv, t @ sigma.b, sigma.c @ t_inv, sigma.d)


def grid_realization(seed: int, n: int, m: int, p: int, kappa: float) -> SystemRealization:
    """A random realization with block-matrix norm 0.9, so ||A|| < 1; for
    ``kappa > 1`` its similarity transform by Q diag(geomspace(1, kappa, n)) Q*
    with a random unitary Q, whose state operator is in general no
    contraction."""
    rng = np.random.default_rng(seed)
    sigma = random_realization(rng, n, m, p, passive_norm=0.9)
    if kappa == 1.0:
        return sigma
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return similar_realization(sigma, q @ np.diag(np.geomspace(1.0, kappa, n)) @ q.conj().T)


def unit_pole_realization(seed: int) -> tuple[SystemRealization, float]:
    """A minimal three-state realization whose dense state operator is A = Q
    diag(exp(1j theta), 0.5, -0.3j) Q* for a random unitary Q and a random
    angle theta, with random B and C and D = 0, and theta: its transfer
    function has the pole exp(-1j theta) on the unit circle."""
    rng = np.random.default_rng(seed)
    theta = float(rng.uniform(0.0, 2.0 * np.pi))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    a = q @ np.diag([np.exp(1j * theta), 0.5, -0.3j]) @ q.conj().T
    b = 0.3 * (rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)))
    c = 0.3 * (rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3)))
    return SystemRealization(a, b, c, np.zeros((1, 1))), theta


def nonnormal_realization(seed: int) -> SystemRealization:
    """A minimal three-state realization A = Q T Q* with a random unitary Q
    and T upper triangular with eigenvalues 0.9 exp(1j phi), 0.9 exp(1j (phi
    + 0.3)) and 0.5 exp(1j psi) for random angles, and T[0, 1] = 1e5, so
    that ||A|| is 1e5 while rho(A) is 0.9: the comparison-matrix screen of
    the transfer grid proves most points of the circle and of the disc but
    not those near the first two eigenvalues' angles. B and C couple to
    that pair through entries of 1e-8 and 1e-2 only, and D = 4, so the
    transfer values are well conditioned although the resolvents are not."""
    rng = np.random.default_rng(seed)
    phi = rng.uniform(0.0, 2.0 * np.pi, 3)
    mu = np.array([0.9, 0.9, 0.5]) * np.exp(1j * np.array([phi[0], phi[0] + 0.3, phi[2]]))
    t = np.diag(mu)
    t[0, 1] = 1e5
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    b = q @ np.array([[1e-2], [1e-8], [0.5]])
    c = np.array([[1e-8, 1e-2, 0.5]]) @ q.conj().T
    return SystemRealization(q @ t @ q.conj().T, b, c, np.full((1, 1), 4.0))


def exact_transfer(sigma: SystemRealization, lams: np.ndarray) -> np.ndarray:
    """``D + lam C (I - lam A)^{-1} B`` at each point, computed by mpmath at
    40 digits from the same double-precision data and rounded once, as a
    (k, p, m) stack: the exact reference for the transfer-grid kernel."""
    import mpmath

    with mpmath.workdps(40):
        a, b, c, d = (mpmath.matrix(mat.tolist()) for mat in (sigma.a, sigma.b, sigma.c, sigma.d))
        eye = mpmath.eye(sigma.state_dim)
        values = []
        for lam in lams:
            lam = mpmath.mpc(complex(lam))
            value = d + lam * c * mpmath.inverse(eye - lam * a) * b
            values.append([[complex(value[i, j]) for j in range(value.cols)]
                           for i in range(value.rows)])
    return np.array(values, dtype=complex)


def _relative(error: float, exact: np.ndarray) -> float:
    return float(error / max(np.abs(exact).max(), np.finfo(float).tiny))


def grid_error(values: np.ndarray, exact: np.ndarray) -> float:
    """Largest entry error of a value stack relative to the largest exact
    entry."""
    return _relative(np.abs(values - exact).max(), exact)


def grid_error_bound(sigma: SystemRealization, lams: np.ndarray, exact: np.ndarray) -> float:
    """First-order error bound of a backward-stable evaluation of the
    transfer values, relative to the largest exact entry: eps times the
    largest, over the points, of ``||D|| + |lam| (||C|| ||X|| + ||Y|| (||B||
    + |lam| ||A|| ||X||))`` with ``X = (I - lam A)^{-1} B`` and ``Y = C (I -
    lam A)^{-1}``, the change of ``D + lam C X`` under relative
    perturbations of A, B, C and D of size eps."""
    n = sigma.state_dim
    resolvents = np.eye(n)[None, :, :] - lams[:, None, None] * sigma.a[None, :, :]
    x = np.linalg.solve(resolvents, np.broadcast_to(sigma.b, (lams.size, n, sigma.input_dim)))
    yt = np.linalg.solve(
        resolvents.transpose(0, 2, 1), np.broadcast_to(sigma.c.T, (lams.size, n, sigma.output_dim))
    )
    x_norm = np.linalg.norm(x, 2, axis=(1, 2))
    y_norm = np.linalg.norm(yt, 2, axis=(1, 2))
    a, b, c, d = (spectral_norm(mat) for mat in (sigma.a, sigma.b, sigma.c, sigma.d))
    r = np.abs(lams)
    sensitivity = d + r * (c * x_norm + y_norm * (b + r * a * x_norm))
    return _relative(np.finfo(float).eps * sensitivity.max(), exact)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def random_pd(rng: np.random.Generator, n: int, floor: float = 0.1) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T / n + floor * np.eye(n)


def random_psd(rng: np.random.Generator, n: int, rank: int | None = None) -> np.ndarray:
    r = n if rank is None else rank
    g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    return g @ g.conj().T


def random_block_nonneg(
    rng: np.random.Generator, n: int, m: int, deficient: bool = False
) -> tuple[BlockNonneg, np.ndarray]:
    """A PSD block operator built from a known projected contraction, which
    the factorization must recover exactly. Returns (block, contraction)."""
    rank_a = int(rng.integers(1, n + 1)) if deficient else n
    rank_d = int(rng.integers(1, m + 1)) if deficient else m
    alpha = random_psd(rng, n, rank_a)
    delta = random_psd(rng, m, rank_d)
    proj_a = range_projector(alpha)
    proj_d = range_projector(delta)
    g = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    gamma = proj_d @ g @ proj_a
    norm = spectral_norm(gamma)
    if norm > 0:
        gamma = gamma * (float(rng.uniform(0.2, 0.95)) / norm)
    beta = (psd_sqrt(delta) @ gamma @ psd_sqrt(alpha)).conj().T
    return BlockNonneg(alpha=alpha, beta=beta, delta=delta), gamma


def allpass_section(zero: complex) -> SystemRealization:
    """Degree-one allpass factor with unitary block matrix; |zero| < 1."""
    zero = complex(zero)
    r = np.sqrt(1.0 - abs(zero) ** 2)
    return SystemRealization([[np.conj(zero)]], [[r]], [[r]], [[-zero]])


def cascade(first: SystemRealization, second: SystemRealization) -> SystemRealization:
    """Series connection: the output of ``first`` drives ``second``."""
    n1, n2 = first.state_dim, second.state_dim
    a = np.block(
        [[first.a, np.zeros((n1, n2))], [second.b @ first.c, second.a]]
    )
    b = np.vstack([first.b, second.b @ first.d])
    c = np.hstack([second.d @ first.c, second.c])
    d = second.d @ first.d
    return SystemRealization(a, b, c, d)


def blaschke_system(
    zeros: list[complex], similarity: np.ndarray | None = None
) -> SystemRealization:
    """Minimal realization of a finite product of allpass factors, optionally
    conjugated by a state-space similarity."""
    sigma = allpass_section(zeros[0])
    for zero in zeros[1:]:
        sigma = cascade(sigma, allpass_section(zero))
    if similarity is not None:
        sigma = similar_realization(sigma, similarity)
    return sigma


def random_similarity(rng: np.random.Generator, n: int, strength: float = 0.3) -> np.ndarray:
    return np.eye(n) + strength * (
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    )


def dare_minimal(sigma: SystemRealization) -> np.ndarray:
    """The stabilizing solution of scipy's DARE with Q = C*C, R = D*D - I
    and S = C*D, made Hermitian."""
    x = scipy.linalg.solve_discrete_are(
        sigma.a,
        sigma.b,
        sigma.c.conj().T @ sigma.c,
        sigma.d.conj().T @ sigma.d - np.eye(sigma.input_dim),
        s=sigma.c.conj().T @ sigma.d,
    )
    return 0.5 * (x + x.conj().T)


def dare_extremes(sigma: SystemRealization) -> tuple[np.ndarray, np.ndarray]:
    """(H_min, H_max) of a strictly passive minimal system: H_min is
    :func:`dare_minimal`, and H_max the inverse of the adjoint system's
    H_min."""
    h_max = np.linalg.inv(dare_minimal(adjoint(sigma)))
    return dare_minimal(sigma), 0.5 * (h_max + h_max.conj().T)
