"""The extended symplectic pencil of the Riccati equality, and the equality
solutions read off its deflating subspaces.

The equality ``alpha(H) = beta(H)* pinv(delta(H)) beta(H)`` is, wherever
delta(H) is invertible, the discrete algebraic Riccati equation with
``Q = C*C``, ``R = D*D - I`` and ``S = C*D``. Its extended pencil
``M - lambda N`` has

    M = [[A, 0, B], [-C*C, I, -C*D], [D*C, 0, D*D - I]]
    N = [[I, 0, 0], [0, A*, 0], [0, -B*, 0]]

of size 2n + m. Its finite spectrum is symmetric under
lambda -> 1/conj(lambda), and every Hermitian solution is ``X = V2 V1^{-1}``
for an n-dimensional deflating subspace ``[V1; V2; V3]`` that takes one
eigenvalue from each (lambda, 1/conj(lambda)) pair (Van Dooren, SIAM J. Sci.
Stat. Comput. 1981; Lancaster and Rodman, Algebraic Riccati Equations, 1995).
Taking the eigenvalues inside the disc gives the minimal solution, taking
those outside gives the maximal one.

:func:`equality_candidates` runs one generalized eigenvalue problem and
returns the 2**n candidates as one stack when the pencil *decides* the
equality set, and None otherwise. The pencil decides when it is regular
(no homogeneous eigenvalue pair (alpha, beta) with both parts negligible),
has exactly 2n finite and m infinite eigenvalues, no eigenvalue within
``CIRCLE_GAP`` of the unit circle, n distinct inside eigenvalues whose
partners are all present, and an invertible V1 for every selection. Inner
and co-inner systems (a singular pencil) and systems whose Popov function
vanishes on the circle (circle eigenvalues) are not decided. A lossless
system's one equality solution comes instead from a Stein equation
(``riccati_kyp.solver._lossless_solution``), and the rest goes to Newton in
``solve_re`` and to the fixed-point iteration in ``minimal_solution``.
Selection ``00...0`` is the candidate that ``minimal_solution`` certifies by
its closed-loop spectral radius.

``scipy.linalg`` is imported inside :func:`equality_candidates`, so that
importing the package, and commands that solve nothing, do not load it.
"""

from __future__ import annotations

import numpy as np

from .linops import hermitian_part
from .systems import SystemRealization

__all__ = ["CIRCLE_GAP", "equality_candidates"]

CIRCLE_GAP = 1e-6  # least distance | |lambda| - 1 | of a decided eigenvalue
PENCIL_TOL = 1e-8  # relative size of a negligible (alpha, beta) part, of a
# pair mismatch and of the gap below which two eigenvalues coincide


def _extended_pencil(sigma: SystemRealization) -> tuple[np.ndarray, np.ndarray]:
    """The matrices ``(M, N)`` of the extended pencil ``M - lambda N``."""
    a, b, c, d = sigma.a, sigma.b, sigma.c, sigma.d
    n, m = sigma.state_dim, sigma.input_dim
    eye_n, zero_n, zero_nm = np.eye(n), np.zeros((n, n)), np.zeros((n, m))
    ch = c.conj().T
    big_m = np.block(
        [
            [a, zero_n, b],
            [-ch @ c, eye_n, -ch @ d],
            [d.conj().T @ c, zero_nm.T, d.conj().T @ d - np.eye(m)],
        ]
    )
    big_n = np.block(
        [
            [eye_n, zero_n, zero_nm],
            [zero_n, a.conj().T, zero_nm],
            [zero_nm.T, -b.conj().T, np.zeros((m, m))],
        ]
    )
    return big_m.astype(complex), big_n.astype(complex)


def _pairs(alpha: np.ndarray, beta: np.ndarray, n: int, scales):
    """Indices ``(inside, outside)`` of the n (lambda, 1/conj(lambda)) pairs,
    inside ordered by real part and then imaginary part of lambda, or None
    when the pencil does not decide (see the module docstring)."""
    rel_alpha, rel_beta = np.abs(alpha) / scales[0], np.abs(beta) / scales[1]
    if (np.maximum(rel_alpha, rel_beta) <= PENCIL_TOL).any():
        return None  # singular pencil
    finite = rel_beta > PENCIL_TOL * rel_alpha
    if int(finite.sum()) != 2 * n:  # the other m are infinite
        return None
    index = np.flatnonzero(finite)
    lam = alpha[index] / beta[index]
    radius = np.abs(lam)
    if (np.abs(radius - 1.0) <= CIRCLE_GAP).any():
        return None
    inside, outside = index[radius < 1.0], index[radius > 1.0]
    lam_in, lam_out = lam[radius < 1.0], lam[radius > 1.0]
    if len(inside) != n:
        return None
    order = np.lexsort((lam_in.imag, lam_in.real))
    inside, lam_in = inside[order], lam_in[order]
    if n > 1:
        gaps = np.abs(lam_in[:, None] - lam_in[None, :]) + np.eye(n)
        if gaps.min() <= PENCIL_TOL:
            return None
    target = 1.0 / lam_in.conj()
    mismatch = np.abs(target[:, None] - lam_out[None, :]) / np.abs(target)[:, None]
    match = mismatch.argmin(axis=1)
    if len(set(match.tolist())) != n or (mismatch[range(n), match] > PENCIL_TOL).any():
        return None
    return inside, outside[match]


def equality_candidates(
    sigma: SystemRealization,
) -> tuple[np.ndarray, list[str]] | None:
    """The 2**n Hermitian equality solutions of a decided pencil, or None.

    Returns a (2**n, n, n) stack ``herm(V2 V1^{-1})``, one per selection of
    one eigenvalue from each pair, and one label per selection: a string of
    n digits, digit k ``0`` when pair k (ordered as in :func:`_pairs`) gives
    its eigenvalue inside the disc and ``1`` when it gives the one outside.
    Selection ``00...0`` is the minimal solution, ``11...1`` the maximal one.
    The candidates are not validated here.
    """
    import scipy.linalg

    n = sigma.state_dim
    big_m, big_n = _extended_pencil(sigma)
    try:
        (alpha, beta), vectors = scipy.linalg.eig(
            big_m, big_n, homogeneous_eigvals=True
        )
    except np.linalg.LinAlgError:  # the QZ iteration did not converge
        return None
    scales = (max(np.linalg.norm(big_m), 1.0), max(np.linalg.norm(big_n), 1.0))
    pairs = _pairs(alpha, beta, n, scales)
    if pairs is None:
        return None
    inside, outside = pairs
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    chosen = vectors[:, np.where(bits == 1, outside, inside)].transpose(1, 0, 2)
    v1, v2 = chosen[:, :n], chosen[:, n : 2 * n]
    try:
        # X = V2 V1^{-1}, solved as V1^T X^T = V2^T
        x = np.linalg.solve(v1.swapaxes(-1, -2), v2.swapaxes(-1, -2)).swapaxes(-1, -2)
    except np.linalg.LinAlgError:  # a selection whose V1 is singular
        return None
    labels = ["".join(map(str, row)) for row in bits.tolist()]
    return hermitian_part(x), labels
