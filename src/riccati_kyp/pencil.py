"""The extended symplectic pencil of the Riccati equality, and the equality
solutions read off its deflating subspaces.

The equality ``alpha(H) = beta(H)* pinv(delta(H)) beta(H)`` is, wherever
delta(H) is invertible, the discrete algebraic Riccati equation with
``Q = C*C``, ``R = D*D - I`` and ``S = C*D``. Its extended pencil
``M - lambda N`` has

    M = [[A, 0, B], [-C*C, I, -C*D], [D*C, 0, D*D - I]]
    N = [[I, 0, 0], [0, A*, 0], [0, -B*, 0]]

of size 2n + m. Its spectrum is symmetric under lambda -> 1/conj(lambda),
and every Hermitian solution is ``X = V2 V1^{-1}`` for an n-dimensional
deflating subspace ``[V1; V2; V3]`` that takes one eigenvalue from each
(lambda, 1/conj(lambda)) pair (Van Dooren, SIAM J. Sci. Stat. Comput. 1981;
Lancaster and Rodman, Algebraic Riccati Equations, 1995). Taking the
eigenvalues inside the disc gives the minimal solution, taking those
outside gives the maximal one.

The partner of a zero eigenvalue is an infinite one. Since
``det M = det(D*D - I) det F``, a zero eigenvalue appears exactly when
``F = A + B (I - D*D)^{-1} D*C`` is singular; the scalar interval example
has F = 0. An infinite eigenvector has ``N v = 0``, so ``V1 = 0`` there,
and every solution keeps the zero eigenvalue. Taking every other
eigenvalue outside then gives the largest equality solution, while the
maximal inequality member is a point where delta(H) is singular and the
equality fails (3/4 on the scalar interval example, whose equality set is
{3/64}).

:func:`equality_candidates` runs one generalized eigenvalue problem and
returns the candidates of its 2**(n - z) selections as one stack when the
pencil *decides* the equality set, and None otherwise. The pencil decides
when it is regular (no homogeneous eigenvalue pair (alpha, beta) with both
parts negligible), has, for some z, exactly 2n - z finite eigenvalues of
which z are zero (``|alpha|`` negligible against ``|beta|``, the mirror of
the test for an infinite one) and m + z infinite ones, no eigenvalue within
``CIRCLE_GAP`` of the unit circle, and n inside eigenvalues whose nonzero
ones are distinct and have all their partners present. Zero eigenvalues
may coincide, since a zero pair never flips: every selection keeps all z
of them. A selection whose V1 is singular is dropped; it stands for a
solution that is infinite on an uncontrollable direction, so on a minimal
system none is. Lossless systems (a singular pencil) and Popov functions
that vanish on the circle (circle eigenvalues) are not decided.
:func:`extremal` pairs nothing: one ordered
QZ decomposition gives the minimal solution of every regular pencil, and
the eigenvalues for the Schur-class test. Its answer is a fact of the
realization, decided once and kept by it
(:func:`riccati_kyp.systems._memo`): the solver reads it first, and tests
a system for losslessness by its Stein equation only when it is None, since
a lossless system has a singular pencil. Both functions import
``scipy.linalg`` inside, so that importing the package does not load it.
"""

from __future__ import annotations

import numpy as np

from .linops import hermitian_part
from .systems import SystemRealization, _memo

__all__ = ["CIRCLE_GAP", "equality_candidates", "extremal"]

CIRCLE_GAP = 1e-6  # least distance | |lambda| - 1 | of an eigenvalue off the circle
PENCIL_TOL = 1e-8  # relative size of a negligible (alpha, beta) part, of a
# pair mismatch and of the gap below which two eigenvalues coincide


def _extended_pencil(sigma: SystemRealization) -> tuple[np.ndarray, np.ndarray]:
    """The matrices ``(M, N)`` of the extended pencil ``M - lambda N``, each
    block written into its slice of a zeroed complex array."""
    a, b, c, d = sigma.a, sigma.b, sigma.c, sigma.d
    n, m = sigma.state_dim, sigma.input_dim
    ch, dh = c.conj().T, d.conj().T
    size = 2 * n + m
    big_m = np.zeros((size, size), dtype=complex)
    big_n = np.zeros((size, size), dtype=complex)
    big_m[:n, :n] = a
    big_m[:n, 2 * n :] = b
    big_m[n : 2 * n, :n] = -ch @ c
    big_m[n : 2 * n, 2 * n :] = -ch @ d
    big_m[2 * n :, :n] = dh @ c
    big_m[2 * n :, 2 * n :] = dh @ d - np.eye(m)
    big_m[n : 2 * n, n : 2 * n] = np.eye(n)
    big_n[:n, :n] = np.eye(n)
    big_n[n : 2 * n, n : 2 * n] = a.conj().T
    big_n[2 * n :, n : 2 * n] = -b.conj().T
    return big_m, big_n


def _relative_parts(alpha: np.ndarray, beta: np.ndarray, big_m, big_n):
    """``|alpha| / max(1, ||M||)`` and ``|beta| / max(1, ||N||)``, or None
    when the pencil is singular: both parts of a pair at most PENCIL_TOL."""
    rel_alpha = np.abs(alpha) / max(np.linalg.norm(big_m), 1.0)
    rel_beta = np.abs(beta) / max(np.linalg.norm(big_n), 1.0)
    if (np.maximum(rel_alpha, rel_beta) <= PENCIL_TOL).any():
        return None
    return rel_alpha, rel_beta


def _solution(v: np.ndarray, n: int) -> np.ndarray | None:
    """``herm(V2 V1^{-1})`` of the columns ``[V1; V2; V3]`` of v, or of each
    on a stack, solved as ``V1^T X^T = V2^T``; None when a V1 is singular."""
    v = v.swapaxes(-1, -2)
    try:
        x = np.linalg.solve(v[..., :n], v[..., n : 2 * n]).swapaxes(-1, -2)
    except np.linalg.LinAlgError:
        return None
    return hermitian_part(x)


def _pairs(alpha: np.ndarray, beta: np.ndarray, n: int, rel_alpha, rel_beta):
    """Indices ``(inside, outside)`` of the n (lambda, 1/conj(lambda)) pairs,
    inside ordered by real part and then imaginary part of lambda, or None
    when the pencil does not decide (see the module docstring). A zero
    eigenvalue pairs with an infinite one; its outside index is -1."""
    finite = rel_beta > PENCIL_TOL * rel_alpha
    zero = rel_alpha <= PENCIL_TOL * rel_beta
    if int(finite.sum()) != 2 * n - int(zero.sum()):  # the other m + z are infinite
        return None
    index = np.flatnonzero(finite)
    lam = np.where(zero[index], 0.0, alpha[index] / beta[index])
    radius = np.abs(lam)
    if (np.abs(radius - 1.0) <= CIRCLE_GAP).any():
        return None
    inside, outside = index[radius < 1.0], index[radius > 1.0]
    lam_in, lam_out = lam[radius < 1.0], lam[radius > 1.0]
    if len(inside) != n:
        return None
    order = np.lexsort((lam_in.imag, lam_in.real))
    inside, lam_in = inside[order], lam_in[order]
    paired = ~zero[inside]
    k = int(paired.sum())  # n - z
    if k > 1:  # zero eigenvalues never flip, so only the others must differ
        nonzero = lam_in[paired]
        gaps = np.abs(nonzero[:, None] - nonzero[None, :]) + np.eye(k)
        if gaps.min() <= PENCIL_TOL:
            return None
    partner = np.full(n, -1)
    if k:
        target = 1.0 / lam_in[paired].conj()
        mismatch = np.abs(target[:, None] - lam_out[None, :]) / np.abs(target)[:, None]
        match = mismatch.argmin(axis=1)
        if len(set(match.tolist())) != k or (mismatch[range(k), match] > PENCIL_TOL).any():
            return None
        partner[paired] = outside[match]
    return inside, partner


def equality_candidates(
    sigma: SystemRealization,
) -> tuple[np.ndarray, list[str], int] | None:
    """The Hermitian equality solutions of a decided pencil with z zero
    eigenvalues, one per selection of one eigenvalue from each pair, or
    None.

    Returns the stack ``herm(V2 V1^{-1})`` of the selections whose V1 is
    invertible, one label per stacked selection, and the number 2**(n - z)
    of selections. A label is a string of n digits, digit k ``0`` when pair
    k (ordered as in :func:`_pairs`) gives its eigenvalue inside the disc
    and ``1`` when it gives the one outside. The digit of a pair of a zero
    and an infinite eigenvalue is always ``0``. Selection ``00...0`` is the
    minimal solution, and the last selection, every other digit ``1``, the
    largest. All selections are solved in one batch; when a V1 of the batch
    is singular, each is solved alone and the singular ones are dropped.
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
    rel = _relative_parts(alpha, beta, big_m, big_n)
    pairs = None if rel is None else _pairs(alpha, beta, n, *rel)
    if pairs is None:
        return None
    inside, outside = pairs
    free = np.flatnonzero(outside >= 0)  # a zero pair keeps its digit at 0
    k = len(free)
    bits = np.zeros((2**k, n), dtype=int)
    bits[:, free] = (np.arange(2**k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    chosen = vectors[:, np.where(bits == 1, outside, inside)].transpose(1, 0, 2)
    labels = ["".join(map(str, r)) for r in bits.tolist()]
    x = _solution(chosen, n)
    if x is None:
        alone = [_solution(v, n) for v in chosen]
        kept = [i for i, solved in enumerate(alone) if solved is not None]
        x = np.array([alone[i] for i in kept]).reshape(len(kept), n, n)
        labels = [labels[i] for i in kept]
    return x, labels, 2**k


@_memo
def extremal(sigma: SystemRealization) -> tuple[np.ndarray, np.ndarray] | None:
    """``(herm(V2 V1^{-1}), lam)`` from the leading n Schur vectors of one
    ordered QZ decomposition, which span the deflating subspace of the
    eigenvalues inside the unit circle (Van Dooren 1981), with lam the
    finite eigenvalues; None when QZ fails or the pencil or V1 is singular.
    A transfer norm of 1 on the circle splits each double circle eigenvalue
    across it by roundoff, and the candidate, not validated here, is then
    the minimal solution to about the square root of the working precision.
    Decided once per realization (:func:`riccati_kyp.systems._memo`), with
    both arrays read-only."""
    import scipy.linalg

    n = sigma.state_dim
    big_m, big_n = _extended_pencil(sigma)
    try:
        _, _, alpha, beta, _, z = scipy.linalg.ordqz(
            big_m, big_n, sort="iuc", output="complex"
        )
    except (np.linalg.LinAlgError, ValueError):  # QZ or its reordering failed
        return None
    rel = _relative_parts(alpha, beta, big_m, big_n)
    x = None if rel is None else _solution(z[:, :n], n)
    if x is None:
        return None
    finite = rel[1] > PENCIL_TOL * rel[0]
    lam = alpha[finite] / beta[finite]
    x.flags.writeable = lam.flags.writeable = False
    return x, lam
