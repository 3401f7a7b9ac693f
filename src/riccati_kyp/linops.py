"""Hermitian matrix primitives.

PSD square roots and pseudo-inverses via eigendecomposition, the one
positive-definiteness test of a weight (:func:`_pd_mask`), minimal-contraction
factorization of nonnegative 2x2 block operators with the associated Schur
complement, a brute-force infimum oracle for that complement, and Loewner-order
comparison.

All operations are pure: they never mutate their inputs and are deterministic
given inputs and tolerances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionMismatch, NotNonneg, NotPD, NotPSD, RangeViolation

__all__ = [
    "hermitian_part",
    "ensure_hermitian",
    "spectral_norm",
    "psd_sqrt",
    "psd_pseudo_inverse",
    "psd_rank",
    "range_projector",
    "sqrt_pinv_commute_check",
    "Loewner",
    "loewner_compare",
    "BlockNonneg",
    "SchurFactorization",
    "minimal_contraction",
    "brute_force_infimum",
]

EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)
RESIDUAL_TOL = 1e-8  # minimal_contraction: admissible factorization residual
HERMITIAN_TOL = 1e-12  # ensure_hermitian: admissible relative deviation from a*
PD_TOL = 1e-12  # relative eigenvalue floor of a positive-definite weight


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (a + a*) / 2 as a complex array, per matrix on a stack."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value; 0.0 for empty matrices."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def _spectral_norms(a: np.ndarray) -> np.ndarray:
    """:func:`spectral_norm` of each matrix on a stack: the largest of the
    same singular values, and 0.0 for empty matrices."""
    if 0 in a.shape[-2:]:
        return np.zeros(a.shape[:-2])
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def _least_and_norm(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least eigenvalue and 2-norm ``max(-lambda_min, lambda_max)`` of each
    Hermitian matrix on a stack (or of one), from one ``eigvalsh``; +inf
    and 0.0 for an empty matrix."""
    w = np.linalg.eigvalsh(a)
    if not w.shape[-1]:
        return np.full(w.shape[:-1], np.inf), np.zeros(w.shape[:-1])
    return w[..., 0], np.maximum(-w[..., 0], w[..., -1])


def ensure_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate finiteness and Hermitian symmetry and return the symmetrized
    matrix.

    The admissible deviation of ``a - a*`` is ``HERMITIAN_TOL`` relative to
    the largest absolute entry (at least to an absolute unit scale).

    Parameters
    ----------
    a : array_like
        Square matrix.

    Raises
    ------
    DimensionMismatch
        If ``a`` is not square.
    ValueError
        If an entry is NaN or infinite, as for a SystemRealization.
    NotHermitian
        If the deviation exceeds the tolerance.
    """
    from .errors import NotHermitian

    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    # a complex entry is finite when both of its parts are
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    if a.size:
        scale = max(1.0, float(np.abs(a).max()))
        dev = float(np.abs(a - a.conj().T).max())
        if dev > HERMITIAN_TOL * scale:
            raise NotHermitian(
                f"matrix deviates from Hermitian symmetry by {dev:.3e} "
                f"(tolerance {HERMITIAN_TOL * scale:.3e})"
            )
    return hermitian_part(a)


def _pd_mask(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ascending eigenvalues ``w`` (from ``eigh``) of a stack of
    weights: whether every eigenvalue exceeds ``PD_TOL`` times the norm, and
    the least eigenvalue (NaN for an empty weight, which is not PD). This is
    the one positive-definiteness test of the package: storage operators,
    membership and dissipation margins all refuse a weight by it."""
    if w.shape[-1] == 0:
        return np.zeros(len(w), dtype=bool), np.full(len(w), np.nan)
    low = w[:, 0]
    return low > PD_TOL * np.maximum(np.abs(w).max(axis=-1), 1.0), low


def _not_pd(low: float) -> NotPD:
    """The NotPD of a weight whose least eigenvalue is ``low``."""
    return NotPD(
        f"storage operator must be positive definite (smallest eigenvalue {low:.3e})"
    )


def default_rank_tol(a: np.ndarray) -> float:
    """Default relative rank tolerance: dim * machine epsilon."""
    return a.shape[0] * EPS


def _kept(w: np.ndarray, rank_tol: float, magnitude: bool = False) -> np.ndarray:
    """Mask of the eigenvalues (ascending, last axis) above ``rank_tol``
    times the largest one clamped at zero, or with ``magnitude`` (indefinite
    input) of the moduli above ``rank_tol`` times the largest modulus. An
    eigenvalue at or below the smallest normal float is never kept, so
    inverting the kept ones cannot overflow."""
    size = np.abs(w) if magnitude else w
    cut = rank_tol * size.max(axis=-1, initial=0.0, keepdims=True)
    return size > np.maximum(cut, TINY)


def _eigh_kept(a: np.ndarray, rank_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unvalidated ``(w, v, kept)`` of a Hermitian matrix, or of each on a
    stack, with ``kept`` from :func:`_kept`."""
    w, v = np.linalg.eigh(a)
    return w, v, _kept(w, rank_tol)


def _pinv_kept(w: np.ndarray, v: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """``v diag(1/w) v*`` over the kept eigenvalues, zero elsewhere, per
    matrix on a stack."""
    inv_w = np.where(kept, 1.0 / np.where(kept, w, 1.0), 0.0)
    return hermitian_part((v * inv_w[..., None, :]) @ v.conj().swapaxes(-1, -2))


def _projector_kept(v: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the span of the kept eigenvectors (the
    columns of ``v`` where ``kept`` holds) of one Hermitian matrix."""
    vk = v[:, kept]
    return hermitian_part(vk @ vk.conj().T)


def _psd_spectral(a: np.ndarray, rank_tol: float | None):
    """Validated eigendecomposition of a PSD Hermitian matrix.

    Returns ``(w, v, kept)`` from :func:`_eigh_kept` with negatives in ``w``
    clamped to zero, and raises NotPSD when an eigenvalue lies below
    ``-rank_tol * max(norm, 1)``.
    """
    a = ensure_hermitian(a)
    if rank_tol is None:
        rank_tol = default_rank_tol(a)
    w, v, kept = _eigh_kept(a, rank_tol)
    floor = rank_tol * max(float(np.abs(w).max(initial=0.0)), 1.0)
    if w.size and float(w[0]) < -floor:
        raise NotPSD(
            f"smallest eigenvalue {float(w[0]):.3e} below the admissible floor "
            f"{-floor:.3e}"
        )
    return np.clip(w, 0.0, None), v, kept


def psd_sqrt(a: np.ndarray, rank_tol: float | None = None) -> np.ndarray:
    """Unique PSD square root of a PSD Hermitian matrix.

    Negative eigenvalues within ``rank_tol`` of zero (roundoff from congruence
    products) are clamped to zero; anything lower raises NotPSD. Eigenvalues
    at or below the rank cut are treated as exact zeros so that rank
    decisions stay aligned with :func:`psd_pseudo_inverse` (the truncation
    changes the squared reconstruction by at most the cut itself).
    """
    w, v, kept = _psd_spectral(a, rank_tol)
    return hermitian_part((v * np.where(kept, np.sqrt(w), 0.0)) @ v.conj().T)


def psd_pseudo_inverse(a: np.ndarray, rank_tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a PSD Hermitian matrix.

    Eigenvalues above ``rank_tol * lam_max`` are inverted, the rest are
    zeroed, so the zero matrix maps to the zero matrix and
    ``a @ psd_pseudo_inverse(a)`` is the orthogonal projection onto the range
    of ``a``.
    """
    return _pinv_kept(*_psd_spectral(a, rank_tol))


def psd_rank(a: np.ndarray, rank_tol: float | None = None) -> int:
    """Numerical rank of a PSD Hermitian matrix."""
    _, _, kept = _psd_spectral(a, rank_tol)
    return int(np.count_nonzero(kept))


def range_projector(a: np.ndarray, rank_tol: float | None = None) -> np.ndarray:
    """Orthogonal projector onto the range of a PSD Hermitian matrix."""
    _, v, kept = _psd_spectral(a, rank_tol)
    return _projector_kept(v, kept)


def sqrt_pinv_commute_check(a: np.ndarray, rank_tol: float | None = None) -> float:
    """Norm of ``pinv(sqrt(a)) - sqrt(pinv(a))``.

    Both sides agree exactly in real arithmetic; the returned value measures
    the floating-point discrepancy, of order ``eps * sqrt(kappa / lam)`` with
    ``lam`` the least kept eigenvalue and ``kappa`` the kept condition number.
    """
    left = psd_pseudo_inverse(psd_sqrt(a, rank_tol), rank_tol)
    right = psd_sqrt(psd_pseudo_inverse(a, rank_tol), rank_tol)
    return spectral_norm(left - right)


class Loewner(Enum):
    """Outcome of a semidefinite-order comparison."""

    LESS_EQUAL = "less_equal"
    GREATER_EQUAL = "greater_equal"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def loewner_compare(h1: np.ndarray, h2: np.ndarray, tol: float = 1e-10) -> Loewner:
    """Compare two Hermitian matrices in the semidefinite (Loewner) order.

    Returns EQUAL when ``||h1 - h2|| <= tol``, LESS_EQUAL when ``h2 - h1`` is
    PSD within ``tol``, GREATER_EQUAL symmetrically, else INCOMPARABLE.
    """
    h1 = ensure_hermitian(h1)
    h2 = ensure_hermitian(h2)
    if h1.shape != h2.shape:
        raise DimensionMismatch(f"shapes {h1.shape} and {h2.shape} differ")
    le, ge = _loewner_masks(h1, h2[None], tol)
    return _LOEWNER_TABLE[bool(le[0])][bool(ge[0])]


# the verdict of the masks (le, ge) of a pair, as _LOEWNER_TABLE[le][ge]
_LOEWNER_TABLE = (
    (Loewner.INCOMPARABLE, Loewner.GREATER_EQUAL),
    (Loewner.LESS_EQUAL, Loewner.EQUAL),
)


def _loewner_masks(h1: np.ndarray, h2: np.ndarray, tol) -> tuple[np.ndarray, np.ndarray]:
    """The masks ``(le, ge)`` of ``h1`` against each matrix on the nonempty
    Hermitian stack ``h2``: ``le`` when ``h2 - h1`` is PSD within ``tol``
    (``lambda_min >= -tol``) and ``ge`` when ``h1 - h2`` is
    (``lambda_max <= tol``). ``h1`` may be a stack of the same length,
    compared pair by pair, and ``tol`` one tolerance per pair.

    One ``eigvalsh`` of the stack of differences decides every pair. The
    spectral norm of a Hermitian matrix is ``max(-lambda_min, lambda_max)``,
    so the EQUAL test ``||h1 - h2|| <= tol`` is exactly ``le & ge``.
    """
    w = np.linalg.eigvalsh(h2 - h1)
    return w[:, 0] >= -tol, w[:, -1] <= tol


@dataclass
class BlockNonneg:
    """A Hermitian 2x2 block operator ``[[alpha, beta], [beta*, delta]]``.

    ``alpha`` acts on the state-side space, ``delta`` on the input-side space,
    and ``beta`` maps the input side into the state side.
    """

    alpha: np.ndarray
    beta: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        self.alpha = ensure_hermitian(self.alpha)
        self.delta = ensure_hermitian(self.delta)
        self.beta = np.atleast_2d(np.asarray(self.beta, dtype=complex))
        n, m = self.alpha.shape[0], self.delta.shape[0]
        if self.beta.shape != (n, m):
            raise DimensionMismatch(
                f"off-diagonal block has shape {self.beta.shape}, expected {(n, m)}"
            )

    @property
    def state_dim(self) -> int:
        return self.alpha.shape[0]

    @property
    def input_dim(self) -> int:
        return self.delta.shape[0]

    def assembled(self) -> np.ndarray:
        """The full (n+m) x (n+m) Hermitian matrix."""
        return hermitian_part(
            np.block([[self.alpha, self.beta], [self.beta.conj().T, self.delta]])
        )


@dataclass
class SchurFactorization:
    """Minimal contraction ``gamma`` and Schur complement of a nonnegative
    block operator.

    ``gamma`` annihilates the kernel of ``alpha``, maps into the range of
    ``delta``, and satisfies ``beta* = sqrt(delta) @ gamma @ sqrt(alpha)``.
    ``complement`` is ``sqrt(alpha) @ (I - gamma* gamma) @ sqrt(alpha)``.
    """

    gamma: np.ndarray
    complement: np.ndarray
    rank_alpha: int
    rank_delta: int


def minimal_contraction(
    block: BlockNonneg, rank_tol: float | None = None
) -> SchurFactorization:
    """Factor a nonnegative block operator through its minimal contraction.

    The contraction is materialized explicitly with range and kernel
    projections applied, which makes its uniqueness directly testable.

    Raises
    ------
    NotNonneg
        If the assembled operator has an eigenvalue below the PSD floor.
    RangeViolation
        If the off-diagonal block does not factor to working precision,
        which signals the operator was not PSD to that precision.
    """
    t = block.assembled()
    if rank_tol is None:
        rank_tol = default_rank_tol(t)
    wt = np.linalg.eigvalsh(t)
    norm_t = float(np.abs(wt).max()) if wt.size else 0.0
    if wt.size and float(wt[0]) < -rank_tol * max(norm_t, 1.0):
        raise NotNonneg(
            f"assembled block operator has eigenvalue {float(wt[0]):.3e} "
            f"below the PSD floor"
        )

    # Spectral data of the diagonal blocks; negatives (certified tiny by the
    # check above) are treated as zero.
    factors = []
    for part in (block.alpha, block.delta):
        w, v, kept = _eigh_kept(part, rank_tol)
        sqrt_w = np.where(kept, np.sqrt(np.clip(w, 0.0, None)), 0.0)
        sqrt_m = hermitian_part((v * sqrt_w) @ v.conj().T)
        pinv_m = _pinv_kept(sqrt_w, v, kept)
        factors.append((sqrt_m, pinv_m, _projector_kept(v, kept), int(kept.sum())))
    sqrt_a, pinv_sqrt_a, proj_a, rank_a = factors[0]
    sqrt_d, pinv_sqrt_d, proj_d, rank_d = factors[1]

    beta_star = block.beta.conj().T
    gamma = proj_d @ (pinv_sqrt_d @ beta_star @ pinv_sqrt_a) @ proj_a

    residual = spectral_norm(beta_star - sqrt_d @ gamma @ sqrt_a)
    if residual > RESIDUAL_TOL * (1.0 + norm_t):
        raise RangeViolation(
            f"off-diagonal block does not factor (residual {residual:.3e}); "
            f"the operator is not PSD to working precision"
        )

    eye = np.eye(block.state_dim)
    complement = hermitian_part(sqrt_a @ (eye - gamma.conj().T @ gamma) @ sqrt_a)
    return SchurFactorization(
        gamma=gamma, complement=complement, rank_alpha=rank_a, rank_delta=rank_d
    )


def brute_force_infimum(
    block: BlockNonneg,
    x: np.ndarray,
    grid_radius: float = 2.0,
    grid_steps: int = 3,
    rank_tol: float | None = None,
) -> float:
    """Infimum over u of the quadratic form ``<T [x; u], [x; u]>``.

    Independent oracle for the Schur complement: evaluates the form on a
    coarse per-axis grid of u (complex axes split into real and imaginary
    parts) and at the closed-form stationary point of the u-quadratic, and
    returns the smallest value found. A pure grid cannot reach 1e-6 accuracy
    in four input dimensions; the stationary point supplies the precision
    while the grid guards it.
    """
    t = block.assembled()
    if rank_tol is None:
        rank_tol = default_rank_tol(t)
    wt = np.linalg.eigvalsh(t)
    norm_t = float(np.abs(wt).max()) if wt.size else 0.0
    if wt.size and float(wt[0]) < -rank_tol * max(norm_t, 1.0):
        raise NotNonneg("block operator is not nonnegative")

    x = np.asarray(x, dtype=complex).reshape(-1)
    if x.shape[0] != block.state_dim:
        raise DimensionMismatch(
            f"x has length {x.shape[0]}, expected {block.state_dim}"
        )
    m = block.input_dim
    alpha, beta, delta = block.alpha, block.beta, block.delta

    const = float(np.real(x.conj() @ alpha @ x))
    lin = x.conj() @ beta  # row functional: <x, beta u> = lin @ u

    def evaluate(stack: np.ndarray) -> np.ndarray:
        quad = np.real(np.einsum("ki,ki->k", stack.conj(), stack @ delta.T))
        cross = 2.0 * np.real(stack @ lin)
        return const + cross + quad

    candidates = [np.zeros((1, m), dtype=complex)]

    # Closed-form stationary point: u = -pinv(delta) beta* x. For invertible
    # delta this is the exact minimizer.
    u_star = -psd_pseudo_inverse(delta, rank_tol) @ (beta.conj().T @ x)
    candidates.append(u_star.reshape(1, m))

    if grid_steps >= 2 and m > 0:
        axis = np.linspace(-grid_radius, grid_radius, grid_steps)
        data_real = (
            float(np.abs(alpha.imag).max(initial=0.0)) == 0.0
            and float(np.abs(beta.imag).max(initial=0.0)) == 0.0
            and float(np.abs(delta.imag).max(initial=0.0)) == 0.0
            and float(np.abs(x.imag).max(initial=0.0)) == 0.0
        )
        dims = m if data_real else 2 * m
        pts = np.array(list(itertools.product(axis, repeat=dims)))
        if data_real:
            grid = pts.astype(complex)
        else:
            grid = pts[:, :m] + 1j * pts[:, m:]
        candidates.append(grid)

    best = min(float(evaluate(stack).min()) for stack in candidates)
    return best
