"""Discrete-time linear system realizations.

A realization is the quadruple (A, B, C, D) of the recursion

    x[k+1] = A x[k] + B u[k]
    y[k]   = C x[k] + D u[k]

with complex state, input and output spaces of dimensions n, m, p. The module
provides the block system matrix, transfer-function evaluation, controllable
and unobservable subspaces, minimality and passivity checks, a grid bound on
the transfer-function norm over a sub-disc, sampled on its boundary circle
by the maximum-modulus principle, the adjoint system, trajectory simulation
and per-step dissipation margins.

A :class:`SystemRealization` is an immutable value with read-only copies of
its matrices. What is decided about it is decided once: a decider wrapped in
:func:`_memo` keeps its result on the realization, keyed by the decider, and
every later call reads it back. A fact that a system shares with its
adjoint, whose transfer function is ``T(conj(z))*``, is decided once per
pair: the decider names its ``dual``, and the second of the pair reads its
fact off the first's. This module's deciders are :func:`is_minimal`, which
counts its two Krylov ranks from singular values alone, and whose adjoint
swaps them, the complex Schur form of A with ``||A||``
(:func:`_schur_form`), which every transfer grid reads, whose diagonal
gives the eigenvalues of A that decide every pole test
(:func:`_pole_angle`), and which the adjoint reverses, and :func:`adjoint`,
whose adjoint is the realization itself; the solver and the pencil keep
theirs the same way, and the solver's unit channels and Schur class are
decided once per pair too.

Every transfer-function evaluation, at one point or on a grid of a circle,
goes through one kernel, :func:`_transfer_grid`. It proves every
grid resolvent ``I - lam A`` invertible from ``||A||`` at once when A is a
strict contraction on the grid radius r (``1 - r||A|| >= 2 SINGULAR_TOL
(1 + r||A||)``). Otherwise it bounds each resolvent's inverse from the
Schur form, by two triangular solves with its comparison matrix over all
points at once, and only the points that bound leaves open are built and
tested by their singular values. It then solves in Schur coordinates, with
the realization's one Schur form ``A = Q T Q*`` and one back substitution
with T over all points at once, its unknowns held point-major so that each
step is one matrix product. Norms of the grid values come from the eigenvalues of
the smaller Gram matrix of each value (:func:`_gram_eigs`), in closed form
when that matrix is 1 x 1 or 2 x 2 and from LAPACK otherwise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SingularResolvent
from .linops import _kept, _not_pd, _pd_mask, ensure_hermitian, spectral_norm

__all__ = [
    "SystemRealization",
    "system_matrix",
    "TransferSample",
    "transfer_eval",
    "controllable_subspace",
    "unobservable_subspace",
    "MinimalityReport",
    "is_minimal",
    "adjoint",
    "PassivityReport",
    "is_passive",
    "schur_class_margin",
    "Trajectory",
    "simulate",
    "dissipation_check",
]

SINGULAR_TOL = 1e-12  # relative smallest singular value of a singular resolvent
POLE_TOL = 1e-8  # distance |1/|pole| - 1| at which a pole is on the circle
MINIMALITY_TOL = 1e-10  # relative singular-value cut of the Krylov ranks
MARGIN_STEPS = 48  # schur_class_margin: points of its circle grid
MARGIN_RADIUS = 0.999  # schur_class_margin: radius of its circle grid


@dataclass(frozen=True)
class SystemRealization:
    """State-space quadruple (A, B, C, D) over complex scalars.

    Shapes: A is n x n, B is n x m, C is p x n, D is p x m. Scalars and
    one-dimensional arrays are promoted to matrices and stored as read-only
    complex copies. ``_facts`` holds what the deciders of :func:`_memo` have
    decided about the realization.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    _facts: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            mat = np.atleast_2d(np.array(getattr(self, name), dtype=complex))
            mat.flags.writeable = False
            object.__setattr__(self, name, mat)
        n = self.a.shape[0]
        if self.a.shape != (n, n):
            raise DimensionMismatch(f"state operator must be square, got {self.a.shape}")
        if self.b.shape[0] != n:
            raise DimensionMismatch(
                f"input operator has {self.b.shape[0]} rows, expected {n}"
            )
        if self.c.shape[1] != n:
            raise DimensionMismatch(
                f"output operator has {self.c.shape[1]} columns, expected {n}"
            )
        if self.d.shape != (self.c.shape[0], self.b.shape[1]):
            raise DimensionMismatch(
                f"feed-through has shape {self.d.shape}, expected "
                f"{(self.c.shape[0], self.b.shape[1])}"
            )
        for name, mat in (("A", self.a), ("B", self.b), ("C", self.c), ("D", self.d)):
            # a complex entry is finite when both of its parts are
            if not np.isfinite(mat).all():
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def state_dim(self) -> int:
        return self.a.shape[0]

    @property
    def input_dim(self) -> int:
        return self.b.shape[1]

    @property
    def output_dim(self) -> int:
        return self.c.shape[0]


def _memo(decide=None, *, involution: bool = False, dual=None):
    """Decorator that keeps ``decide(sigma)`` on the realization ``sigma``,
    keyed by the decorated function: ``decide`` runs on the first call for
    ``sigma`` and never again for it, and every call returns the kept
    result. With ``involution`` the result is a realization that keeps
    ``sigma`` as its own result, so that ``f(f(sigma)) is sigma``. With
    ``dual``, the rule for what a realization shares with its adjoint, the
    first call for ``sigma`` looks for a result kept by the adjoint that
    ``sigma`` keeps (:func:`adjoint`); when there is one, ``sigma`` keeps
    ``dual(partner_result, sigma)``, which is read, not decided, so a
    realization and its adjoint decide the fact once between them. A
    ``decide`` that raises keeps nothing: the exception reaches the caller,
    and the next call for ``sigma`` decides again. The decorated function
    reaches ``decide`` as its ``__wrapped__`` on each decision, and only
    then; its ``known(sigma)`` is the kept result, or None before the first
    call or after a raise, and decides nothing. A wrapper made with
    ``functools.wraps`` carries ``known`` along."""
    if decide is None:
        return functools.partial(_memo, involution=involution, dual=dual)

    @functools.wraps(decide)
    def kept(sigma):
        try:
            return sigma._facts[kept]
        except KeyError:
            other = None if dual is None else adjoint.known(sigma)
            partner = None if other is None else kept.known(other)
            fact = kept.__wrapped__(sigma) if partner is None else dual(partner, sigma)
            sigma._facts[kept] = fact
            if involution:
                fact._facts[kept] = sigma
            return fact

    kept.known = lambda sigma: sigma._facts.get(kept)
    return kept


def system_matrix(sigma: SystemRealization) -> np.ndarray:
    """Assemble the block operator [[A, B], [C, D]] mapping X+U to X+Y."""
    return np.block([[sigma.a, sigma.b], [sigma.c, sigma.d]])


@dataclass
class TransferSample:
    """Transfer-function value D + lam C (I - lam A)^{-1} B at one point."""

    lam: complex
    value: np.ndarray
    norm: float


def _reversed_form(form: tuple, sigma: SystemRealization) -> tuple:
    """The Schur form of A read off the adjoint's ``A* = Q T Q*``: ``A = (Q
    J) (J T* J) (Q J)*`` with J the reversal, and ``J T* J`` is upper
    triangular; the dual of :func:`_schur_form`."""
    norm_a, t, q = form
    t, q = np.ascontiguousarray(t.conj().T[::-1, ::-1]), np.ascontiguousarray(q[:, ::-1])
    t.flags.writeable = q.flags.writeable = False
    return norm_a, t, q


@_memo(dual=_reversed_form)
def _schur_form(sigma: SystemRealization) -> tuple[float, np.ndarray, np.ndarray]:
    """``(||A||, T, Q)`` for the complex Schur form ``A = Q T Q*``, with T
    and Q read-only: what :func:`_transfer_grid` reads of the state
    operator, and, on the diagonal of T, the eigenvalues of A. A realization
    whose adjoint has its form reads its own off it (:func:`_reversed_form`),
    so a realization and its adjoint decompose their state operator once
    between them."""
    import scipy.linalg

    t, q = scipy.linalg.schur(sigma.a, output="complex")
    t.flags.writeable = q.flags.writeable = False
    return spectral_norm(sigma.a), t, q


def _eigenvalues(sigma: SystemRealization) -> np.ndarray:
    """The eigenvalues of A, off the diagonal of the Schur form ``sigma``
    keeps (:func:`_schur_form`)."""
    return np.diagonal(_schur_form(sigma)[1])


def _pole_angle(sigma: SystemRealization, disc: bool = False) -> float | None:
    """The angle in [0, 2 pi) of a pole ``1/mu`` of the transfer function
    within ``POLE_TOL`` of the unit circle, or, with ``disc``, in the closed
    disc widened by ``POLE_TOL``; None when there is none. The eigenvalues
    mu of A are those of :func:`_eigenvalues`, and of several such poles the
    one of largest ``|mu|`` is named."""
    mu = _eigenvalues(sigma)
    with np.errstate(divide="ignore"):
        gap = 1.0 / np.abs(mu) - 1.0  # inf at mu = 0, which is no pole
    hits = gap < POLE_TOL if disc else np.abs(gap) < POLE_TOL
    if not hits.any():
        return None
    k = int(np.argmax(np.where(hits, np.abs(mu), -1.0)))
    return float(-np.angle(mu[k]) % (2.0 * np.pi))  # 1/mu has the angle -angle(mu)


def _transfer_grid(
    sigma: SystemRealization,
    lams: np.ndarray,
    singular=lambda lam, k: SingularResolvent(lam),
) -> np.ndarray:
    """Transfer values ``D + lam C (I - lam A)^{-1} B`` on a 1-D array of
    points, as a (k, p, m) stack, from the Schur form and norm of A that
    ``sigma`` keeps (:func:`_schur_form`).

    A resolvent is numerically singular when its smallest singular value is
    at most ``SINGULAR_TOL`` times its largest; the first such point k raises
    ``singular(lams[k], k)``. Since ``sigma_min(I - lam A) >= 1 - |lam| ||A||``
    and ``sigma_max(I - lam A) <= 1 + |lam| ||A||``, one spectral norm proves
    the whole grid regular when ``1 - r||A|| >= 2 SINGULAR_TOL (1 + r||A||)``
    for the largest modulus r on the grid; the factor 2 covers the roundoff
    of the computed singular values, so the screen passes only grids on which
    the per-point test passes too.

    Otherwise each point is screened from the Schur form (:func:`_screened`):
    ``sigma_min(I - lam A)`` is ``1 / ||(I - lam T)^{-1}||``, which the
    comparison matrix of the triangular ``I - lam T`` bounds from above, and
    a point whose bound proves ``sigma_min >= 4 SINGULAR_TOL (1 + r||A||)``
    passes the per-point test with room for the roundoff of the Schur form
    and of the singular values. Only the other points have their resolvents
    built and tested by their singular values, in index order, so the first
    singular point and its error are those of testing every point.

    The values are computed in Schur coordinates (Laub, IEEE TAC 26, 1981):
    with ``A = Q T Q*`` (T upper triangular), ``(I - lam A)^{-1} B = Q (I -
    lam T)^{-1} Q* B``, so a back substitution of n steps, each over all
    points at once, solves the whole grid. Row i of the unknowns is held
    point-major, as k * m entries (the m entries of point j at ``j*m ..
    j*m + m - 1``), so the n rows form one (n, k m) array: step i is one
    product of row i of T with the rows below it, then an in-place multiply
    by lam, add of row i of ``Q* B`` and divide by ``1 - lam T[i, i]``, and
    one product with ``C Q`` maps all rows to the outputs. The Schur form is
    backward stable and so is the triangular solve (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 8): the values carry the
    first-order error of a perturbation of A, B and C of order eps, as LU
    solves of each resolvent do.
    """
    n = sigma.state_dim
    norm_a, t, q = _schur_form(sigma)
    bound = float(np.abs(lams).max()) * norm_a
    if not 1.0 - bound >= 2.0 * SINGULAR_TOL * (1.0 + bound):
        unproved = np.flatnonzero(~_screened(t, lams, bound))
        if unproved.size:
            resolvents = (
                np.eye(n)[None, :, :] - lams[unproved, None, None] * sigma.a[None, :, :]
            )
            svals = np.linalg.svd(resolvents, compute_uv=False)
            bad = svals[:, -1] <= SINGULAR_TOL * svals[:, 0]
            if np.any(bad):
                k = int(unproved[np.argmax(bad)])
                raise singular(complex(lams[k]), k)
    rhs = q.conj().T @ sigma.b
    k, m, p = lams.size, sigma.input_dim, sigma.output_dim
    # x[i] is row i of (I - lam T)^{-1} Q* B at every point, point-major:
    # x[i].reshape(k, m)[j] belongs to lams[j]. The report bytes depend on
    # the rounding here: matmul rounds a one-term product unlike np.dot, and
    # numpy's complex product is not bitwise commutative, so lam goes first
    x = np.empty((n, k * m), dtype=complex)
    for i in range(n - 1, -1, -1):
        row = x[i].reshape(k, m)
        np.dot(t[i, i + 1 :], x[i + 1 :], out=x[i])
        np.multiply(lams[:, None], row, out=row)
        row += rhs[i]
        row /= (1.0 - lams * t[i, i])[:, None]
    cx = np.dot(sigma.c @ q, x).reshape(p, k, m).transpose(1, 0, 2)
    return sigma.d[None, :, :] + lams[:, None, None] * cx


def _screened(t: np.ndarray, lams: np.ndarray, bound: float) -> np.ndarray:
    """Which points of ``lams`` the comparison matrix of ``I - lam T``, for
    the upper triangular Schur factor T, proves regular: a boolean mask.

    The comparison matrix M has ``|1 - lam T[i, i]|`` on its diagonal and
    ``-|lam| |T[i, j]|`` above it, and ``|(I - lam T)^{-1}| <= M^{-1}``
    entrywise (Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    Thm 8.12), so ``||(I - lam T)^{-1}||_2 <= sqrt(||M^{-1}||_1
    ||M^{-1}||_inf)``. M^{-1} is nonnegative, so its largest row sum is the
    largest entry of ``M^{-1} e`` and its largest column sum that of ``M^{-T}
    e``, one back and one forward substitution with all points at once; the
    sums have no cancellation. A point is proved when that bound is at most
    ``1 / (4 SINGULAR_TOL (1 + bound))``, ``bound`` being r||A|| for the
    largest modulus r on the grid. A zero pivot gives an infinite or NaN
    bound, which proves nothing."""
    n = t.shape[0]
    r = np.abs(lams)
    off = np.abs(t)
    pivots = np.abs(1.0 - lams[None, :] * np.diagonal(t)[:, None])
    rows = np.empty((n, lams.size))
    cols = np.empty((n, lams.size))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(n - 1, -1, -1):
            rows[i] = (1.0 + r * (off[i, i + 1 :] @ rows[i + 1 :])) / pivots[i]
        for i in range(n):
            cols[i] = (1.0 + r * (off[:i, i] @ cols[:i])) / pivots[i]
        inverse_norm = np.sqrt(rows.max(axis=0) * cols.max(axis=0))
        return inverse_norm * (4.0 * SINGULAR_TOL * (1.0 + bound)) <= 1.0


def _gram_eigs(values: np.ndarray) -> np.ndarray:
    """Squared singular values of each matrix on a (k, p, m) stack, as a
    (k, min(m, p)) array in ascending order: the eigenvalues of the smaller
    Gram matrix, ``theta* theta`` when m <= p and ``theta theta*`` otherwise.

    When min(m, p) <= 2 they are taken in closed form (the 2 x 2 symmetric
    Schur decomposition, Golub & Van Loan, Matrix Computations, sec. 8.5):
    the diagonal entries a and d are sums of squares and the off-diagonal
    entry b one inner product, and the eigenvalues of [[a, b], [b*, d]] are
    ``(a + d)/2 -+ hypot((a - d)/2, |b|)``. The entries carry the rounding
    of the sums of a matrix product, and the few operations after them err
    by a few eps of ``a + d``, so every eigenvalue, the smaller one included,
    is within a small multiple of eps times the largest eigenvalue, as those
    of ``eigvalsh`` are; ``hypot`` and ``|b|`` neither overflow nor underflow
    where the squares of the entries do not. A larger Gram matrix goes to
    batched ``eigvalsh``.
    """
    _, p, m = values.shape
    r = min(m, p)
    if r > 2:
        vt = values.conj().transpose(0, 2, 1)
        return np.linalg.eigvalsh(vt @ values if m <= p else values @ vt)
    # the Gram matrix holds the inner products of the columns (m <= p) or
    # of the rows (m > p) of each value
    vecs = values if m <= p else values.transpose(0, 2, 1)
    diag = (vecs.real**2 + vecs.imag**2).sum(axis=1)
    if r < 2:
        return diag
    a, d = diag[:, 0], diag[:, 1]
    off = np.abs((vecs[:, :, 0].conj() * vecs[:, :, 1]).sum(axis=1))
    mid, radius = 0.5 * (a + d), np.hypot(0.5 * (a - d), off)
    return np.stack((mid - radius, mid + radius), axis=1)


def transfer_eval(sigma: SystemRealization, lam: complex) -> TransferSample:
    """Evaluate the transfer function at ``lam``.

    Raises SingularResolvent when I - lam A is singular to within
    ``SINGULAR_TOL`` (relative smallest singular value), i.e. ``lam`` sits at
    or too close to a pole of the realization, and ValueError when ``lam``
    is not finite.
    """
    lam = complex(lam)
    # a complex point is finite when both of its parts are
    if not np.isfinite(lam):
        raise ValueError(f"the transfer function is evaluated at a finite point, got {lam!r}")
    value = _transfer_grid(sigma, np.array([lam]))[0]
    return TransferSample(lam=lam, value=value, norm=spectral_norm(value))


def _krylov_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[B, AB, ..., A^{n-1}B]; powers beyond n-1 add nothing by
    Cayley-Hamilton."""
    n = a.shape[0]
    blocks = []
    cur = b
    for _ in range(max(n, 1)):
        blocks.append(cur)
        cur = a @ cur
    return np.hstack(blocks)


def _observability_block(sigma: SystemRealization) -> np.ndarray:
    """[C; CA; ...; CA^{n-1}], the conjugate transpose of the Krylov block
    of (A*, C*)."""
    return _krylov_block(sigma.a.conj().T, sigma.c.conj().T).conj().T


def _rank(s: np.ndarray) -> int:
    """The number of the singular values ``s`` that
    :func:`~riccati_kyp.linops._kept` keeps at ``MINIMALITY_TOL``; 0 when
    there is none or the largest is 0."""
    return int(np.count_nonzero(_kept(s, MINIMALITY_TOL)))


def controllable_subspace(sigma: SystemRealization) -> np.ndarray:
    """Orthonormal basis of the span of {A^k B : 0 <= k <= n-1}.

    Rank decisions use singular values against ``MINIMALITY_TOL`` times the
    largest one.
    Returns an n x r matrix; r = 0 yields an empty basis.
    """
    k = _krylov_block(sigma.a, sigma.b)
    u, s, _ = np.linalg.svd(k, full_matrices=False)
    return u[:, : _rank(s)]


def unobservable_subspace(sigma: SystemRealization) -> np.ndarray:
    """Orthonormal basis of the intersection of ker(C A^k), 0 <= k <= n-1.

    Dual of :func:`controllable_subspace` applied to (A*, C*): the
    unobservable subspace is the orthogonal complement of the range of the
    observability block matrix.
    """
    _, s, vh = np.linalg.svd(_observability_block(sigma), full_matrices=True)
    return vh[_rank(s) :].conj().T


@dataclass(frozen=True)
class MinimalityReport:
    """Controllability/observability verdict with subspace dimensions."""

    minimal: bool
    controllable_dim: int
    unobservable_dim: int
    state_dim: int

    def __bool__(self) -> bool:
        return self.minimal


def _swapped_dims(r: MinimalityReport, sigma: SystemRealization) -> MinimalityReport:
    """The minimality of the adjoint of the realization with report ``r``:
    the adjoint's Krylov block is the conjugate transpose of that
    realization's observability block and back, so ``controllable_dim = n -
    unobservable_dim`` and back; the dual of :func:`is_minimal`."""
    n = r.state_dim
    return MinimalityReport(r.minimal, n - r.unobservable_dim, n - r.controllable_dim, n)


@_memo(dual=_swapped_dims)
def is_minimal(sigma: SystemRealization) -> MinimalityReport:
    """True iff the controllable subspace is the whole state space and the
    unobservable subspace is trivial, decided once per realization and its
    adjoint, which reads it off the first of the pair to decide
    (:func:`_swapped_dims`). The two dimensions are the Krylov ranks of
    :func:`controllable_subspace` and :func:`unobservable_subspace`, counted
    from singular values alone, with no basis built."""
    svdvals = functools.partial(np.linalg.svd, compute_uv=False)
    cdim = _rank(svdvals(_krylov_block(sigma.a, sigma.b)))
    udim = sigma.state_dim - _rank(svdvals(_observability_block(sigma)))
    return MinimalityReport(
        minimal=(cdim == sigma.state_dim and udim == 0),
        controllable_dim=cdim,
        unobservable_dim=udim,
        state_dim=sigma.state_dim,
    )


@_memo(involution=True)
def adjoint(sigma: SystemRealization) -> SystemRealization:
    """The adjoint system (A*, C*, B*, D*) with input and output spaces
    swapped, built once per realization: every call on ``sigma`` returns the
    same realization, which keeps its own facts, and ``adjoint(adjoint(sigma))
    is sigma``."""
    return SystemRealization(
        a=sigma.a.conj().T,
        b=sigma.c.conj().T,
        c=sigma.b.conj().T,
        d=sigma.d.conj().T,
    )


@dataclass
class PassivityReport:
    """Contraction verdict for the system matrix, with margin 1 - ||M||."""

    passive: bool
    margin: float
    system_norm: float

    def __bool__(self) -> bool:
        return self.passive


def is_passive(sigma: SystemRealization, tol: float = 1e-10) -> PassivityReport:
    """True iff the system matrix is a contraction within ``tol``."""
    norm = spectral_norm(system_matrix(sigma))
    return PassivityReport(passive=norm <= 1.0 + tol, margin=1.0 - norm, system_norm=norm)


@functools.lru_cache(maxsize=16)
def _circle_points(grid_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only uniform angle grid of the unit circle and its points
    ``exp(1j * angles)``."""
    angles = 2.0 * np.pi * np.arange(grid_steps) / grid_steps
    zeta = np.exp(1j * angles)
    angles.flags.writeable = zeta.flags.writeable = False
    return angles, zeta


def schur_class_margin(
    sigma: SystemRealization, grid_steps: int = MARGIN_STEPS, radius: float = MARGIN_RADIUS
) -> float:
    """Largest transfer-function norm on the disc ``|lam| <= radius``, taken
    on ``grid_steps`` points of its boundary circle, or ``inf`` when the
    realization has a pole in the disc.

    Each eigenvalue mu of A, off the Schur form that ``sigma`` keeps
    (:func:`_schur_form`), is a pole at ``1/mu``; when no ``|mu| radius``
    reaches 1 the transfer function is analytic on the closed disc, and by
    the maximum-modulus principle its norm there is largest on the circle
    ``|lam| = radius``, so the circle grid of :func:`_circle_points`, scaled
    by ``radius``, is the whole sample. This is a grid certificate, not a
    proof: the value bounds the norm only at the sampled points, and no
    point inside the circle, the origin included, is one of them, so a
    near-singular resolvent there raises nothing. A circle point with a
    numerically singular resolvent aborts with SingularResolvent carrying
    the offending point; skipping it silently could mask norm blow-up near
    a pole.
    """
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie strictly between 0 and 1")
    if grid_steps < 1:
        raise ValueError("grid_steps must be positive")
    if (np.abs(_eigenvalues(sigma)) * radius >= 1.0).any():
        return np.inf
    values = _transfer_grid(sigma, radius * _circle_points(grid_steps)[1])
    return float(np.sqrt(_gram_eigs(values).max(initial=0.0)))


@dataclass
class Trajectory:
    """A rollout: states x[0..N], inputs u[0..N-1], outputs y[0..N-1]."""

    states: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray

    @property
    def steps(self) -> int:
        return self.inputs.shape[0]


def simulate(
    sigma: SystemRealization, x0: np.ndarray, inputs: np.ndarray
) -> Trajectory:
    """Roll the recursion out exactly over the given input sequence."""
    x0 = np.asarray(x0, dtype=complex).reshape(-1)
    if x0.shape[0] != sigma.state_dim:
        raise DimensionMismatch(
            f"x0 has length {x0.shape[0]}, expected {sigma.state_dim}"
        )
    u = np.atleast_2d(np.asarray(inputs, dtype=complex))
    if u.shape[1] != sigma.input_dim:
        raise DimensionMismatch(
            f"inputs have width {u.shape[1]}, expected {sigma.input_dim}"
        )
    steps = u.shape[0]
    states = np.zeros((steps + 1, sigma.state_dim), dtype=complex)
    outputs = np.zeros((steps, sigma.output_dim), dtype=complex)
    states[0] = x0
    for k in range(steps):
        outputs[k] = sigma.c @ states[k] + sigma.d @ u[k]
        states[k + 1] = sigma.a @ states[k] + sigma.b @ u[k]
    return Trajectory(states=states, inputs=u.copy(), outputs=outputs)


def dissipation_check(trajectory: Trajectory, h: np.ndarray) -> np.ndarray:
    """Per-step storage margins along a trajectory for the weight ``h``.

    Margin at step k is ``||u_k||^2 - ||y_k||^2 - (x_{k+1}* H x_{k+1} -
    x_k* H x_k)``. When ``h`` satisfies the inequality conditions for the
    system that produced the trajectory, every margin is nonnegative up to
    roundoff.

    Raises NotPD when ``h`` is not positive definite, by the test that
    storage operators and membership apply (:func:`~riccati_kyp.linops._pd_mask`)
    to the same ``eigh`` spectrum (``eigvalsh`` can differ in the last bits).
    """
    h = ensure_hermitian(h)
    pd, low = _pd_mask(np.linalg.eigh(h)[0][None])
    if not pd[0]:
        raise _not_pd(low[0])
    x = trajectory.states
    if x.shape[1] != h.shape[0]:
        raise DimensionMismatch(
            f"weight dimension {h.shape[0]} does not match state dimension {x.shape[1]}"
        )
    energy = np.real(np.einsum("ki,ij,kj->k", x.conj(), h, x))
    supply = np.sum(np.abs(trajectory.inputs) ** 2, axis=1) - np.sum(
        np.abs(trajectory.outputs) ** 2, axis=1
    )
    return supply - (energy[1:] - energy[:-1])
