"""Discrete-time linear system realizations.

A realization is the quadruple (A, B, C, D) of the recursion

    x[k+1] = A x[k] + B u[k]
    y[k]   = C x[k] + D u[k]

with complex state, input and output spaces of dimensions n, m, p. The module
provides the block system matrix, transfer-function evaluation, controllable
and unobservable subspaces, minimality and passivity checks, a grid bound on
the transfer-function norm over a sub-disc, the adjoint system, trajectory
simulation and per-step dissipation margins.

Every transfer-function evaluation, at one point or on a grid of the disc or
the circle, goes through one kernel, :func:`_transfer_grid`. It proves every
grid resolvent ``I - lam A`` invertible from ``||A||`` at once when A is a
strict contraction on the grid radius r (``1 - r||A|| >= 2 SINGULAR_TOL
(1 + r||A||)``), and otherwise builds the resolvents and tests each point by
its singular values. It then solves in Schur coordinates: one complex Schur
form ``A = Q T Q*`` per grid, and one back substitution with T over all
points at once. Norms of the grid values come from the eigenvalues of the
smaller Gram matrix of each value (:func:`_gram_eigs`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPD, SingularResolvent
from .linops import ensure_hermitian, spectral_norm

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


@dataclass
class SystemRealization:
    """State-space quadruple (A, B, C, D) over complex scalars.

    Shapes: A is n x n, B is n x m, C is p x n, D is p x m. Scalars and
    one-dimensional arrays are promoted to matrices, and everything is stored
    as complex even for real data.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=complex))
        self.b = np.atleast_2d(np.asarray(self.b, dtype=complex))
        self.c = np.atleast_2d(np.asarray(self.c, dtype=complex))
        self.d = np.atleast_2d(np.asarray(self.d, dtype=complex))
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
            if not np.all(np.isfinite(mat.real)) or not np.all(np.isfinite(mat.imag)):
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


def system_matrix(sigma: SystemRealization) -> np.ndarray:
    """Assemble the block operator [[A, B], [C, D]] mapping X+U to X+Y."""
    return np.block([[sigma.a, sigma.b], [sigma.c, sigma.d]])


@dataclass
class TransferSample:
    """Transfer-function value D + lam C (I - lam A)^{-1} B at one point."""

    lam: complex
    value: np.ndarray
    norm: float


def _transfer_grid(
    sigma: SystemRealization,
    lams: np.ndarray,
    singular=lambda lam, k: SingularResolvent(lam),
) -> np.ndarray:
    """Transfer values ``D + lam C (I - lam A)^{-1} B`` on a 1-D array of
    points, as a (k, p, m) stack.

    A resolvent is numerically singular when its smallest singular value is
    at most ``SINGULAR_TOL`` times its largest; the first such point k raises
    ``singular(lams[k], k)``. Since ``sigma_min(I - lam A) >= 1 - |lam| ||A||``
    and ``sigma_max(I - lam A) <= 1 + |lam| ||A||``, one spectral norm proves
    the whole grid regular when ``1 - r||A|| >= 2 SINGULAR_TOL (1 + r||A||)``
    for the largest modulus r on the grid; the factor 2 covers the roundoff
    of the computed singular values, so the screen passes only grids on which
    the per-point test passes too. Otherwise the resolvent stack is built and
    every point is tested.

    The values are computed in Schur coordinates (Laub, IEEE TAC 26, 1981):
    with ``A = Q T Q*`` (T upper triangular), ``(I - lam A)^{-1} B = Q (I -
    lam T)^{-1} Q* B``, so a back substitution of n steps, each over all
    points at once, solves the whole grid. The Schur form is backward stable
    and so is the triangular solve (Higham, Accuracy and Stability of
    Numerical Algorithms, ch. 8): the values carry the first-order error of
    a perturbation of A, B and C of order eps, as LU solves of each
    resolvent do.
    """
    import scipy.linalg

    n = sigma.state_dim
    bound = float(np.abs(lams).max()) * spectral_norm(sigma.a)
    if not 1.0 - bound >= 2.0 * SINGULAR_TOL * (1.0 + bound):
        resolvents = np.eye(n)[None, :, :] - lams[:, None, None] * sigma.a[None, :, :]
        svals = np.linalg.svd(resolvents, compute_uv=False)
        bad = svals[:, -1] <= SINGULAR_TOL * svals[:, 0]
        if np.any(bad):
            k = int(np.argmax(bad))
            raise singular(complex(lams[k]), k)
    t, q = scipy.linalg.schur(sigma.a, output="complex")
    rhs = q.conj().T @ sigma.b
    # x[i] is row i of (I - lam T)^{-1} Q* B at every point, a (k, m) array
    x = np.empty((n, lams.size, sigma.input_dim), dtype=complex)
    for i in range(n - 1, -1, -1):
        coupled = np.tensordot(t[i, i + 1 :], x[i + 1 :], axes=1)
        x[i] = (rhs[i] + lams[:, None] * coupled) / (1.0 - lams * t[i, i])[:, None]
    cx = np.tensordot(sigma.c @ q, x, axes=1).transpose(1, 0, 2)
    return sigma.d[None, :, :] + lams[:, None, None] * cx


def _gram_eigs(values: np.ndarray) -> np.ndarray:
    """Squared singular values of each matrix on a (k, p, m) stack, as a
    (k, min(m, p)) array: the eigenvalues of the smaller Gram matrix,
    ``theta* theta`` when m <= p and ``theta theta*`` otherwise."""
    vt = values.conj().transpose(0, 2, 1)
    gram = vt @ values if values.shape[2] <= values.shape[1] else values @ vt
    return np.linalg.eigvalsh(gram)


def transfer_eval(sigma: SystemRealization, lam: complex) -> TransferSample:
    """Evaluate the transfer function at ``lam``.

    Raises SingularResolvent when I - lam A is singular to within
    ``SINGULAR_TOL`` (relative smallest singular value), i.e. ``lam`` sits at
    or too close to a pole of the realization.
    """
    lam = complex(lam)
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


def controllable_subspace(sigma: SystemRealization, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the span of {A^k B : 0 <= k <= n-1}.

    Rank decisions use singular values against ``tol`` times the largest one.
    Returns an n x r matrix; r = 0 yields an empty basis.
    """
    k = _krylov_block(sigma.a, sigma.b)
    u, s, _ = np.linalg.svd(k, full_matrices=False)
    if s.size == 0 or float(s[0]) == 0.0:
        return np.zeros((sigma.state_dim, 0), dtype=complex)
    rank = int(np.count_nonzero(s > tol * float(s[0])))
    return u[:, :rank]


def unobservable_subspace(sigma: SystemRealization, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the intersection of ker(C A^k), 0 <= k <= n-1.

    Dual of :func:`controllable_subspace` applied to (A*, C*): the
    unobservable subspace is the orthogonal complement of the range of the
    observability block matrix.
    """
    obs = _krylov_block(sigma.a.conj().T, sigma.c.conj().T).conj().T
    _, s, vh = np.linalg.svd(obs, full_matrices=True)
    if s.size == 0 or float(s[0]) == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > tol * float(s[0])))
    return vh[rank:].conj().T


@dataclass
class MinimalityReport:
    """Controllability/observability verdict with subspace dimensions."""

    minimal: bool
    controllable_dim: int
    unobservable_dim: int
    state_dim: int

    def __bool__(self) -> bool:
        return self.minimal


def is_minimal(sigma: SystemRealization, tol: float = 1e-10) -> MinimalityReport:
    """True iff the controllable subspace is the whole state space and the
    unobservable subspace is trivial, both decided at tolerance ``tol``."""
    cdim = controllable_subspace(sigma, tol).shape[1]
    udim = unobservable_subspace(sigma, tol).shape[1]
    return MinimalityReport(
        minimal=(cdim == sigma.state_dim and udim == 0),
        controllable_dim=cdim,
        unobservable_dim=udim,
        state_dim=sigma.state_dim,
    )


def adjoint(sigma: SystemRealization) -> SystemRealization:
    """The adjoint system (A*, C*, B*, D*) with input and output spaces
    swapped."""
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


def schur_class_margin(
    sigma: SystemRealization, grid_steps: int = 48, radius: float = 0.999
) -> float:
    """Largest transfer-function norm over a polar grid of the disc
    ``|lam| <= radius``.

    This is a grid certificate, not a proof: the value bounds the norm only at
    the sampled points. Grid points with a numerically singular resolvent
    abort with SingularResolvent carrying the offending point; skipping them
    silently could mask norm blow-up near a pole.
    """
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie strictly between 0 and 1")
    if grid_steps < 1:
        raise ValueError("grid_steps must be positive")
    radii = np.linspace(radius / grid_steps, radius, grid_steps)
    angles = 2.0 * np.pi * np.arange(grid_steps) / grid_steps
    lams = np.concatenate(
        [[0.0 + 0.0j], (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()]
    )

    squares = _gram_eigs(_transfer_grid(sigma, lams))
    return float(np.sqrt(max(float(squares.max()), 0.0)))


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


def dissipation_check(
    trajectory: Trajectory, h: np.ndarray, tol: float = 1e-10
) -> np.ndarray:
    """Per-step storage margins along a trajectory for the weight ``h``.

    Margin at step k is ``||u_k||^2 - ||y_k||^2 - (x_{k+1}* H x_{k+1} -
    x_k* H x_k)``. When ``h`` satisfies the inequality conditions for the
    system that produced the trajectory, every margin is >= -tol.

    Raises NotPD when ``h`` is not positive definite.
    """
    h = ensure_hermitian(h)
    w = np.linalg.eigvalsh(h)
    if w.size == 0 or float(w[0]) <= 0.0:
        raise NotPD("storage weight must be positive definite")
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
