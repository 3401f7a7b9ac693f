"""Reference answers that do not call the library under test.

Everything here is plain numpy plus ``scipy.linalg.solve_discrete_are``:
the residual operators, the KYP matrix, the stabilizing Riccati solution
(which is the minimal storage operator), the adjoint-inversion formula for
the maximal one, transfer-function samples on the circle, trajectories and
Kalman rank tests.

A reference verdict is given only where double precision can decide it:
with a margin of ten either side of the CLI's own thresholds, and, for the
equality, only when rounding H by a few ulps cannot move the residual
across the threshold. An ill-conditioned maximal solution (norm 1e5-1e6,
nearly singular delta) is a true equality member whose residual no double
matrix can bring under the threshold; such verdicts are left undecided and
counted as such rather than judged either way.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

# thresholds relative to max(1, ||LMI||): the CLI decides in_ri at 1e-9 and
# in_re at 1e-8; the oracle decides only outside these bands around them
LMI_TOL = 1e-7
EQ_IN, EQ_OUT = 1e-9, 1e-7
MATCH_TOL = 1e-7
EPS = float(np.finfo(float).eps)


def herm(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + x.conj().T)


def rel_err(x: np.ndarray, y: np.ndarray) -> float:
    x = np.atleast_2d(np.asarray(x, dtype=complex))
    y = np.atleast_2d(np.asarray(y, dtype=complex))
    if x.shape != y.shape:
        return float("inf")
    return float(np.linalg.norm(x - y, 2) / max(1.0, np.linalg.norm(y, 2)))


def adjoint(a, b, c, d):
    return a.conj().T, c.conj().T, b.conj().T, d.conj().T


def residual_ops(a, b, c, d, h):
    m = b.shape[1]
    alpha = herm(h - a.conj().T @ h @ a - c.conj().T @ c)
    beta = d.conj().T @ c + b.conj().T @ h @ a
    delta = herm(np.eye(m) - d.conj().T @ d - b.conj().T @ h @ b)
    return alpha, beta, delta


def lmi_margin(a, b, c, d, h) -> tuple[float, float]:
    """Least eigenvalue of the KYP matrix and its scale max(1, norm)."""
    alpha, beta, delta = residual_ops(a, b, c, d, h)
    lmi = herm(np.block([[alpha, -beta.conj().T], [-beta, delta]]))
    w = np.linalg.eigvalsh(lmi)
    return float(w[0]), max(1.0, float(np.abs(w).max()))


def equality_residual(a, b, c, d, h) -> float:
    """||alpha - beta* pinv(delta) beta||, unscaled."""
    alpha, beta, delta = residual_ops(a, b, c, d, h)
    pinv = np.linalg.pinv(delta, rcond=1e-10, hermitian=True)
    return float(np.linalg.norm(alpha - beta.conj().T @ pinv @ beta, 2))


def residual_noise(a, b, c, d, h) -> float:
    """Largest change of the equality residual when H moves by 4 ulps of its
    norm, over a few fixed directions: what rounding alone can do."""
    rng = np.random.default_rng(0)
    base = equality_residual(a, b, c, d, h)
    step = 4.0 * EPS * float(np.linalg.norm(h, 2))
    noise = 0.0
    for _ in range(3):
        e = herm(rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))
        moved = equality_residual(a, b, c, d, h + step * e / np.linalg.norm(e, 2))
        noise = max(noise, abs(moved - base))
    return noise


def equality_status(a, b, c, d, h) -> bool | None:
    """True for an equality member, False for a non-member, None when double
    precision cannot tell (see the module docstring)."""
    h = np.atleast_2d(np.asarray(h, dtype=complex))
    if h.shape != a.shape or np.linalg.eigvalsh(herm(h))[0] <= 0.0:
        return False
    lmi_min, scale = lmi_margin(a, b, c, d, h)
    if lmi_min <= -LMI_TOL * scale:
        return False
    if residual_noise(a, b, c, d, h) > EQ_IN * scale:
        return None
    res = equality_residual(a, b, c, d, h)
    if res <= EQ_IN * scale:
        return True
    if res >= EQ_OUT * scale:
        return False
    return None


def expected_verdict(a, b, c, d, h, member: bool = False) -> dict:
    """Reference in_ri / in_re / in_ri_circ; a key is absent where double
    precision cannot decide it.

    ``member`` says H was built as an inequality member (an equality
    solution or a convex combination of two): the LMI of such an H is
    singular whenever n > m, so its margin alone cannot show membership.
    """
    lmi_min, scale = lmi_margin(a, b, c, d, h)
    out: dict = {}
    if lmi_min <= -LMI_TOL * scale:
        out = {"in_ri": False, "in_re": False}
    else:
        eq = equality_status(a, b, c, d, h)
        if eq is not None:
            out["in_re"] = eq
        if eq or member or lmi_min >= LMI_TOL * scale:
            out["in_ri"] = True
    minimal = kalman_minimal(a, b, c)
    # a similarity by H^{1/2} keeps minimality, so in_ri_circ = in_ri and minimal
    if "in_ri" in out and minimal is not None:
        out["in_ri_circ"] = out["in_ri"] and minimal
    return out


def kalman_minimal(a, b, c) -> bool | None:
    """Kalman rank test; None when a rank sits in the ambiguous band."""
    n = a.shape[0]
    ctrb = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(n)])
    obsv = np.vstack([c @ np.linalg.matrix_power(a, k) for k in range(n)])
    verdicts = []
    for mat in (ctrb, obsv.conj().T):
        s = np.linalg.svd(mat, compute_uv=False)
        ratio = s[n - 1] / s[0] if s.size >= n and s[0] > 0 else 0.0
        if ratio > 1e-8:
            verdicts.append(True)
        elif ratio < 1e-13:
            verdicts.append(False)
        else:
            return None
    return all(verdicts)


def dare_minimal(a, b, c, d) -> np.ndarray:
    """Stabilizing solution of the Riccati equality: the minimal member."""
    m = b.shape[1]
    x = scipy.linalg.solve_discrete_are(
        a, b, c.conj().T @ c, d.conj().T @ d - np.eye(m), s=c.conj().T @ d
    )
    return herm(x)


def dare_maximal(a, b, c, d) -> np.ndarray:
    """Inverse of the adjoint system's minimal member: the maximal member."""
    return herm(np.linalg.inv(dare_minimal(*adjoint(a, b, c, d))))


def transfer_on_circle(a, b, c, d, grid: int) -> np.ndarray:
    zeta = np.exp(2j * np.pi * np.arange(grid) / grid)[:, None, None]
    resolvents = np.eye(a.shape[0]) - zeta * a
    x = np.linalg.solve(resolvents, np.broadcast_to(b, (grid,) + b.shape))
    return d + zeta * (c @ x)


def circle_defects(a, b, c, d, grid: int) -> tuple[float, float]:
    """max over the grid of ||I - theta* theta|| and ||I - theta theta*||."""
    vals = transfer_on_circle(a, b, c, d, grid)
    vh = vals.conj().transpose(0, 2, 1)
    right = np.linalg.norm(np.eye(d.shape[1]) - vh @ vals, 2, axis=(1, 2))
    left = np.linalg.norm(np.eye(d.shape[0]) - vals @ vh, 2, axis=(1, 2))
    return float(right.max()), float(left.max())


def system_norm(a, b, c, d) -> float:
    return float(np.linalg.norm(np.block([[a, b], [c, d]]), 2))


def trajectory(a, b, c, d, x0, inputs):
    states = [np.asarray(x0, dtype=complex)]
    outputs = []
    for u in inputs:
        outputs.append(c @ states[-1] + d @ u)
        states.append(a @ states[-1] + b @ u)
    return np.array(states), np.array(outputs)


def dissipation_margins(states, inputs, outputs, h) -> np.ndarray:
    energy = np.array([float(np.real(x.conj() @ h @ x)) for x in states])
    supply = np.array(
        [float(np.vdot(u, u).real - np.vdot(y, y).real) for u, y in zip(inputs, outputs)]
    )
    return supply - np.diff(energy)
