"""Exception hierarchy shared by all modules.

Every failure mode raised by the library derives from :class:`RiccatiKypError`
so callers (including the CLI) can map error categories to exit codes.
"""

from __future__ import annotations

__all__ = [
    "RiccatiKypError",
    "DimensionMismatch",
    "NotHermitian",
    "NotPSD",
    "NotPD",
    "NotNonneg",
    "RangeViolation",
    "SingularResolvent",
    "PoleOnCircle",
    "DeltaNotPSD",
    "C3Violation",
    "InconsistentRoutes",
    "NotInRI",
    "NotMinimal",
    "NotSchurClass",
    "CertificateFailed",
    "ParseError",
]


class RiccatiKypError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(RiccatiKypError):
    """Operands have inconsistent shapes."""


class NotHermitian(RiccatiKypError):
    """A matrix required to be Hermitian deviates beyond tolerance."""


class NotPSD(RiccatiKypError):
    """A matrix required to be positive semidefinite has an eigenvalue below
    the admissible floor."""


class NotPD(RiccatiKypError):
    """A matrix required to be positive definite is singular or indefinite."""


class NotNonneg(RiccatiKypError):
    """An assembled block operator required to be nonnegative is not."""


class RangeViolation(RiccatiKypError):
    """The off-diagonal block of a nonnegative block operator does not factor
    through the diagonal square roots to working precision."""


class SingularResolvent(RiccatiKypError):
    """The resolvent is numerically singular at the requested point."""

    def __init__(self, lam: complex):
        self.lam = complex(lam)
        super().__init__(f"resolvent singular at lambda={self.lam}")


class PoleOnCircle(RiccatiKypError):
    """A transfer-function pole lies on (or too close to) the unit circle."""

    def __init__(self, angle: float):
        self.angle = float(angle)
        super().__init__(f"pole near the unit circle at angle={self.angle}")


class DeltaNotPSD(RiccatiKypError):
    """The input-side residual operator fails positive semidefiniteness."""


class C3Violation(RiccatiKypError):
    """The cross term does not map into the range of the input-side residual
    operator."""


class InconsistentRoutes(RiccatiKypError):
    """Two independent computational routes disagree beyond the boundary band;
    signals a tolerance or rank-decision bug, not a mathematical fact."""


class NotInRI(RiccatiKypError):
    """The candidate storage operator does not satisfy the inequality
    conditions required by the operation."""


class NotMinimal(RiccatiKypError):
    """Operation requires a minimal (controllable and observable) system."""


class NotSchurClass(RiccatiKypError):
    """A minimal system's transfer function has a pole in the closed disc or
    a norm above one on the circle, so no inequality member exists; it has
    ``norm`` (inf at a pole) at ``angle`` in [0, 2 pi), as in circle_profile."""

    def __init__(self, angle: float, norm: float):
        self.angle, self.norm = float(angle), float(norm)
        super().__init__(
            f"transfer-function norm {self.norm:.6f} > 1 at angle "
            f"{self.angle:.6f}; no inequality member can exist"
        )


class CertificateFailed(RiccatiKypError):
    """A computed extremal solution fails its deterministic certificate:
    equality membership, or a closed-loop spectral radius of at most one.
    Carries the ``side`` (``"minimal"`` or ``"maximal"``), the closed-loop
    ``radius`` and the ``equality_residual`` of the rejected candidate. The
    radius is NaN when the candidate has no closed loop: it is not positive
    definite, its delta is not PSD or its beta leaves delta's range (so the
    membership kernel forms no gain), or no exact route gave a candidate."""

    def __init__(
        self,
        side: str,
        radius: float,
        equality_residual: float,
        message: str | None = None,
    ):
        self.side = side
        self.radius = float(radius)
        self.equality_residual = float(equality_residual)
        super().__init__(
            message
            or f"{side} solution fails its certificate (closed-loop radius "
            f"{self.radius:.6f}, equality residual {self.equality_residual:.3e})"
        )


class ParseError(RiccatiKypError):
    """A system document is malformed."""
