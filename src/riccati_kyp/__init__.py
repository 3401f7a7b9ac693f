"""Analysis of discrete-time linear systems with a scattering supply rate.

The package decides membership in the Riccati-equality, Riccati-inequality
and KYP solution sets, builds the associated passively-weighted system,
computes extremal storage operators and their inversion duality, and
certifies uniqueness for inner and co-inner transfer functions.

Each public name is declared once, in its module's ``__all__``: the
package re-exports the ``__all__`` of ``boundary``, ``errors``, ``linops``,
``riccati``, ``solver`` and ``systems``, in that order, after
``__version__``.
"""

from .boundary import *
from .errors import *
from .linops import *
from .riccati import *
from .solver import *
from .systems import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += boundary.__all__
__all__ += errors.__all__
__all__ += linops.__all__
__all__ += riccati.__all__
__all__ += solver.__all__
__all__ += systems.__all__
