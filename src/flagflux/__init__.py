"""Exact-arithmetic engine for flowing flags and infinitesimal T-duality.

Nilpotent Lie algebras enter as Malcev tuples of 2-forms, flag manifolds
as a series/rank/theta triple; everything downstream (Chevalley-Eilenberg
differential, dualization, duality certificate, dual target search, the
per-root generalized-complex blocks) stays in rational arithmetic.

The public names are those in each submodule's ``__all__``.  The function
``correspond`` shadows its module here, so the modules are bound privately.
"""

from . import correspond as _correspond
from . import exterior as _exterior
from . import gcs as _gcs
from . import nilradical as _nilradical
from . import rootsys as _rootsys
from . import tduality as _tduality
from .correspond import *  # noqa: F401,F403
from .exterior import *  # noqa: F401,F403
from .gcs import *  # noqa: F401,F403
from .nilradical import *  # noqa: F401,F403
from .rootsys import *  # noqa: F401,F403
from .tduality import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *_exterior.__all__,
    *_rootsys.__all__,
    *_nilradical.__all__,
    *_tduality.__all__,
    *_correspond.__all__,
    *_gcs.__all__,
]
