"""Negatively dependent sampling schemes for quasi-Monte Carlo.

The package covers four workflows:

- randomized point sets whose coordinates repel each other, each scheme
  beside its exact law where one is known (`samplers`),
- exact and cover-bracketed star discrepancy, plain and weighted
  (`geometry`, `discrepancy`),
- statistical certification of negative-dependence properties, exact where
  the scheme has a closed-form law (`negdep`, which re-exports the laws),
- closed-form probabilistic discrepancy bounds (`bounds`) and variance
  studies for integration (`integrate`).

All randomness flows through `RngStream`; identical seeds give identical
results.
"""

from . import acceptance, bounds, discrepancy, errors, geometry, integrate, negdep, samplers
from .errors import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .samplers import *  # noqa: F401,F403
from .discrepancy import *  # noqa: F401,F403
from .integrate import *  # noqa: F401,F403
from .negdep import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403
from .acceptance import *  # noqa: F401,F403

__version__ = "0.1.0"

# the public names are those each module lists in its own __all__
__all__ = ["__version__"] + [
    name
    for module in (errors, geometry, samplers, discrepancy, integrate, negdep, bounds, acceptance)
    for name in module.__all__
]
