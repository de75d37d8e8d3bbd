"""Fail-safe system lifetimes from tilted proportional-hazards samples.

Closed-form survival and hazard functions of the second-smallest lifetime
under Archimedean coupling, independence, and two-block structure, with
majorization checkers, stochastic-order certificates, Monte Carlo
cross-checks, and a scenario-driven CLI.
"""

from .copula import *
from .majorization import *
from .marginals import *
from .mcsim import *
from .orderstats import *
from .scenarios import *
from .stochorder import *

__version__ = "0.1.0"
