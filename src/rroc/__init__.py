"""rroc: cost-sensitive evaluation of regression models in RROC space.

Errors decompose into total over-estimation (OVER, x-axis) and total
under-estimation (UNDER, y-axis); sweeping a constant shift over the
predictions traces a piecewise-linear curve whose area (AOC) equals the
population error variance times n^2/2. On top of that sit isometrics for any
cost asymmetry, convex hulls and dominance regions across models, optimal and
trained shift choices, and cost curves.
"""

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
from . import analysis, core, curve, data, errors, report, shift, svg, synth
from .analysis import *
from .core import *
from .curve import *
from .data import *
from .errors import *
from .report import *
from .shift import *
from .svg import *
from .synth import *

__all__ = ["__version__"]
__all__ += analysis.__all__
__all__ += core.__all__
__all__ += curve.__all__
__all__ += data.__all__
__all__ += errors.__all__
__all__ += report.__all__
__all__ += shift.__all__
__all__ += svg.__all__
__all__ += synth.__all__
