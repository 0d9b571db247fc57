"""Exact enumeration and verification for numerical semigroups in
Kunz-word form: counting by Frobenius number, multiplicity, depth, and
embedding dimension, homomorphism-based upper bounds, rigorous constant
brackets, and exact distribution statistics.
"""

from . import bounds, enumeration, graphs, stats, words
from .bounds import *
from .enumeration import *
from .graphs import *
from .stats import *
from .words import *

__version__ = "0.1.0"

__all__ = [*bounds.__all__, *enumeration.__all__, *graphs.__all__,
           *stats.__all__, *words.__all__, "__version__"]
