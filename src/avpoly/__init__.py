"""Avalanche polynomials of rooted plane trees.

Exact-arithmetic tools for the subtree-size labeling of plane trees:
the avalanche polynomial of a tree, the distribution of avalanche sizes
over all plane trees with n edges (computed three independent ways),
its exact moments and asymptotics, and the inverse problem of
reconstructing a tree from a polynomial, including the 3-partition
reduction instances.
"""

from . import distribution, inverse, polyalg, tree
from .distribution import *
from .inverse import *
from .polyalg import *
from .tree import *

__version__ = "0.1.0"

__all__ = polyalg.__all__ + tree.__all__ + distribution.__all__ + inverse.__all__
