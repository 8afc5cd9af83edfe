"""Avalanche polynomials of rooted plane trees.

Exact-arithmetic tools for the subtree-size labeling of plane trees:
the avalanche polynomial of a tree, the distribution of avalanche sizes
over all plane trees with n edges (computed three independent ways),
its exact moments and asymptotics, and the inverse problem of
reconstructing a tree from a polynomial, including the 3-partition
reduction instances.

Importing the package executes none of its modules. `polyalg`, `tree`,
`distribution` and `inverse` sit in `sys.modules` and execute on their
first attribute access, so a command executes only the modules it uses.
Their public names are re-exported here and resolve the same way.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_MODULES = polyalg, tree, distribution, inverse = [
    _lazy(name) for name in ("polyalg", "tree", "distribution", "inverse")
]


def __getattr__(name: str):
    if name == "__all__":
        return [attr for module in _MODULES for attr in module.__all__]
    # no lazy module exports `cli` or a private name: `from avpoly import
    # cli` asks for one through `hasattr`, which must execute none of them
    if not name.startswith("_") and name != "cli":
        for module in _MODULES:
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
