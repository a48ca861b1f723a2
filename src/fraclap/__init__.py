"""Numerical toolkit for half-harmonic maps in one dimension.

Fractional Laplacians and Riesz transforms on the line and the circle,
Poisson kernels, compensated commutators, Pohozaev-type identity checks,
stereographic transfer, a constrained gradient flow with bubbling and neck
diagnostics, and an explicit scaling counterexample, with a CLI front end.
"""

__version__ = "0.1.0"

import importlib

# submodules load on first use, so importing one module (say geometry, which
# needs only numpy) does not import the rest of the package and scipy with it
_SUBMODULES = (
    "acceptance",
    "commutators",
    "counterexample",
    "fracops",
    "geometry",
    "halfharmonic",
    "norms",
    "pohozaev",
    "stereo",
)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
