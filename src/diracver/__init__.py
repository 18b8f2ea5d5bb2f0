"""Exact verification of dispersion-degeneracy constraints for Dirac matrix sets.

The package proves, in exact rational arithmetic, which matrix dimensions
admit a demanded number of linearly independent positive-energy plane-wave
solutions, derives the forced characteristic-polynomial coefficients (or an
impossibility certificate), and audits concrete Hermitian matrix quadruples
against the resulting trace, determinant, structure, and anticommutation
conditions, with a floating-point eigensolver as an independent cross-check.

Each name is imported from the module that defines it
(``from diracver.clifford import catalog``); the package itself exports
nothing, so importing it compiles no other module.
"""

import sys

__version__ = "0.1.0"


def _forward(namespace: dict, *modules: str):
    """A module ``__getattr__`` (PEP 562) that answers the ``__all__`` of ``modules``.

    It imports them in order until one lists the name, and binds the value in
    ``namespace``, so a later read is a plain lookup.  Dunders stay
    unresolved: the import system asks a module for ``__path__``.
    """

    def __getattr__(name: str):
        if not (name.startswith("__") and name.endswith("__")):
            for module in modules:
                __import__(f"{__name__}.{module}")
                source = sys.modules[f"{__name__}.{module}"]
                if name in source.__all__:
                    value = namespace[name] = getattr(source, name)
                    return value
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")

    return __getattr__
