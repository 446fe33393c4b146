"""Desk-scale feasibility toolkit for solar-farm phased arrays powering aircraft.

The package exports no names: import each from the module that defines it
(`from skybeam import link`, then `link.spot_report`). `import skybeam` loads
no submodule, and numpy loads only with the array engines (core, field,
mission).
"""

import importlib

__version__ = "0.1.0"


def lazy_attributes(module: str, sources: dict[str, str]):
    """A PEP 562 __getattr__ for `module` that looks each name of `sources` up,
    on every access, in the skybeam submodule it maps to. `module` calls such
    a name as an attribute of itself, so a value set on it comes first."""
    def __getattr__(name: str):
        if name not in sources:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{__name__}.{sources[name]}"), name)
    return __getattr__
