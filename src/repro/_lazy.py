"""Package exports imported on first use (a PEP 562 module ``__getattr__``).

A served worker imports only the serving path (DESIGN.md), so a package
on that path, or on the live partitioner's, keeps its public names
without importing every submodule: ``from repro.psim import simulate``
imports :mod:`repro.psim.simulator` when it runs, not before.
"""


def lazy_exports(package: str, modules: dict):
    """A module ``__getattr__`` for *package*: *modules* maps a relative
    submodule (``".simulator"``) to the names it exports."""
    owner = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str):
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # The builtin, not importlib.import_module: it is the import
        # statement's path, the one ``python -X importtime`` logs.
        return getattr(__import__(package + owner[name], fromlist=[name]), name)

    return __getattr__
