"""Monochromatic Hamiltonian Berge-cycle search in edge-colored complete
r-uniform hypergraphs: shadow multi-colorings, Hall-matching extraction,
the constructive 3-colored K_n^4 pipeline, and a stress-test harness.

Importing the package imports none of its modules, so only code that
needs numpy loads it: `berge verify` runs on the standard library alone.
core, harness and r4 bind their public names here as they finish loading
(_export), so each name here is its module's own object, a plain attribute
that code patching a function wherever a module binds it (the benchmark
tracer) patches and restores.  A name whose module is not loaded yet is
found by __getattr__ (PEP 562), which imports the module and stores
nothing itself.
"""

import importlib

_HOMES = {
    "core": ("BergeCertificate", "ColoredHypergraph", "ContractBreach", "InvalidParams",
             "Params", "TightCycleWitness", "binom", "random_coloring", "rank_subset",
             "read_coloring", "unrank_subset", "verify_berge_certificate", "write_coloring"),
    "harness": ("InstanceTooLarge", "TrialReport", "brute_force_exists", "find_certificate",
                "stress_theorem", "structured_colorings"),
    "r4": ("SearchResult", "Unresolved", "r4_find"),
}
_MODULE = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_MODULE)


def _export(module: str, namespace: dict) -> None:
    """Bind a module's public names here: core, harness and r4 call it last."""
    globals().update({name: namespace[name] for name in _HOMES[module]})


def __getattr__(name):
    if name not in _MODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE[name]}", __name__), name)
