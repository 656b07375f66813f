"""Monochromatic Hamiltonian Berge-cycle search in edge-colored complete
r-uniform hypergraphs: shadow multi-colorings, Hall-matching extraction,
the constructive 3-colored K_n^4 pipeline, and a stress-test harness."""

from .core import (
    BergeCertificate,
    ColoredHypergraph,
    InvalidParams,
    Params,
    TightCycleWitness,
    binom,
    random_coloring,
    rank_subset,
    read_coloring,
    unrank_subset,
    verify_berge_certificate,
    write_coloring,
)
from .harness import (
    InstanceTooLarge,
    TrialReport,
    brute_force_exists,
    find_certificate,
    stress_theorem,
    structured_colorings,
)
from .r4 import (
    ContractBreach,
    SearchResult,
    Unresolved,
    r4_find,
)

__all__ = [
    "BergeCertificate",
    "ColoredHypergraph",
    "ContractBreach",
    "InstanceTooLarge",
    "InvalidParams",
    "Params",
    "SearchResult",
    "TightCycleWitness",
    "TrialReport",
    "Unresolved",
    "binom",
    "brute_force_exists",
    "find_certificate",
    "r4_find",
    "random_coloring",
    "rank_subset",
    "read_coloring",
    "stress_theorem",
    "structured_colorings",
    "unrank_subset",
    "verify_berge_certificate",
    "write_coloring",
]
