"""Ranks, circuits, flats, and certificates in generic cofactor rigidity
matroids.

The package centers on the degree-2 cofactor matroid — the maximal
abstract 3-rigidity matroid — with the graphic (degree 0) and planar
rigidity (degree 1) matroids given by the same oracle's cofactor rows at
lower degree.  Rank queries run a randomized evaluation oracle over a
large prime field; combinatorial counterparts (proper clique sequences,
free elevations, clique covers) certify the answers independently.

Entry points:

* :class:`~cofrig.cofactor.CofactorOracle` — rank/closure/circuit queries.
* :func:`~cofrig.sequences.rank_certificate` — matching lower and upper
  rank witnesses.
* :func:`~cofrig.erection.free_elevation` — maximal chains of free
  erections for explicit matroids.
* :func:`~cofrig.covers.dress_rank` — the maximal-clique cover formula on
  flats.
* :func:`~cofrig.verify.run_suite` — named cross-check suites (also
  exposed as ``cofrig verify`` on the command line).
"""

from .cofactor import DEFAULT_SEEDS, CofactorOracle
from .covers import (
    CliqueCover,
    dress_rank,
    find_shellable_order,
    hinge_table,
    is_M_degenerate,
    maximal_cliques,
    val_D,
)
from .erection import ErectionChain, free_elevation, free_erection
from .errors import AmbientMismatch, CapExceeded, SeedDisagreement, WitnessMismatch
from .field import MERSENNE61
from .graphs import (
    EdgeSet,
    apply_extension,
    complete_edges,
    complete_graph,
    double_banana,
    format_edge_text,
    load_edge_file,
    parse_edge_text,
)
from .matroids import (
    ExplicitMatroid,
    clique_truncation_matroid,
    uniform_matroid,
    verify_rank_axioms,
)
from .sequences import (
    CircuitSequence,
    RankCertificate,
    covering_sequence,
    find_simplicial_base_vertex,
    rank_certificate,
    seq_value,
)
from .verify import SUITE_NAMES, Check, SuiteResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "AmbientMismatch",
    "CapExceeded",
    "Check",
    "CircuitSequence",
    "CliqueCover",
    "CofactorOracle",
    "DEFAULT_SEEDS",
    "EdgeSet",
    "ErectionChain",
    "ExplicitMatroid",
    "MERSENNE61",
    "RankCertificate",
    "SeedDisagreement",
    "SUITE_NAMES",
    "SuiteResult",
    "WitnessMismatch",
    "apply_extension",
    "clique_truncation_matroid",
    "complete_edges",
    "complete_graph",
    "covering_sequence",
    "double_banana",
    "dress_rank",
    "find_shellable_order",
    "find_simplicial_base_vertex",
    "format_edge_text",
    "free_elevation",
    "free_erection",
    "hinge_table",
    "is_M_degenerate",
    "load_edge_file",
    "maximal_cliques",
    "parse_edge_text",
    "rank_certificate",
    "run_suite",
    "seq_value",
    "uniform_matroid",
    "val_D",
    "verify_rank_axioms",
]
