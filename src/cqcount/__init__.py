"""Exact answer counting for conjunctive queries over relational databases.

Structures and queries live in :mod:`cqcount.structures`; homomorphism
search (the brute-force oracle) in :mod:`cqcount.homomorphisms`; the
structural machinery in :mod:`cqcount.hypergraphs`,
:mod:`cqcount.treewidth`, :mod:`cqcount.cores` and
:mod:`cqcount.counting`; the count-preserving reductions in
:mod:`cqcount.reductions`; parsing and the CLI in :mod:`cqcount.parsing`
and :mod:`cqcount.cli`.
"""

from .cores import core_of_query, core_of_structure, is_core
from .counting import (
    CASE_I,
    CASE_II,
    CASE_III,
    CountingConfig,
    TrichotomyReport,
    classify,
    contract_instance,
    count_answers,
    count_quantifier_free_td,
)
from .errors import CQError, InputError, InternalError, ResourceBudgetError
from .homomorphisms import (
    HomSearchConfig,
    automorphisms,
    count_answers_brute,
    enumerate_answers,
    free_automorphism_set,
    hom_exists,
    is_homomorphism,
)
from .hypergraphs import (
    Graph,
    SComponent,
    SHypergraph,
    contract,
    hypergraph_of,
    primal_graph,
    s_components,
    star_sizes,
)
from .parsing import load_database, parse_query, render_query
from .reductions import (
    PairDomainStructure,
    blowup,
    count_star_via_oracle,
    lift_to_hypergraph,
    pair_structure,
    solve_vandermonde,
)
from .structures import (
    Assignment,
    ConjunctiveQuery,
    RelationalStructure,
    Vocabulary,
    augment,
    pin_relation_names,
    star_structure,
    structure_from_dict,
    structure_to_dict,
)
from .treewidth import (
    TreeDecomposition,
    decompose,
    verify_decomposition,
)

__version__ = "0.2.0"

__all__ = [
    "Assignment",
    "CASE_I",
    "CASE_II",
    "CASE_III",
    "CQError",
    "ConjunctiveQuery",
    "CountingConfig",
    "Graph",
    "HomSearchConfig",
    "InputError",
    "InternalError",
    "PairDomainStructure",
    "RelationalStructure",
    "ResourceBudgetError",
    "SComponent",
    "SHypergraph",
    "TreeDecomposition",
    "TrichotomyReport",
    "Vocabulary",
    "augment",
    "automorphisms",
    "blowup",
    "classify",
    "contract",
    "contract_instance",
    "core_of_query",
    "core_of_structure",
    "count_answers",
    "count_answers_brute",
    "count_quantifier_free_td",
    "count_star_via_oracle",
    "decompose",
    "enumerate_answers",
    "free_automorphism_set",
    "hom_exists",
    "hypergraph_of",
    "is_core",
    "is_homomorphism",
    "lift_to_hypergraph",
    "load_database",
    "pair_structure",
    "parse_query",
    "pin_relation_names",
    "primal_graph",
    "render_query",
    "s_components",
    "solve_vandermonde",
    "star_sizes",
    "star_structure",
    "structure_from_dict",
    "structure_to_dict",
    "verify_decomposition",
]
