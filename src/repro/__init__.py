"""repro: counting solutions to conjunctive queries.

A full reproduction of *"Counting solutions to conjunctive queries:
structural and hybrid tractability"* (Greco & Scarcello, PODS 2014; LMCS
extended version by Chen, Greco, Mengel & Scarcello).

Quickstart
----------
>>> from repro import parse_query, count_answers
>>> from repro.db import Database
>>> q = parse_query("ans(A) :- r(A, B), s(B, C)")
>>> d = Database.from_dict({"r": [(1, 2), (3, 2)], "s": [(2, 9)]})
>>> count_answers(q, d).count
2

The public API re-exports the most used entry points; the subpackages hold
the full machinery:

* :mod:`repro.query` -- terms, atoms, conjunctive queries, parser, colorings;
* :mod:`repro.db` -- relations, databases, the substitution-set algebra;
* :mod:`repro.hypergraph` -- acyclicity, components, frontiers;
* :mod:`repro.homomorphism` -- homomorphism search and (colored) cores;
* :mod:`repro.consistency` -- view sets and pairwise consistency;
* :mod:`repro.decomposition` -- tree projections, GHDs, #-decompositions,
  degrees and hybrid #b-decompositions;
* :mod:`repro.counting` -- all counting algorithms and the auto engine;
* :mod:`repro.reductions` -- the hardness-side reduction machinery;
* :mod:`repro.workloads` -- the paper's example instances and generators;
* :mod:`repro.faq` -- the Inside-Out (FAQ) comparator [KNR16];
* :mod:`repro.ucq` -- unions of CQs: inclusion-exclusion, subsumption;
* :mod:`repro.approx` -- uniform answer sampling, Monte Carlo, Karp-Luby;
* :mod:`repro.dynamic` -- answer counting under updates [BKS17];
* :mod:`repro.service` -- batched and streaming counting over a
  shared, shape-keyed plan cache.
"""

from .approx import monte_carlo_count, sample_answers
from .counting import (
    CountResult,
    count_answers,
    count_brute_force,
    count_structural,
)
from .faq import count_insideout
from .db import Database, Relation, SubstitutionSet
from .decomposition import (
    HybridDecomposition,
    SharpDecomposition,
    find_hybrid_decomposition,
    find_sharp_hypertree_decomposition,
    sharp_hypertree_width,
)
from .homomorphism import colored_core, core, uncolored_core
from .hypergraph import Hypergraph, frontier_hypergraph, is_acyclic
from .query import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Variable,
    color,
    fullcolor,
    parse_query,
)
from .service import CountJob, CountingService, PlanCache
from .ucq import UnionQuery, count_union, parse_ucq

__version__ = "1.0.0"

__all__ = [
    "CountResult",
    "count_answers",
    "count_brute_force",
    "count_structural",
    "Database",
    "Relation",
    "SubstitutionSet",
    "HybridDecomposition",
    "SharpDecomposition",
    "find_hybrid_decomposition",
    "find_sharp_hypertree_decomposition",
    "sharp_hypertree_width",
    "colored_core",
    "core",
    "uncolored_core",
    "Hypergraph",
    "frontier_hypergraph",
    "is_acyclic",
    "Atom",
    "ConjunctiveQuery",
    "Constant",
    "Variable",
    "color",
    "fullcolor",
    "parse_query",
    "UnionQuery",
    "count_union",
    "parse_ucq",
    "count_insideout",
    "monte_carlo_count",
    "sample_answers",
    "CountJob",
    "CountingService",
    "PlanCache",
    "__version__",
]
