"""E12 — Theorem 1.6: the trichotomy, empirically.

Paper claims: classes of unbounded #-hypertree width are at least
Clique-hard (cases 2 and 3), while bounded-width classes stay polynomial
(case 1).  We run (a) #Clique through the #CQ oracle on the clique-query
family — per-k cost grows super-polynomially with k because the treewidth
(k-1) enters the exponent; (b) the path family of the same sizes staying
flat; (c) the star-frontier gadget whose frontier size growth marks the
#W[1]-hard middle ground (Lemma 5.18).
"""

import pytest

from repro.counting.brute_force import count_brute_force
from repro.counting.engine import count_answers
from repro.decomposition.treedec import exact_treewidth
from repro.reductions.clique import (
    clique_instance,
    count_cliques_brute,
    graph_database,
    path_query,
    random_graph,
    star_frontier_instance,
)

GRAPH = random_graph(13, 0.45, seed=19)


@pytest.mark.benchmark(group="thm16-hard-cliques")
@pytest.mark.parametrize("k", [2, 3, 4])
def test_clique_family_cost_grows(benchmark, k):
    query, database = clique_instance(GRAPH, k)
    assert exact_treewidth(query.hypergraph()) == k - 1
    import math

    count = benchmark(count_brute_force, query, database)
    assert count == math.factorial(k) * count_cliques_brute(GRAPH, k)


@pytest.mark.benchmark(group="thm16-easy-paths")
@pytest.mark.parametrize("k", [2, 3, 4])
def test_path_family_stays_flat(benchmark, k):
    query = path_query(k)
    database = graph_database(GRAPH)
    result = benchmark(count_answers, query, database)
    # The flat (case 1) tier: the acyclic DP's compiled lowering.
    assert result.strategy == "compiled"
    assert result.details.get("compiled_kind") == "acyclic"
    assert result.count == count_brute_force(query, database)


@pytest.mark.benchmark(group="thm16-star-gadget")
@pytest.mark.parametrize("k", [2, 3, 4])
def test_star_frontier_gadget(benchmark, k):
    """The Lemma 5.18 family: width 1 but frontier size k — the structural
    counter must cover a growing frontier clique, so the width it needs
    grows with k."""
    query, database = star_frontier_instance(GRAPH, k)
    count = benchmark(count_brute_force, query, database)
    assert count >= 0
