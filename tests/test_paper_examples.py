"""Integration tests: every figure / worked example of the paper.

Each test reproduces one artifact end-to-end; the benchmark harness prints
the same checks with timings (see EXPERIMENTS.md for the mapping).
"""

import pytest

from repro.counting import (
    count_answers,
    count_brute_force,
    count_via_hypertree,
    quantified_star_size,
)
from repro.decomposition import (
    d_optimal_decomposition,
    degree_bound,
    evaluate_pseudo_free,
    find_ghd_join_tree,
    find_sharp_hypertree_decomposition,
    generalized_hypertree_width,
    hypertree_from_join_tree,
    is_sharp_covered,
    sharp_hypertree_width,
)
from repro.homomorphism import colored_core
from repro.hypergraph import frontier_hypergraph
from repro.query import Variable
from repro.query.coloring import is_color_atom
from repro.workloads import (
    d2_bar_database,
    d2_database,
    q0,
    q0_expected_core_atoms,
    q0_symmetric_core_atoms,
    q1_cycle,
    q2_acyclic,
    q2_bar,
    q2_pseudo_free,
    qn1_chain,
    qn2_biclique,
    v0_view_set,
    workforce_database,
)

A, B, C = Variable("A"), Variable("B"), Variable("C")


class TestFigure1:
    """Example 1.1 / Figure 1: H_Q0 and FH(Q0, {A,B,C})."""

    def test_hypergraph_shape(self):
        h = q0().hypergraph()
        assert len(h.nodes) == 9
        assert len(h.edges) == 9

    def test_frontier_hypergraph(self):
        fh = frontier_hypergraph(q0())
        assert fh.edges == frozenset({
            frozenset({A, B}), frozenset({B}), frozenset({B, C}),
        })


class TestFigure2:
    """Figure 2: H_Q0 has a width-2 (generalized) hypertree decomposition."""

    def test_width_2(self):
        assert generalized_hypertree_width(q0().hypergraph(), max_width=3) == 2


class TestFigure3:
    """Figure 3 / Examples 3.4, 4.2: colored core and #-htw(Q0) = 2."""

    def test_core_drops_one_g_branch(self):
        plain = frozenset(
            a for a in colored_core(q0()).atoms if not is_color_atom(a)
        )
        assert plain in (q0_expected_core_atoms(), q0_symmetric_core_atoms())
        assert len(plain) == 7  # two atoms dropped

    def test_sharp_width_2(self):
        assert sharp_hypertree_width(q0(), max_width=3) == 2

    def test_counting_agrees_with_brute_force(self):
        db = workforce_database(seed=11)
        result = count_answers(q0(), db)
        assert result.strategy == "compiled"
        assert result.count == count_brute_force(q0(), db)


class TestFigure4:
    """Example 3.5 / Figures 4, 7: #-covering w.r.t. the view set V0."""

    def test_q0_sharp_covered_wrt_v0(self):
        assert is_sharp_covered(q0(), v0_view_set(), try_all_cores=True)

    def test_core_sensitivity(self):
        """Only the core dropping the G branch admits a tree projection."""
        from repro.query import Atom, ConjunctiveQuery, color_symbol

        views = v0_view_set()
        colors = {Atom(color_symbol(v), (v,)) for v in (A, B, C)}

        def as_colored(atoms):
            return ConjunctiveQuery(frozenset(atoms) | colors,
                                    frozenset({A, B, C}))

        good = as_colored(q0_expected_core_atoms())
        bad = as_colored(q0_symmetric_core_atoms())
        assert is_sharp_covered(q0(), views, colored=good)
        assert not is_sharp_covered(q0(), views, colored=bad)


class TestFigure8:
    """Example 4.1: the 4-cycle Q1."""

    def test_frontier_contains_ac(self):
        fh = frontier_hypergraph(q1_cycle())
        assert frozenset({A, C}) in fh.edges

    def test_sharp_width_exactly_2(self):
        assert find_sharp_hypertree_decomposition(q1_cycle(), 1) is None
        assert sharp_hypertree_width(q1_cycle(), max_width=2) == 2


class TestFigures9And10:
    """Example 6.3 / 6.5: hybrid tractability of barQ^h_2."""

    @pytest.mark.parametrize("h", [2, 3])
    def test_structural_fails_hybrid_succeeds(self, h):
        # The frontier of the existential variables is the (h+1)-clique
        # {X0..Xh}; no pair of atoms covers three X's, so width 2 fails
        # for h >= 2 (the family has unbounded #-ghw).
        query, database = q2_bar(h), d2_bar_database(h)
        assert find_sharp_hypertree_decomposition(query, 2) is None
        hybrid = evaluate_pseudo_free(query, database, 2, q2_pseudo_free(h))
        assert hybrid is not None and hybrid.degree == 1

    def test_h1_boundary_is_still_width_2(self):
        # For h = 1 the "clique" is only {X0, X1}: rbar + v cover it, so
        # the purely structural method still applies at the family's base.
        assert find_sharp_hypertree_decomposition(q2_bar(1), 2) is not None

    def test_answer_count_is_m(self):
        h = 2
        query, database = q2_bar(h), d2_bar_database(h)
        result = count_answers(query, database, max_width=2)
        assert result.count == 2 ** h
        assert result.strategy == "hybrid"


class TestFigure11:
    """Example A.2: star size grows, #-hypertree width stays 1."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_separation(self, n):
        import math

        query = qn1_chain(n)
        assert quantified_star_size(query) == math.ceil(n / 2)
        assert sharp_hypertree_width(query, max_width=1) == 1

    def test_qn2_companion(self):
        """Unbounded ghw but #-htw = 1 (Theorem A.3 proof)."""
        query = qn2_biclique(3)
        assert generalized_hypertree_width(query.hypergraph()) == 3
        assert sharp_hypertree_width(query, max_width=1) == 1


class TestFigure12:
    """Example C.1/C.2: degrees over the counter database."""

    def test_width_1_bound_is_m_width_2_is_1(self):
        h = 2
        query, database = q2_acyclic(h), d2_database(h)
        tree = find_ghd_join_tree(query.hypergraph(), 1)
        width1 = hypertree_from_join_tree(tree, query, max_cover=1)
        assert degree_bound(width1, database, query.free_variables) == 2 ** h
        bound, _dec = d_optimal_decomposition(query, database, 2)
        assert bound == 1

    def test_figure_13_counts_m_answers(self):
        h = 3
        query, database = q2_acyclic(h), d2_database(h)
        tree = find_ghd_join_tree(query.hypergraph(), 1)
        decomposition = hypertree_from_join_tree(tree, query, max_cover=1)
        assert count_via_hypertree(query, database, decomposition) == 2 ** h
