"""Unit tests for fractional edge covers (Remark 4.4)."""

from fractions import Fraction

import pytest

from repro.decomposition.fractional import (
    cover_vertices,
    fractional_edge_cover_number,
    fractional_width_of_tree,
)
from repro.hypergraph.acyclicity import JoinTree
from repro.hypergraph.hypergraph import Hypergraph
from repro.query.terms import Variable

A, B, C, D, E = (Variable(x) for x in "ABCDE")


def hg(*edges):
    return Hypergraph([], [frozenset(e) for e in edges])


class TestFractionalCover:
    def test_single_edge_covers_itself(self):
        h = hg({A, B})
        assert fractional_edge_cover_number({A, B}, h) == pytest.approx(1.0)

    def test_triangle_needs_three_halves(self):
        """rho*(triangle) = 3/2 — the classic AGM example."""
        h = hg({A, B}, {B, C}, {C, A})
        value = fractional_edge_cover_number({A, B, C}, h)
        assert value == pytest.approx(1.5)

    def test_exact_solver_agrees_with_lp(self):
        h = hg({A, B}, {B, C}, {C, A})
        lp = fractional_edge_cover_number({A, B, C}, h, exact=False)
        exact = fractional_edge_cover_number({A, B, C}, h, exact=True)
        assert lp == pytest.approx(exact)

    def test_five_cycle(self):
        """rho*(C5) = 5/2."""
        vs = [Variable(f"V{i}") for i in range(5)]
        h = hg(*({vs[i], vs[(i + 1) % 5]} for i in range(5)))
        value = fractional_edge_cover_number(set(vs), h, exact=True)
        assert value == pytest.approx(2.5)

    def test_empty_bag(self):
        assert fractional_edge_cover_number(set(), hg({A})) == 0.0

    def test_uncoverable_bag_raises(self):
        with pytest.raises(ValueError):
            fractional_edge_cover_number({A, E}, hg({A, B}))

    def test_subset_of_edge_costs_one(self):
        h = hg({A, B, C})
        assert fractional_edge_cover_number({A, B}, h) == pytest.approx(1.0)


class TestFractionalWidth:
    def test_width_of_tree(self):
        h = hg({A, B}, {B, C}, {C, A})
        tree = JoinTree((frozenset({A, B, C}),), ())
        assert fractional_width_of_tree(tree, h) == pytest.approx(1.5)

    def test_width_of_empty_tree(self):
        assert fractional_width_of_tree(JoinTree((), ()), hg({A})) == 0.0


class TestCoverVertices:
    """The vertices priced by the compiled tier's AGM caps: their best
    total weight is rho*, and every one is a feasible cover."""

    @pytest.mark.parametrize("edges", [
        ({A, B}, {B, C}, {C, A}),
        ({A, B}, {B, C}, {C, D}, {D, A}),
        ({A, B}, {B, C}, {C, D}, {D, E}, {E, A}),
        ({A, B, C}, {C, D}, {A, D}, {B}),
    ])
    def test_best_vertex_is_rho_star(self, edges):
        nodes = frozenset().union(*edges)
        vertices = cover_vertices(nodes, [frozenset(e) for e in edges])
        assert vertices
        for weights in vertices:
            for node in nodes:
                assert sum(w for w, e in zip(weights, edges)
                           if node in e) >= 1
        rho = fractional_edge_cover_number(nodes, hg(*edges), exact=True)
        assert float(min(sum(weights) for weights in vertices)) == \
            pytest.approx(rho)

    def test_triangle_has_the_half_cover(self):
        edges = [frozenset({A, B}), frozenset({B, C}), frozenset({C, A})]
        assert (Fraction(1, 2),) * 3 in cover_vertices({A, B, C}, edges)

    def test_uncoverable_nodes_have_no_cover(self):
        assert cover_vertices({A, E}, [frozenset({A, B})]) == []
