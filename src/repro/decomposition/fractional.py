"""Fractional edge covers and fractional hypertree width (Remark 4.4, [GM14]).

The paper notes that all tractability results transfer from generalized
hypertree decompositions to *fractional* hypertree decompositions.  We
implement the fractional edge cover number ``rho*`` of a bag (an LP solved
with scipy when available, with an exact rational fallback via vertex
enumeration of the small LP's dual — bags are tiny) and the fractional width
of a decomposition: ``fhw = max_p rho*(chi(p))``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..hypergraph.acyclicity import JoinTree
from ..hypergraph.hypergraph import Hypergraph


def _linprog():
    """scipy's ``linprog``, imported on first use (``None`` without scipy).

    Importing ``scipy.optimize`` costs about half a second, so it stays
    off the package import path: only the LP-backed helpers below pay it,
    and only when called.
    """
    try:
        from scipy.optimize import linprog
    except Exception:  # pragma: no cover - import guard
        return None
    return linprog


def fractional_edge_cover_number(bag: Iterable, hypergraph: Hypergraph,
                                 exact: bool = False) -> float:
    """``rho*(bag)``: minimize ``sum_e x_e`` with ``sum_{e ∋ v} x_e >= 1``
    for every ``v`` in *bag*, over the hyperedges of *hypergraph*.

    With ``exact=True`` (or without scipy) a small exact rational solver is
    used: optimal basic solutions lie on intersections of constraint
    hyperplanes, enumerated directly — adequate for bag sizes in the paper's
    examples.
    """
    bag = frozenset(bag)
    if not bag:
        return 0.0
    edges = [e for e in hypergraph.edges if e & bag]
    if not edges:
        raise ValueError("bag contains nodes covered by no hyperedge")
    uncoverable = bag - frozenset().union(*edges)
    if uncoverable:
        raise ValueError(f"nodes {sorted(map(str, uncoverable))} not coverable")
    if not exact:
        value = _lp_scipy(bag, edges)
        if value is not None:
            return value
    return float(_lp_exact(bag, edges))


def _lp_scipy(bag: FrozenSet,
              edges: Sequence[FrozenSet]) -> Optional[float]:
    linprog = _linprog()
    if linprog is None:  # pragma: no cover - scipy missing
        return None
    nodes = sorted(bag, key=str)
    a_ub = [[-1.0 if node in edge else 0.0 for edge in edges] for node in nodes]
    b_ub = [-1.0] * len(nodes)
    cost = [1.0] * len(edges)
    result = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * len(edges),
                     method="highs")
    if not result.success:  # pragma: no cover - LP is always feasible here
        raise RuntimeError(f"LP failed: {result.message}")
    return float(result.fun)


def _lp_exact(bag: FrozenSet, edges: Sequence[FrozenSet]) -> Fraction:
    """Exact rational LP via the dual: maximize ``sum_v y_v`` with
    ``sum_{v in e} y_v <= 1`` per edge, ``y >= 0`` (fractional independent
    set).  Optimal vertices are solutions of square subsystems; enumerate.
    """
    nodes = sorted(bag, key=str)
    n = len(nodes)
    node_index = {v: i for i, v in enumerate(nodes)}
    rows: List[Tuple[Tuple[Fraction, ...], Fraction]] = []
    for edge in edges:
        coeff = [Fraction(0)] * n
        for v in edge & bag:
            coeff[node_index[v]] = Fraction(1)
        rows.append((tuple(coeff), Fraction(1)))
    for i in range(n):  # y_i >= 0 as -y_i <= 0
        coeff = [Fraction(0)] * n
        coeff[i] = Fraction(-1)
        rows.append((tuple(coeff), Fraction(0)))
    best = Fraction(0)
    for subset in combinations(range(len(rows)), n):
        system = [rows[i] for i in subset]
        solution = _solve_square([list(r[0]) for r in system],
                                 [r[1] for r in system])
        if solution is None:
            continue
        if any(y < 0 for y in solution):
            continue
        feasible = all(
            sum(c * y for c, y in zip(coeff, solution)) <= rhs
            for coeff, rhs in rows
        )
        if feasible:
            best = max(best, sum(solution))
    return best


def _solve_square(matrix: List[List[Fraction]], rhs: List[Fraction]
                  ) -> Optional[List[Fraction]]:
    """Gaussian elimination over rationals; ``None`` if singular."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1, 1) / a[col][col]
        a[col] = [value * inv for value in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def _solve_float(matrix: List[List[float]], rhs: List[float]
                 ) -> Optional[List[float]]:
    """Gaussian elimination with partial pivoting; ``None`` if singular."""
    n = len(rhs)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[pivot][col]) < 1e-9:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = 1.0 / a[col][col]
        a[col] = [value * inv for value in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0.0:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


#: Largest number of square subsystems :func:`cover_vertices` solves
#: before settling for the integral covers (bag-sized hypergraphs stay
#: below it: a 4-cycle needs 70, a 5-cycle 252).
MAX_COVER_SUBSYSTEMS = 500


def cover_vertices(nodes: Iterable, edges: Sequence[FrozenSet]
                   ) -> List[Tuple[Fraction, ...]]:
    """Fractional edge covers of *nodes* to price the AGM bound with.

    ``prod_e |r_e|^{x_e}`` bounds a join's size for every fractional
    edge cover ``x`` ([GM14]).  Its minimum over the cover polyhedron
    ``{x >= 0 : sum_{e ∋ v} x_e >= 1}`` is the AGM bound and, the
    objective being linear in log space with nonnegative weights, sits
    at a vertex of the polyhedron.  Returned are all its vertices —
    found by solving the square subsystems of tight constraints in
    floats, each candidate recovered and verified exactly as rationals
    — so a caller gets the AGM bound for any relation sizes by
    evaluating a handful of products, with no LP solver.  When
    that enumeration would exceed :data:`MAX_COVER_SUBSYSTEMS`, only
    the minimal integral covers are returned: still valid bounds, just
    looser.  ``x[i]`` weights ``edges[i]``; an uncoverable node yields
    no covers at all.  Memoized: callers price many bags of few shapes.
    """
    nodes = tuple(sorted(set(nodes), key=str))
    return list(_cover_vertices(nodes,
                                tuple(frozenset(edge) for edge in edges)))


@lru_cache(maxsize=1024)
def _cover_vertices(nodes: tuple, edges: tuple) -> tuple:
    m = len(edges)
    if not nodes:
        return (tuple(Fraction(0) for _ in edges),)
    if set(nodes) - frozenset().union(*edges):
        return ()
    incidence = [[Fraction(1) if node in edge else Fraction(0)
                  for edge in edges] for node in nodes]

    def feasible(x) -> bool:
        return all(value >= 0 for value in x) and all(
            sum(c * value for c, value in zip(row, x)) >= 1
            for row in incidence
        )

    found = set()
    if comb(m + len(nodes), m) <= MAX_COVER_SUBSYSTEMS:
        # Constraint rows: one cover row per node, then ``x_e >= 0``.
        # Floats find the candidates fast; each survivor is recovered as
        # a rational and kept only if it is exactly feasible.
        rows = [[float(c) for c in row] for row in incidence]
        rows += [[float(i == e) for i in range(m)] for e in range(m)]
        rhs = [1.0] * len(nodes) + [0.0] * m
        cover_rows = rows[:len(nodes)]
        seen = set()
        for subset in combinations(range(len(rows)), m):
            solution = _solve_float([rows[i] for i in subset],
                                    [rhs[i] for i in subset])
            if solution is None or min(solution) < -1e-9 or any(
                    sum(c * v for c, v in zip(row, solution)) < 1 - 1e-9
                    for row in cover_rows):
                continue
            key = tuple(round(value, 9) for value in solution)
            if key in seen:
                continue
            seen.add(key)
            x = tuple(Fraction(value).limit_denominator(1 << 16)
                      for value in solution)
            if feasible(x):
                found.add(x)
        return tuple(sorted(found))
    for size in range(1, m + 1):
        for chosen in combinations(range(m), size):
            x = tuple(Fraction(int(e in chosen)) for e in range(m))
            if feasible(x) and not any(
                    all(a <= b for a, b in zip(other, x))
                    for other in found):
                found.add(x)
    return tuple(sorted(found))


def fractional_width_of_tree(tree: JoinTree, hypergraph: Hypergraph,
                             exact: bool = False) -> float:
    """``max_p rho*(bag_p)`` over the join tree's bags."""
    return max(
        (fractional_edge_cover_number(bag, hypergraph, exact=exact)
         for bag in tree.bags if bag),
        default=0.0,
    )


def agm_bound(query, database) -> float:
    """The AGM output-size bound ``prod_e |r_e|^{x_e}`` ([GM14]).

    Using an optimal fractional edge cover ``x`` of *all* variables, the
    number of satisfying assignments of the query is at most
    ``prod_e |r_e|^{x_e}``.  Computed from the cover LP's optimal weights;
    a worst-case optimal bound on ``|Q(D)|`` (and hence on the answer
    count), useful for sizing the counting problem before running it.
    """
    import math

    bag = frozenset(query.variables)
    hypergraph = query.hypergraph()
    edges = sorted(hypergraph.edges, key=lambda e: sorted(map(str, e)))
    # Re-solve the LP keeping the per-edge weights.
    nodes = sorted(bag, key=str)
    if not nodes:
        return 1.0
    sizes = {}
    for atom in query.atoms:
        edge = atom.variable_set
        size = len(database[atom.relation])
        sizes[edge] = min(sizes.get(edge, size), size)
    linprog = _linprog()
    if linprog is not None:
        a_ub = [[-1.0 if node in edge else 0.0 for edge in edges]
                for node in nodes]
        b_ub = [-1.0] * len(nodes)
        cost = [math.log(max(sizes[edge], 1)) for edge in edges]
        result = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                         bounds=[(0, None)] * len(edges), method="highs")
        if result.success:
            return float(math.exp(result.fun))
    # Fallback: uniform optimal cover weights give a valid (weaker) bound.
    rho = fractional_edge_cover_number(bag, hypergraph, exact=True)
    biggest = max(sizes.values(), default=1)
    return float(biggest ** rho)
