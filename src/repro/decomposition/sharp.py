"""#-decompositions and #-hypertree decompositions (Definitions 1.2 and 1.4).

A *#-decomposition* of ``Q`` w.r.t. a view set ``V`` is a tree projection
``Ha`` for ``(H_Q', H_V)`` that also covers the frontier hypergraph
``FH(Q', free(Q))``, where ``Q'`` is some core of ``color(Q)``.  A
*#-hypertree decomposition of width k* is the special case ``V = V^k_Q``;
the *#-hypertree width* is the least such ``k``.

Following Theorem 3.6, covering both ``H_Q'`` and the frontier hypergraph is
the same as covering their union ``H'``, so the search reduces to a single
tree-projection computation — exponential in the query size only.

In the general view framework different cores can behave differently
(Example 3.5): :func:`all_colored_cores` enumerates them so callers can probe
each, while the default pipeline uses the canonical (deterministic) core.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, List, Optional, Tuple

from ..consistency.views import ViewSet, hypertree_view_set
from ..exceptions import DecompositionNotFoundError
from ..homomorphism.core import colored_core, core_pair
from ..homomorphism.solver import has_homomorphism, query_as_database
from ..hypergraph.acyclicity import JoinTree
from ..hypergraph.frontier import frontier_hypergraph
from ..hypergraph.hypergraph import Hypergraph, covers
from ..query.coloring import color, is_color_atom, uncolor
from ..query.query import ConjunctiveQuery
from .tree_projection import candidate_bags, find_tree_projection


@dataclass(frozen=True)
class SharpDecomposition:
    """A #-decomposition together with everything counting needs.

    Attributes
    ----------
    query:
        The original query ``Q``.
    colored_core:
        The core ``Qc`` of ``color(Q)`` that was used.
    core:
        Its uncolored version ``Q'`` (a subquery of ``Q``).
    tree:
        The join tree of the tree projection ``Ha``; its bags are the
        hyperedges of ``Ha``.
    views:
        The view set the decomposition is relative to.
    bag_views:
        Per-bag witness view name (``bag <= view.variables``).
    """

    query: ConjunctiveQuery
    colored_core: ConjunctiveQuery
    core: ConjunctiveQuery
    tree: JoinTree
    views: ViewSet
    bag_views: Tuple[str, ...]

    def width(self) -> int:
        """Max number of source atoms over the witness views."""
        return max(
            (len(self.views[name].source_atoms) for name in self.bag_views),
            default=0,
        )

    def covered_hypergraph(self) -> Hypergraph:
        """The hypergraph ``H'`` the decomposition covers (for validation)."""
        return sharp_cover_hypergraph(self.query, self.colored_core)

    def is_valid(self) -> bool:
        """Re-check Definition 1.4 end-to-end."""
        bags = Hypergraph(self.covered_hypergraph().nodes, self.tree.bags)
        if not covers(self.covered_hypergraph(), bags):
            return False
        if not self.tree.is_valid():
            return False
        for bag, name in zip(self.tree.bags, self.bag_views):
            if not bag <= self.views[name].variables:
                return False
        return True


def sharp_cover_hypergraph(query: ConjunctiveQuery,
                           colored: ConjunctiveQuery) -> Hypergraph:
    """``H' = H_{Q'} ∪ FH(Q', free(Q))`` (proof of Theorem 3.6).

    *colored* is a core of ``color(query)``; coloring atoms contribute the
    singleton free-variable hyperedges, exactly as in Example 3.4.
    """
    base = colored.hypergraph()
    frontier = frontier_hypergraph(colored, query.free_variables)
    return base.union(frontier)


def all_colored_cores(query: ConjunctiveQuery) -> List[ConjunctiveQuery]:
    """Every core of ``color(Q)`` (as a set of atom subsets).

    All cores have the same number of atoms and always contain every
    coloring atom, so the enumeration fixes those and chooses among the
    plain atoms.  Exponential in the query size; meant for small queries and
    for reproducing Example 3.5's core-sensitivity.
    """
    colored = color(query)
    canonical = colored_core(query)
    color_atoms = frozenset(a for a in colored.atoms if is_color_atom(a))
    plain_atoms = sorted(colored.atoms - color_atoms, key=repr)
    needed = len(canonical.atoms) - len(color_atoms)
    target_db = query_as_database(colored)
    cores: List[ConjunctiveQuery] = []
    for combo in combinations(plain_atoms, needed):
        candidate = colored.restrict_to_atoms(frozenset(combo) | color_atoms)
        # candidate <= colored, so one homomorphism direction is free;
        # equivalence needs colored -> candidate.
        if has_homomorphism(colored, query_as_database(candidate)):
            if has_homomorphism(candidate, target_db):
                cores.append(candidate)
    return cores


#: Bounded memo for decomposition searches.  The search is pure in its
#: arguments (all data-independent), and the engine's ``"auto"`` cascade,
#: the sampler and repeated counting calls keep asking for the same
#: (query, width) searches — including failed ones, which are exactly as
#: expensive and just as cacheable.  The lock guards the
#: check/move/evict sequences: thread shards (and a shard server's shard
#: cores) reach this memo concurrently.
_SEARCH_MEMO: "OrderedDict[tuple, Optional[SharpDecomposition]]" = OrderedDict()
_SEARCH_MEMO_CAP = 256
_SEARCH_MEMO_LOCK = threading.Lock()


def clear_search_memo() -> None:
    """Drop all memoized decomposition searches (mainly for tests)."""
    with _SEARCH_MEMO_LOCK:
        _SEARCH_MEMO.clear()


def _memo_lookup(key: tuple):
    """``(value, found)`` for *key*, LRU-touching on a hit."""
    with _SEARCH_MEMO_LOCK:
        if key in _SEARCH_MEMO:
            _SEARCH_MEMO.move_to_end(key)
            return _SEARCH_MEMO[key], True
    return None, False


def _memo_store(key: tuple, value) -> None:
    with _SEARCH_MEMO_LOCK:
        _SEARCH_MEMO[key] = value
        if len(_SEARCH_MEMO) > _SEARCH_MEMO_CAP:
            _SEARCH_MEMO.popitem(last=False)


def find_sharp_decomposition(query: ConjunctiveQuery, views: ViewSet,
                             colored: Optional[ConjunctiveQuery] = None,
                             try_all_cores: bool = False,
                             core_width_hint: Optional[int] = None,
                             ) -> Optional[SharpDecomposition]:
    """A #-decomposition of *query* w.r.t. *views* (Definition 1.4).

    Results (including ``None`` for failed searches) are memoized in a
    bounded LRU keyed by the full argument tuple.

    Parameters
    ----------
    colored:
        Use this specific core of ``color(query)`` instead of the canonical
        one (Example 3.5 needs to probe particular cores).
    try_all_cores:
        Probe every core of the coloring; the first one admitting a tree
        projection wins.  Needed for full fidelity to "some core" in
        Definition 1.4 when arbitrary view sets are in play.
    core_width_hint:
        Forwarded to the Lemma 4.3 consistency-based core computation when
        given (polynomial path); otherwise the exhaustive core is used.
    """
    key = (query, views.views, colored, try_all_cores, core_width_hint)
    cached, found = _memo_lookup(key)
    if found:
        return cached
    result = _find_sharp_decomposition(
        query, views, colored, try_all_cores, core_width_hint
    )
    _memo_store(key, result)
    return result


def _find_sharp_decomposition(query: ConjunctiveQuery, views: ViewSet,
                              colored: Optional[ConjunctiveQuery],
                              try_all_cores: bool,
                              core_width_hint: Optional[int],
                              ) -> Optional[SharpDecomposition]:
    if colored is not None:
        candidates = [colored]
    elif try_all_cores:
        candidates = all_colored_cores(query)
    else:
        candidates = [core_pair(query, core_width_hint)[0]]
    view_hypergraph = views.hypergraph()
    for candidate in candidates:
        to_cover = sharp_cover_hypergraph(query, candidate)
        bags = candidate_bags(view_hypergraph, to_cover.nodes)
        tree = find_tree_projection(to_cover, bags)
        if tree is None:
            continue
        bag_views = tuple(
            _witness_view(views, bag) for bag in tree.bags
        )
        return SharpDecomposition(
            query=query,
            colored_core=candidate,
            core=uncolor(candidate, name=f"core({query.name})"),
            tree=tree,
            views=views,
            bag_views=bag_views,
        )
    return None


def _witness_view(views: ViewSet, bag: FrozenSet) -> str:
    """The name of a smallest view containing *bag* (smallest source count)."""
    best = None
    for view in views.views_covering(bag):
        if best is None or len(view.source_atoms) < len(best.source_atoms):
            best = view
    if best is None:
        raise DecompositionNotFoundError(
            f"no view covers bag {sorted(map(str, bag))}"
        )
    return best.name


def find_sharp_hypertree_decomposition(query: ConjunctiveQuery, width: int,
                                       **kwargs) -> Optional[SharpDecomposition]:
    """A width-*width* #-hypertree decomposition (Definition 1.2):
    a #-decomposition w.r.t. ``V^k_Q``.

    Memoized per (query, width, options) *before* the ``V^k_Q`` view set
    is enumerated, so repeat probes — the engine's auto cascade asks for
    the same widths over and over — skip the O(m^width) view construction
    too, not just the tree-projection search.
    """
    try:
        key = (query, width, tuple(sorted(kwargs.items())))
        hash(key)
    except TypeError:  # unhashable option value: fall through uncached
        key = None
    if key is not None:
        cached, found = _memo_lookup(key)
        if found:
            return cached
    views = hypertree_view_set(query, width)
    result = find_sharp_decomposition(query, views, **kwargs)
    if key is not None:
        _memo_store(key, result)
    return result


def find_sharp_hypertree_decomposition_up_to(query: ConjunctiveQuery,
                                             max_width: int, **kwargs
                                             ) -> Optional[SharpDecomposition]:
    """The least-width #-hypertree decomposition with width
    ``<= max_width``, or ``None`` — the iterative-deepening loop shared
    by the structural counter, the reduced maintainer, and the workload
    generators, so "bounded #-hypertree width" means one thing."""
    for width in range(1, max_width + 1):
        decomposition = find_sharp_hypertree_decomposition(
            query, width, **kwargs
        )
        if decomposition is not None:
            return decomposition
    return None


def sharp_hypertree_width(query: ConjunctiveQuery,
                          max_width: Optional[int] = None, **kwargs) -> int:
    """The #-hypertree width by iterative deepening over ``k``."""
    ceiling = max_width if max_width is not None else len(query.atoms)
    for width in range(1, ceiling + 1):
        if find_sharp_hypertree_decomposition(query, width, **kwargs) is not None:
            return width
    raise DecompositionNotFoundError(
        f"#-hypertree width of {query.name} exceeds {ceiling}"
    )


def is_sharp_covered(query: ConjunctiveQuery, views: ViewSet,
                     **kwargs) -> bool:
    """Is *query* #-covered w.r.t. *views* (Definition 1.4)?"""
    return find_sharp_decomposition(query, views, **kwargs) is not None
