"""Degree statistics of databases (Sections 1.2 and 6).

For a relation ``r`` and a set of (atom-bound) variables ``X``, the paper's
*degree* ``deg_D(X, r)`` is the maximum number of ways a value of the
``X``-columns extends to a full tuple of ``r``.  Degree 1 means the columns
form a key (a functional dependency onto the rest); small degrees are
quasi-keys.  Example 1.5 uses exactly these statistics to decide which
existential variables deserve pseudo-free promotion, and this module makes
that reasoning automatic:

* :func:`attribute_degree` / :func:`atom_variable_degree` — raw degrees;
* :func:`key_positions` / :func:`functional_dependencies` — key discovery;
* :func:`degree_profile` — per-variable worst-case degrees across a query;
* :func:`suggest_pseudo_free` — data-driven pseudo-free candidate sets for
  the hybrid search of Theorem 6.7 (wired into
  :func:`repro.decomposition.hybrid.find_hybrid_decomposition` via the
  ``candidates`` parameter).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..query.atom import Atom
from ..query.query import ConjunctiveQuery
from ..query.terms import Variable
from .database import Database
from .relation import Relation


class Statistics:
    """A cheap, lazily-computed statistics handle for one relation.

    Obtained via :meth:`Relation.statistics` (one cached instance per
    relation); each figure is computed on demand by one C-level pass
    over the rows and cached, so asking twice costs nothing.  The
    engine's cost model consumes these to rank counting strategies.
    """

    __slots__ = ("relation", "_values", "_degrees")

    def __init__(self, relation: Relation):
        self.relation = relation
        self._values: Dict[int, FrozenSet] = {}
        self._degrees: Dict[Tuple[int, ...], int] = {}

    @property
    def cardinality(self) -> int:
        """``|r|``: the number of tuples."""
        return len(self.relation)

    def values(self, position: int) -> FrozenSet:
        """The distinct values in the column at *position* (cached: the
        sampler's candidate domains read them on every request)."""
        cached = self._values.get(position)
        if cached is None:
            cached = frozenset(map(itemgetter(position), self.relation))
            self._values[position] = cached
        return cached

    def distinct(self, position: int) -> int:
        """Number of distinct values in the column at *position*."""
        return len(self.values(position))

    def distinct_counts(self) -> Tuple[int, ...]:
        """Distinct-value counts for every column."""
        return tuple(self.distinct(i) for i in range(self.relation.arity))

    def degree(self, positions: Sequence[int]) -> int:
        """``deg_D(X, r)`` for the columns at *positions* (cached)."""
        positions = tuple(positions)
        cached = self._degrees.get(positions)
        if cached is None:
            if not positions:
                cached = len(self.relation)
            else:
                # Group sizes via a C-level Counter over the key column(s):
                # no index of row tuples is built just to be measured.
                cached = max(
                    Counter(map(itemgetter(*positions), self.relation)
                            ).values(),
                    default=0,
                )
            self._degrees[positions] = cached
        return cached

    def max_column_degree(self) -> int:
        """Worst single-column degree: how far the relation is from keyed.

        1 when some column is a key is *not* implied — this is the maximum
        over columns of per-column degree, a quick skew signal.
        """
        if self.relation.arity == 0 or len(self.relation) == 0:
            return len(self.relation)
        return max(self.degree((i,)) for i in range(self.relation.arity))


def attribute_degree(relation: Relation, positions: Sequence[int]) -> int:
    """``deg_D(X, r)`` for the columns at *positions* (paper, Section 1.2).

    The maximum, over value combinations of those columns, of the number of
    full tuples carrying that combination; 0 for the empty relation.
    """
    return relation.statistics().degree(tuple(positions))


def atom_variable_degree(atom: Atom, relation: Relation,
                         variables: Iterable[Variable]) -> int:
    """Degree of a set of the atom's variables within its relation.

    Variables map to their first position in the atom; variables not in the
    atom are ignored (degree over the intersection).
    """
    positions: List[int] = []
    seen: set = set()
    wanted = frozenset(variables)
    for index, term in enumerate(atom.terms):
        if isinstance(term, Variable) and term in wanted and term not in seen:
            positions.append(index)
            seen.add(term)
    return attribute_degree(relation, positions)


def key_positions(relation: Relation, max_width: int = 2
                  ) -> List[Tuple[int, ...]]:
    """Minimal column sets of size ``<= max_width`` that are keys.

    A column set is a key when its degree is 1 (each combination determines
    the full tuple).  Supersets of reported keys are suppressed.
    """
    keys: List[Tuple[int, ...]] = []
    for width in range(1, min(max_width, relation.arity) + 1):
        for columns in combinations(range(relation.arity), width):
            if any(set(existing) <= set(columns) for existing in keys):
                continue
            if attribute_degree(relation, columns) <= 1:
                keys.append(columns)
    return keys


def functional_dependencies(relation: Relation, max_lhs: int = 2
                            ) -> List[Tuple[Tuple[int, ...], int]]:
    """Column-level FDs ``lhs -> rhs`` with ``|lhs| <= max_lhs``.

    Reported as ``(lhs_positions, rhs_position)`` pairs with minimal left
    sides (no reported FD's lhs strictly contains another's for the same
    rhs).
    """
    dependencies: List[Tuple[Tuple[int, ...], int]] = []
    for rhs in range(relation.arity):
        found: List[Tuple[int, ...]] = []
        for width in range(1, min(max_lhs, relation.arity - 1) + 1):
            for lhs in combinations(
                    (c for c in range(relation.arity) if c != rhs), width):
                if any(set(existing) <= set(lhs) for existing in found):
                    continue
                images: Dict[tuple, object] = {}
                holds = True
                for row in relation:
                    key = tuple(row[i] for i in lhs)
                    value = row[rhs]
                    if images.setdefault(key, value) != value:
                        holds = False
                        break
                if holds:
                    found.append(lhs)
        dependencies.extend((lhs, rhs) for lhs in found)
    return dependencies


def degree_profile(query: ConjunctiveQuery, database: Database
                   ) -> Dict[Variable, int]:
    """Worst-case extension degree of each variable across the query.

    For each variable ``Y`` and each atom containing it, the degree of the
    atom's *other* variables tells how many ``Y``-extensions a fixed
    context admits; the profile records the best (minimum) such bound over
    the atoms — a variable is "cheap" if *some* atom pins it tightly,
    because the vertex relations of a decomposition can exploit that atom.
    """
    profile: Dict[Variable, int] = {}
    for atom in query.atoms_sorted():
        relation = database[atom.relation]
        for variable in atom.variables:
            others = [v for v in atom.variables if v != variable]
            bound = atom_variable_degree(atom, relation, others)
            if bound == 0:
                bound = 1  # empty relation: vacuously a key
            best = profile.get(variable)
            profile[variable] = bound if best is None else min(best, bound)
    return profile


def suggest_pseudo_free(query: ConjunctiveQuery, database: Database,
                        threshold: int = 1,
                        max_candidates: int = 8
                        ) -> List[FrozenSet[Variable]]:
    """Data-driven pseudo-free candidate sets (Example 1.5 automated).

    Existential variables whose degree profile stays within *threshold*
    are promotion candidates; the returned list contains the free set
    itself, the full promotion of all cheap variables, and its
    leave-one-out / take-one subsets — ordered so that the hybrid search
    probes the most promising sets first.
    """
    profile = degree_profile(query, database)
    cheap = sorted(
        (v for v in query.existential_variables
         if profile.get(v, float("inf")) <= threshold),
        key=lambda v: v.name,
    )
    free = query.free_variables
    candidates: List[FrozenSet[Variable]] = []
    if cheap:
        candidates.append(free | frozenset(cheap))
        for variable in cheap:
            candidates.append(free | (frozenset(cheap) - {variable}))
        for variable in cheap:
            candidates.append(free | {variable})
    candidates.append(free)
    unique: List[FrozenSet[Variable]] = []
    seen: set = set()
    for candidate in candidates:
        if candidate not in seen:
            seen.add(candidate)
            unique.append(candidate)
        if len(unique) >= max_candidates:
            break
    return unique
