"""Homomorphism search.

A homomorphism from a query ``Q`` to a database ``D`` (paper, Section 2) is a
mapping from ``vars(Q)`` to constants such that every atom's image is a tuple
of the corresponding relation; constants map to themselves.  Queries are also
relational structures, so homomorphisms *between queries* — the basis of core
computation — are obtained by viewing the target query as a database via
:func:`query_as_database`.

The solver is a backtracking search with most-constrained-variable ordering
and per-atom forward checking.  It is exponential only in the query size,
matching the paper's parameterization (queries small, databases large).

Consistency checks run against the cached hash indexes of each atom's
matched :class:`~repro.db.algebra.SubstitutionSet`, and the per-pair search
space (matched atoms plus unconstrained variable domains) is memoized, so
repeated existence tests over the same (query, database) pair — the access
pattern of Monte Carlo membership sampling and of core computation — skip
straight to the backtracking.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Hashable, Iterator, List, Mapping, Optional, Set, Tuple

from ..db.algebra import SubstitutionSet
from ..db.database import Database
from ..db.relation import Relation
from ..query.query import ConjunctiveQuery
from ..query.terms import Constant, Variable


def query_as_database(query: ConjunctiveQuery) -> Database:
    """The query viewed as a database ``D_Q`` (proof of Lemma 4.3).

    Variables stay as themselves (they are hashable values); constants are
    unwrapped to their raw value, so that a :class:`Constant` term in a
    source atom matches exactly itself in the target — homomorphisms fix
    constants for free.
    """
    rows_by_symbol: Dict[str, List[tuple]] = {}
    arities: Dict[str, int] = {}
    for atom in query.atoms:
        row = tuple(
            t.value if isinstance(t, Constant) else t for t in atom.terms
        )
        rows_by_symbol.setdefault(atom.relation, []).append(row)
        arities[atom.relation] = atom.arity
    return Database(
        Relation(symbol, arities[symbol], rows)
        for symbol, rows in rows_by_symbol.items()
    )


class _SearchSpace:
    """Shared pre-processing for one (query, database) pair.

    Each atom's pattern (constants, repeated variables) is matched once
    into a :class:`SubstitutionSet`; consistency checks probe that set's
    cached key indexes instead of scanning relation tuples.
    """

    def __init__(self, query: ConjunctiveQuery, database: Database):
        self.query = query
        self.atoms = query.atoms_sorted()
        self.matched: Dict[object, SubstitutionSet] = {}
        for atom in self.atoms:
            if atom in self.matched:
                continue
            relation = database.get(atom.relation)
            if relation is None:
                relation = Relation(atom.relation, atom.arity, ())
            self.matched[atom] = SubstitutionSet.from_atom(atom, relation)
        self._base_domains: Optional[Dict[Variable, frozenset]] = None
        self._base_computed = False

    def _compute_base_domains(self) -> Optional[Dict[Variable, frozenset]]:
        if any(not matched.rows for matched in self.matched.values()):
            return None  # some atom (even a constant-only one) has no tuple
        domains: Dict[Variable, set] = {}
        for atom in self.atoms:
            matched = self.matched[atom]
            for variable in matched.schema:
                values = {
                    key[0] for key in matched.projection_keys((variable,))
                }
                if variable in domains:
                    domains[variable] &= values
                else:
                    domains[variable] = values
        if any(not values for values in domains.values()):
            return None
        return {v: frozenset(values) for v, values in domains.items()}

    def initial_domains(self, fixed: Mapping[Variable, Hashable]
                        ) -> Optional[Dict[Variable, Set]]:
        """Per-variable candidate sets, or ``None`` if some variable has none."""
        if not self._base_computed:
            self._base_domains = self._compute_base_domains()
            self._base_computed = True
        if self._base_domains is None:
            return None
        domains: Dict[Variable, Set] = {
            v: set(values) for v, values in self._base_domains.items()
        }
        for variable, value in fixed.items():
            if variable in domains:
                if value not in domains[variable]:
                    return None
                domains[variable] = {value}
        return domains

    def atom_consistent(self, atom, assignment: Mapping[Variable, Hashable]
                        ) -> bool:
        """Is there a target tuple compatible with the partial assignment?

        A hash probe: the assignment's bound subset of the atom's schema
        keys into the matched set's cached projection keys.
        """
        matched = self.matched[atom]
        if not matched.rows:
            return False
        bound = tuple(v for v in matched.schema if v in assignment)
        if not bound:
            return True
        key = tuple(assignment[v] for v in bound)
        return key in matched.projection_keys(bound)


#: Bounded memo of search spaces.  Keyed by the query plus the database
#: *content* (relation rows are frozensets, which cache their hashes), so
#: equal databases built independently — e.g. repeated
#: ``query_as_database`` results during core computation — share one entry.
_SPACE_MEMO: "OrderedDict[tuple, _SearchSpace]" = OrderedDict()
_SPACE_MEMO_CAP = 64


#: Guards the check/move/evict sequences: thread shards (and a shard
#: server's shard cores) reach this memo concurrently.
_SPACE_MEMO_LOCK = threading.Lock()


def clear_space_memo() -> None:
    """Drop the memoized search spaces (tests, cold-cache benchmarks)."""
    with _SPACE_MEMO_LOCK:
        _SPACE_MEMO.clear()


def _search_space(query: ConjunctiveQuery, database: Database) -> _SearchSpace:
    key = (query, database.content_fingerprint())
    with _SPACE_MEMO_LOCK:
        space = _SPACE_MEMO.get(key)
        if space is not None:
            _SPACE_MEMO.move_to_end(key)
            return space
    space = _SearchSpace(query, database)
    with _SPACE_MEMO_LOCK:
        _SPACE_MEMO[key] = space
        if len(_SPACE_MEMO) > _SPACE_MEMO_CAP:
            _SPACE_MEMO.popitem(last=False)
    return space


def iter_homomorphisms(query: ConjunctiveQuery, database: Database,
                       fixed: Optional[Mapping[Variable, Hashable]] = None
                       ) -> Iterator[Dict[Variable, Hashable]]:
    """Yield every homomorphism from *query* to *database*.

    *fixed* pre-binds some variables (used for existential-extension checks
    and for the identity-on-free-variables homomorphisms of Section 5.3).
    """
    fixed = dict(fixed or {})
    space = _search_space(query, database)
    domains = space.initial_domains(fixed)
    if domains is None:
        return
    variables = sorted(domains, key=lambda v: (len(domains[v]), v.name))
    atoms_by_var: Dict[Variable, List] = {v: [] for v in variables}
    for atom in space.atoms:
        for variable in atom.variables:
            atoms_by_var[variable].append(atom)

    assignment: Dict[Variable, Hashable] = dict(fixed)
    # Pre-bound variables never trigger the per-variable consistency
    # checks below (backtracking skips them), so an atom whose variables
    # are *all* fixed would otherwise never be probed at all — a full
    # ``fixed`` assignment must still be a homomorphism, not merely
    # domain-wise plausible.  One hash probe per atom settles it.
    if fixed and not all(space.atom_consistent(atom, assignment)
                         for atom in space.atoms):
        return

    def backtrack(index: int) -> Iterator[Dict[Variable, Hashable]]:
        if index == len(variables):
            yield dict(assignment)
            return
        variable = variables[index]
        if variable in fixed:
            yield from backtrack(index + 1)
            return
        for value in domains[variable]:
            assignment[variable] = value
            if all(space.atom_consistent(atom, assignment)
                   for atom in atoms_by_var[variable]):
                yield from backtrack(index + 1)
            del assignment[variable]

    yield from backtrack(0)


def find_homomorphism(query: ConjunctiveQuery, database: Database,
                      fixed: Optional[Mapping[Variable, Hashable]] = None
                      ) -> Optional[Dict[Variable, Hashable]]:
    """The first homomorphism found, or ``None``."""
    for hom in iter_homomorphisms(query, database, fixed):
        return hom
    return None


def has_homomorphism(query: ConjunctiveQuery, database: Database,
                     fixed: Optional[Mapping[Variable, Hashable]] = None
                     ) -> bool:
    """Existence test (the Boolean conjunctive query problem)."""
    return find_homomorphism(query, database, fixed) is not None


def has_query_homomorphism(source: ConjunctiveQuery, target: ConjunctiveQuery
                           ) -> bool:
    """Is there a homomorphism ``source -> target`` between query structures?"""
    return has_homomorphism(source, query_as_database(target))


def homomorphically_equivalent(first: ConjunctiveQuery,
                               second: ConjunctiveQuery) -> bool:
    """Mutual homomorphic equivalence (logical equivalence, Thm. 5.14)."""
    return (has_query_homomorphism(first, second)
            and has_query_homomorphism(second, first))
