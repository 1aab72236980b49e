"""Canonical forms of conjunctive queries: shape fingerprints.

Two queries have the same *shape* when some bijective renaming of
variables and relation symbols maps one onto the other (constants are
fixed, free variables map to free variables).  Everything the counting
engine *plans* — acyclicity, #-hypertree decompositions, GHDs, hybrid
decompositions — depends only on the shape, so plans computed for one
query can be reused for every query with the same shape.  This module
computes a canonical representative of each shape class:

* :func:`canonical_form` returns a :class:`CanonicalForm`: the canonical
  query (variables ``v00, v01, ...``, symbols ``s00, s01, ...``), the
  renaming maps into it, and a hashable :attr:`~CanonicalForm.fingerprint`
  that is equal exactly for same-shape queries;
* :func:`query_fingerprint` is the fingerprint alone;
* :func:`rename_query` / :func:`random_renaming` apply bijective
  renamings (test and workload helpers).

The canonicalization is an individualization–refinement search (the
standard canonical-labeling scheme): variables are partitioned by
iteratively refined structural colors, ambiguous cells are broken by
trying each member, and the lexicographically least encoding over all
explored orderings wins.  This is exponential in the worst case (highly
symmetric queries), like every known canonical-labeling algorithm, so
the search carries a **branch budget**: beyond
:data:`CANONICAL_BRANCH_BUDGET` explored orderings the minimum over the
explored prefix is used.  A truncated search is still *sound* — equal
fingerprints always mean isomorphic queries, because every fingerprint
is a faithful encoding of the query under some ordering — it only
weakens *completeness*: two renamings of a pathologically symmetric
query may land on different (but individually consistent) fingerprints
and miss plan sharing.  Ordinary queries refine to singletons and never
come near the budget.

Symmetric queries are exactly where the budget bites, so the search
**prunes by discovered automorphisms** (the cheap core of a nauty-style
refinement): whenever two explored orderings produce the *same*
encoding, the variable bijection between them is an automorphism of the
query's shape; at every branch point, cell members lying in the same
orbit under the automorphisms found so far generate identical subtree
encodings, so only one representative per orbit is individualized.  A
k-fold interchangeable structure (e.g. the k branches of a star) then
costs O(k) explored orderings instead of k!, leaving the budget for
genuine asymmetry.  :func:`last_search_stats` reports the explored /
pruned branch counts of the most recent canonicalization.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Mapping, Optional, Tuple

from .atom import Atom
from .query import ConjunctiveQuery
from .terms import Constant, Variable

#: Maximum variable orderings explored per canonicalization.  Refinement
#: settles ordinary queries in one ordering; only highly symmetric ones
#: (interchangeable atoms/variables) branch, and past this budget the
#: search keeps the best encoding found so far (sound, see module doc).
CANONICAL_BRANCH_BUDGET = 256

#: Diagnostics of the most recent :func:`canonical_form` search.
_LAST_SEARCH_STATS = {"explored": 0, "pruned": 0, "automorphisms": 0}


def last_search_stats() -> Dict[str, int]:
    """``{"explored", "pruned", "automorphisms"}`` of the most recent
    canonicalization: complete orderings encoded, sibling branches
    skipped as automorphism-orbit duplicates, and automorphism
    generators discovered.  Diagnostic only (tests assert that symmetric
    queries stay far under the branch budget)."""
    return dict(_LAST_SEARCH_STATS)


@dataclass(frozen=True)
class CanonicalForm:
    """A query's canonical representative and the renaming into it."""

    query: ConjunctiveQuery
    fingerprint: Tuple
    variable_map: Mapping[Variable, Variable]  #: original -> canonical
    symbol_map: Mapping[str, str]              #: original -> canonical

    @cached_property
    def digest(self) -> str:
        """A short stable hex digest of the fingerprint (for display).

        Computed once per form: memoized forms serve every read of their
        shape, and each read reports the digest."""
        return hashlib.sha1(
            repr(self.fingerprint).encode("utf-8")
        ).hexdigest()[:12]

    def original_variable_names(self) -> Dict[str, str]:
        """Mapping from canonical variable names back to original names."""
        return {
            canonical.name: original.name
            for original, canonical in self.variable_map.items()
        }


def _constant_sort_key(value) -> tuple:
    """A renaming-invariant, totally-ordered surrogate for a constant."""
    return (type(value).__name__, repr(value))


def canonical_form(query: ConjunctiveQuery) -> CanonicalForm:
    """The canonical form of *query* (see module docstring)."""
    atoms = query.atoms_sorted()
    variables = sorted(query.variables)
    free = query.free_variables

    # Per-atom term pattern: renaming-invariant description of each
    # position — repeated variables appear as their first occurrence
    # index, constants as their sort key.
    patterns: Dict[Atom, tuple] = {}
    for atom in atoms:
        first: Dict[Variable, int] = {}
        entries: List[tuple] = []
        for position, term in enumerate(atom.terms):
            if isinstance(term, Variable):
                entries.append(("v", first.setdefault(term, position)))
            else:
                entries.append(("c",) + _constant_sort_key(term.value))
        patterns[atom] = tuple(entries)

    def refine(colors: Dict[Variable, int]) -> Dict[Variable, int]:
        """Iteratively refine integer variable colors to a stable partition."""
        while True:
            atom_sig: Dict[Atom, tuple] = {}
            for atom in atoms:
                signature = []
                for position, term in enumerate(atom.terms):
                    if isinstance(term, Variable):
                        signature.append(
                            ("v", patterns[atom][position][1], colors[term])
                        )
                    else:
                        signature.append(patterns[atom][position])
                atom_sig[atom] = tuple(signature)
            by_symbol: Dict[str, List[tuple]] = {}
            for atom in atoms:
                by_symbol.setdefault(atom.relation, []).append(atom_sig[atom])
            symbol_color = {
                symbol: (len(signatures), tuple(sorted(signatures)))
                for symbol, signatures in by_symbol.items()
            }
            enriched: Dict[Variable, tuple] = {}
            for variable in variables:
                occurrences = []
                for atom in atoms:
                    for position, term in enumerate(atom.terms):
                        if term == variable:
                            occurrences.append((
                                symbol_color[atom.relation],
                                patterns[atom][position][1],
                                atom_sig[atom],
                            ))
                enriched[variable] = (
                    colors[variable], tuple(sorted(occurrences))
                )
            ranks = {
                color: rank
                for rank, color in enumerate(sorted(set(enriched.values())))
            }
            refined = {v: ranks[enriched[v]] for v in variables}
            if refined == colors:
                return colors
            colors = refined

    def encode(order: Tuple[Variable, ...]) -> tuple:
        """The shape encoding of the query under one variable ordering."""
        index = {variable: i for i, variable in enumerate(order)}

        def term_code(term) -> tuple:
            if isinstance(term, Variable):
                return ("v", index[term])
            # The sort key leads so mixed-type constants stay comparable;
            # the raw value follows so equal fingerprints mean *identical*
            # constants (plans are cached per fingerprint).
            return ("c",) + _constant_sort_key(term.value) + (term.value,)

        per_symbol: Dict[str, List[tuple]] = {}
        for atom in atoms:
            per_symbol.setdefault(atom.relation, []).append(
                tuple(term_code(term) for term in atom.terms)
            )
        # Symbols are ordered by their full (sorted) atom-code multiset;
        # ties mean structurally interchangeable symbols, so breaking them
        # by original name cannot change the encoding.
        ordered_symbols = sorted(
            per_symbol,
            key=lambda symbol: (tuple(sorted(per_symbol[symbol])), symbol),
        )
        symbol_index = {symbol: i for i, symbol in enumerate(ordered_symbols)}
        atom_codes = tuple(sorted(
            (symbol_index[symbol], code)
            for symbol, codes in per_symbol.items()
            for code in codes
        ))
        free_code = tuple(sorted(index[v] for v in free))
        return (len(order), atom_codes, free_code), symbol_index

    # Individualization–refinement search for the least encoding.  The
    # branch set explored is renaming-invariant (cells are chosen by color
    # value, orbits by discovered automorphisms), so the minimum is a true
    # canonical form.
    initial = refine({
        v: (0 if v in free else 1) for v in variables
    } if variables else {})
    best: Optional[tuple] = None       # least encoding seen
    best_symbols: Optional[dict] = None
    best_order: Optional[tuple] = None
    budget = [CANONICAL_BRANCH_BUDGET]
    #: Automorphism generators found so far: two explored orderings with
    #: equal encodings are related by a shape automorphism.
    automorphisms: List[Dict[Variable, Variable]] = []
    stats = {"explored": 0, "pruned": 0, "automorphisms": 0}

    def orbit_representatives(candidates: List[Variable],
                              path: Tuple[Variable, ...]) -> List[Variable]:
        """One candidate per orbit under the discovered automorphisms
        that fix the current individualization *path* pointwise.

        Only path-stabilizing generators may prune: an automorphism
        moving an already-individualized variable maps this subtree's
        orderings outside the sibling subtree, so it says nothing about
        the sibling's minimum.  Orbits are connected components of the
        candidate set under the applicable generators — individualizing
        two candidates in one orbit explores isomorphic subtrees with
        equal minima, so the later one is skipped.
        """
        applicable = [
            generator for generator in automorphisms
            if all(generator[p] == p for p in path)
        ]
        if not applicable:
            return candidates
        parent: Dict[Variable, Variable] = {v: v for v in variables}

        def find(v: Variable) -> Variable:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for generator in applicable:
            for source in variables:
                root_a, root_b = find(source), find(generator[source])
                if root_a != root_b:
                    parent[root_b] = root_a
        seen: set = set()
        representatives: List[Variable] = []
        for candidate in candidates:
            root = find(candidate)
            if root not in seen:
                seen.add(root)
                representatives.append(candidate)
        stats["pruned"] += len(candidates) - len(representatives)
        return representatives

    def search(colors: Dict[Variable, int],
               path: Tuple[Variable, ...]) -> None:
        nonlocal best, best_symbols, best_order
        if budget[0] <= 0:
            return
        cells: Dict[int, List[Variable]] = {}
        for variable in variables:
            cells.setdefault(colors[variable], []).append(variable)
        ambiguous = sorted(
            color for color, cell in cells.items() if len(cell) > 1
        )
        if not ambiguous:
            budget[0] -= 1
            stats["explored"] += 1
            order = tuple(sorted(variables, key=lambda v: colors[v]))
            encoding, symbols = encode(order)
            if best is None or encoding < best:
                best, best_symbols, best_order = encoding, symbols, order
            elif encoding == best and order != best_order:
                # Equal faithful encodings: mapping the best ordering's
                # i-th variable to this ordering's i-th variable is an
                # automorphism of the shape — a new pruning generator.
                automorphisms.append(dict(zip(best_order, order)))
                stats["automorphisms"] += 1
            return
        fresh = max(colors.values()) + 1
        for variable in orbit_representatives(
                sorted(cells[ambiguous[0]]), path):
            branched = dict(colors)
            branched[variable] = fresh
            search(refine(branched), path + (variable,))

    if variables:
        search(initial, ())
        assert best is not None and best_order is not None
    else:  # constants-only query
        (best, best_symbols), best_order = encode(()), ()
    _LAST_SEARCH_STATS.update(stats)

    symbol_index = best_symbols
    variable_map = {
        variable: Variable(f"v{i:02d}")
        for i, variable in enumerate(best_order)
    }
    symbol_map = {
        symbol: f"s{i:02d}" for symbol, i in symbol_index.items()
    }
    canonical_query = rename_query(
        query, variable_map, symbol_map, name="canonical"
    )
    return CanonicalForm(
        query=canonical_query,
        fingerprint=best,
        variable_map=variable_map,
        symbol_map=symbol_map,
    )


def query_fingerprint(query: ConjunctiveQuery) -> Tuple:
    """The canonical shape fingerprint of *query* alone."""
    return canonical_form(query).fingerprint


# ----------------------------------------------------------------------
# Renaming helpers (tests, workload generators)
# ----------------------------------------------------------------------
def rename_query(query: ConjunctiveQuery,
                 variable_map: Optional[Mapping[Variable, Variable]] = None,
                 symbol_map: Optional[Mapping[str, str]] = None,
                 name: Optional[str] = None) -> ConjunctiveQuery:
    """Apply bijective variable/symbol renamings to *query*.

    Variables or symbols missing from a map are left unchanged.  The
    effective maps must stay injective on the query's variables/symbols —
    a collapse would change the shape, not rename it.
    """
    variable_map = variable_map or {}
    symbol_map = symbol_map or {}
    effective_vars = {v: variable_map.get(v, v) for v in query.variables}
    if len(set(effective_vars.values())) != len(effective_vars):
        raise ValueError("variable renaming is not injective on the query")
    effective_syms = {
        s: symbol_map.get(s, s) for s in query.relation_symbols
    }
    if len(set(effective_syms.values())) != len(effective_syms):
        raise ValueError("symbol renaming is not injective on the query")
    atoms = frozenset(
        Atom(
            effective_syms[atom.relation],
            tuple(
                effective_vars[term] if isinstance(term, Variable) else term
                for term in atom.terms
            ),
        )
        for atom in query.atoms
    )
    free = frozenset(effective_vars[v] for v in query.free_variables)
    return ConjunctiveQuery(
        atoms, free, name=name if name is not None else query.name
    )


def random_renaming(query: ConjunctiveQuery, seed: Optional[int] = None,
                    rename_symbols: bool = False,
                    prefix: str = "W") -> ConjunctiveQuery:
    """A same-shape copy of *query* under a random bijective renaming."""
    import random as _random

    rng = _random.Random(seed)
    variables = sorted(query.variables)
    targets = list(range(len(variables)))
    rng.shuffle(targets)
    variable_map = {
        v: Variable(f"{prefix}{t}") for v, t in zip(variables, targets)
    }
    symbol_map = {}
    if rename_symbols:
        symbols = sorted(query.relation_symbols)
        slots = list(range(len(symbols)))
        rng.shuffle(slots)
        symbol_map = {s: f"q{t}_{prefix.lower()}" for s, t in zip(symbols, slots)}
    return rename_query(query, variable_map, symbol_map,
                        name=f"{query.name}_{prefix}")
