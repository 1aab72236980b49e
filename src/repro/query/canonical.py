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

The labeller is an individualization–refinement search in the style of
McKay & Piperno, "Practical Graph Isomorphism, II" (2014), run entirely
on small integers:

1. **Compile once.**  Variables, relation symbols and constants become
   indices; each atom becomes a static pattern code (arity, which
   positions repeat a variable, which hold which constant) plus a slot
   tuple of its distinct variables; each variable gets its occurrence
   list of ``(atom, slot)`` pairs.
2. **Refine.**  An *ordered partition* of the variables (free ones
   first) is refined to the coarsest stable one.  A variable's colour is
   the start position of its cell, so a cell that does not split keeps
   its colour.  Each round an atom's signature is its pattern code and
   its variables' colours; a symbol's key is the sorted multiset of its
   atoms' signatures; a variable's key is the sorted multiset of the
   (symbol, atom, slot) signatures it occurs in.  Only atoms touching a
   variable whose colour changed are re-signed, and only cells touching
   an atom whose signature (or symbol key) changed are re-split — the
   work queue of Paige & Tarjan's partition refinement.  Fragments of a
   split cell are ordered by sorted key, never by name, so colours are
   invariant under renaming.
3. **Search.**  While a cell has several members, the first such cell
   is the target: each member in turn is individualized (moved to a
   singleton cell at the end of its cell) and the partition refined
   again.  Every discrete partition (a *leaf*) orders the variables;
   the query's encoding under that order is compared, and the least
   encoding over all leaves is the canonical one.
4. **Prune by automorphisms.**  A leaf whose encoding equals the first
   or the best leaf's yields an automorphism (the position-wise map
   between the two orders).  Members of the target cell that lie in one
   orbit of the automorphisms found so far that fix the current path
   pointwise root isomorphic subtrees, so only the first is searched;
   and when the new automorphism fixes the path above the branch point
   where the two leaves diverge and maps one branch onto the other, the
   rest of the current branch is isomorphic to an explored one and the
   search returns to that branch point at once.  A k-fold
   interchangeable structure (the k legs of a star, k disjoint
   triangles, a clique's vertices) then costs O(k) leaves, not k!.

The search is complete: there is no budget, and every renaming of a
query lands on the same fingerprint.  Like every known canonical
labeller it is exponential on adversarial inputs, where colour
refinement cannot split cells and few automorphisms exist to prune
with.

The fingerprint is ``(n, atom_codes, free_code)``: the variable count,
the sorted ``(symbol index, term codes)`` of every atom under the
chosen order, and the sorted positions of the free variables.  It is a
faithful encoding of the canonical query, so equal fingerprints mean
identical canonical queries.  Each form carries the ``explored`` /
``pruned`` / ``automorphisms`` counts of the search that built it in
:attr:`CanonicalForm.search_stats`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, List, Mapping, Optional, Tuple

from .atom import Atom
from .query import ConjunctiveQuery
from .terms import Constant, Variable


@dataclass(frozen=True)
class CanonicalForm:
    """A query's canonical representative and the renaming into it."""

    query: ConjunctiveQuery
    fingerprint: Tuple
    variable_map: Mapping[Variable, Variable]  #: original -> canonical
    symbol_map: Mapping[str, str]              #: original -> canonical
    #: ``{"explored", "pruned", "automorphisms"}`` of the search that
    #: built this form: leaves encoded, target-cell members skipped as
    #: automorphism-orbit duplicates, and automorphisms found.
    search_stats: Mapping[str, int] = field(default_factory=dict,
                                            compare=False)

    @cached_property
    def digest(self) -> str:
        """A short stable hex digest of the fingerprint (for display).

        Every result reports it, so one string serves every form of a
        shape."""
        return _digest(self.fingerprint)

    def original_variable_names(self) -> Dict[str, str]:
        """Mapping from canonical variable names back to original names."""
        return {
            canonical.name: original.name
            for original, canonical in self.variable_map.items()
        }


def _constant_sort_key(value) -> tuple:
    """A renaming-invariant, totally-ordered surrogate for a constant."""
    return (type(value).__name__, repr(value))


@lru_cache(maxsize=1024)
def _digest(fingerprint: tuple) -> str:
    return hashlib.sha1(repr(fingerprint).encode("utf-8")).hexdigest()[:12]


@lru_cache(maxsize=1024)
def _canonical_variable(i: int) -> Variable:
    return Variable(f"v{i:02d}")


@lru_cache(maxsize=1024)
def _canonical_symbol(i: int) -> str:
    return f"s{i:02d}"


class _Shape:
    """A query compiled to integers, with its refinement and search.

    Variable indices follow name order and atom indices the query's set
    order; neither reaches the result, which depends only on colours and
    encodings (see the module docstring).
    """

    def __init__(self, query: ConjunctiveQuery):
        # Variables are keyed by name: strings cache their hash, while a
        # Variable's dataclass hash runs Python code on every lookup.
        atoms = list(query.atoms)
        by_name: Dict[str, Variable] = {}
        constant_set = set()
        for atom in atoms:
            for term in atom.terms:
                if isinstance(term, Variable):
                    by_name[term.name] = term
                else:
                    constant_set.add(term)
        variables = [by_name[name] for name in sorted(by_name)]
        index = {variable.name: i for i, variable in enumerate(variables)}
        symbols = sorted({atom.relation for atom in atoms})
        symbol_id = {symbol: s for s, symbol in enumerate(symbols)}
        constants = sorted(
            constant_set,
            key=lambda c: _constant_sort_key(c.value) + (c.value,),
        )
        constant_id = {constant: c for c, constant in enumerate(constants)}
        n = len(variables)
        self.variables = variables
        self.symbols = symbols
        self.n = n
        self.free = sorted(index[v.name] for v in query.free_variables)

        # Static pattern of each atom: variables as their slot (first
        # occurrence rank within the atom), constants as -1 - rank.
        patterns: List[tuple] = []
        slots: List[Tuple[int, ...]] = []
        terms: List[Tuple[int, ...]] = []  # leaf template: var or n + const
        occurrences: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for j, atom in enumerate(atoms):
            slot_of: Dict[int, int] = {}
            pattern, template = [], []
            for term in atom.terms:
                if isinstance(term, Variable):
                    v = index[term.name]
                    if v not in slot_of:
                        slot_of[v] = len(slot_of)
                        occurrences[v].append((j, slot_of[v]))
                    pattern.append(slot_of[v])
                    template.append(v)
                else:
                    rank = constant_id[term]
                    pattern.append(-1 - rank)
                    template.append(n + rank)
            patterns.append(tuple(pattern))
            slots.append(tuple(slot_of))
            terms.append(tuple(template))
        pattern_rank = {p: r for r, p in enumerate(sorted(set(patterns)))}
        width = max(len(s) for s in slots) or 1
        #: Radix for atom signatures: every digit (pattern rank + 1 and
        #: every colour) stays below it, so signatures are faithful ints.
        radix = max(n, len(pattern_rank)) + 1
        self.slots = slots
        self.terms = terms
        self.lead = [pattern_rank[p] + 1 for p in patterns]
        self.symbol_of = [symbol_id[atom.relation] for atom in atoms]
        self.atoms_of: List[List[int]] = [[] for _ in symbols]
        for j, s in enumerate(self.symbol_of):
            self.atoms_of[s].append(j)
        self.occurrences = occurrences
        self.radix = radix
        self.width = width
        self.constants = constants
        #: Leaf radix: term values (< n + #constants) and arity + 1 digits.
        self.leaf_radix = max(n + len(constants),
                              max(len(t) for t in terms)) + 2

        self.explored = 0
        self.pruned = 0
        self.generators: List[List[int]] = []
        #: (encoding, order, path, symbol groups) of the first leaf and
        #: of the least leaf so far.
        self.first: Optional[tuple] = None
        self.best: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Refinement
    # ------------------------------------------------------------------
    def refine(self, colour: List[int], order: List[int], size: List[int],
               signature: List[int], symbol_key: List[tuple],
               changed: List[int]) -> None:
        """Refine the ordered partition in place to a stable one.

        *changed* lists the variables whose colour moved since
        *signature*/*symbol_key* were last brought up to date.
        """
        slots, lead, radix = self.slots, self.lead, self.radix
        symbol_of, atoms_of = self.symbol_of, self.atoms_of
        occurrences, width = self.occurrences, self.width
        n_symbols = len(symbol_key)
        while changed:
            touched = {j for v in changed for j, _ in occurrences[v]}
            resigned = []
            for j in touched:
                code = lead[j]
                for u in slots[j]:
                    code = code * radix + colour[u]
                if code != signature[j]:
                    signature[j] = code
                    resigned.append(j)
            if not resigned:
                return
            dirty = set(resigned)
            for s in {symbol_of[j] for j in resigned}:
                members = atoms_of[s]
                key = tuple(sorted([signature[j] for j in members]))
                if key != symbol_key[s]:
                    symbol_key[s] = key
                    dirty.update(members)
            starts = {colour[u] for j in dirty for u in slots[j]}
            starts = [c for c in starts if size[c] > 1]
            if not starts:
                return
            ranks = {key: r for r, key in enumerate(sorted(set(symbol_key)))}
            atom_key = [
                (signature[j] * n_symbols + ranks[symbol_key[symbol_of[j]]])
                * width
                for j in range(len(slots))
            ]
            changed = []
            for start in starts:
                end = start + size[start]
                keyed = sorted(
                    (tuple(sorted([atom_key[j] + k
                                   for j, k in occurrences[v]])), v)
                    for v in order[start:end]
                )
                if keyed[0][0] == keyed[-1][0]:
                    continue
                cell, previous = start, keyed[0][0]
                for offset, (key, v) in enumerate(keyed):
                    position = start + offset
                    if key != previous:
                        size[cell] = position - cell
                        cell, previous = position, key
                    order[position] = v
                    if colour[v] != cell:
                        colour[v] = cell
                        changed.append(v)
                size[cell] = end - cell

    # ------------------------------------------------------------------
    # Leaves
    # ------------------------------------------------------------------
    def encode(self, colour: List[int]) -> tuple:
        """The query under a discrete partition, as a faithful tuple of
        per-symbol sorted atom codes (symbols are renameable, so they
        enter only through the sorted tuple of their groups)."""
        values = colour + list(range(self.n, self.n + len(self.constants)))
        radix, terms = self.leaf_radix, self.terms
        groups = []
        for members in self.atoms_of:
            codes = []
            for j in members:
                template = terms[j]
                code = len(template) + 1
                for t in template:
                    code = code * radix + values[t]
                codes.append(code)
            codes.sort()
            groups.append(tuple(codes))
        return tuple(sorted(groups)), groups

    def leaf(self, colour: List[int], order: List[int],
             path: List[int]) -> Optional[int]:
        """Record one leaf; the depth to return to, if the leaf proves
        the rest of its branch isomorphic to an explored one."""
        self.explored += 1
        encoding, groups = self.encode(colour)
        if self.first is None:
            self.first = self.best = (encoding, list(order), list(path),
                                      groups)
            return None
        for reference in (self.first, self.best):
            if encoding == reference[0]:
                return self.automorphism(reference, order, path)
        if encoding < self.best[0]:
            self.best = (encoding, list(order), list(path), groups)
        return None

    def automorphism(self, reference: tuple, order: List[int],
                     path: List[int]) -> Optional[int]:
        """Store the automorphism mapping *reference*'s leaf onto this
        one; return the branch point to jump back to when it maps the
        explored branch there onto the current one."""
        mapping = [0] * self.n
        for source, target in zip(reference[1], order):
            mapping[source] = target
        self.generators.append(mapping)
        ref_path = reference[2]
        depth = 0
        while ref_path[depth] == path[depth]:
            depth += 1
        if (all(mapping[v] == v for v in path[:depth])
                and mapping[ref_path[depth]] == path[depth]):
            return depth
        return None

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(self, colour: List[int], order: List[int], size: List[int],
               signature: List[int], symbol_key: List[tuple],
               path: List[int]) -> Optional[int]:
        """Search the subtree below *path*; the depth to return to when a
        leaf below proves the rest of some branch redundant."""
        n = self.n
        start = 0
        while start < n and size[start] == 1:
            start += 1
        if start == n:
            return self.leaf(colour, order, path)
        depth = len(path)
        end = start + size[start]
        last = end - 1
        rest = end
        while rest < n and size[rest] == 1:
            rest += 1
        # Splitting a pair when every other cell is a singleton reaches
        # a leaf with nothing left to refine.
        discrete = rest == n and last - start == 1
        visited: List[int] = []
        orbit: Optional[List[int]] = None
        known = 0  # generators folded into *orbit*
        for candidate in order[start:end]:
            if visited and len(self.generators) != known:
                known = len(self.generators)
                orbit = self.orbits(path)
            if orbit is not None and orbit[candidate] in {
                    orbit[v] for v in visited}:
                self.pruned += 1
                continue
            visited.append(candidate)
            child_order = order[:]
            position = child_order.index(candidate, start, end)
            child_order[position] = child_order[last]
            child_order[last] = candidate
            child_colour = colour[:]
            child_colour[candidate] = last
            path.append(candidate)
            if discrete:
                back = self.leaf(child_colour, child_order, path)
            else:
                child_size = size[:]
                child_size[start] = last - start
                child_size[last] = 1
                child_signature = signature[:]
                child_key = symbol_key[:]
                self.refine(child_colour, child_order, child_size,
                            child_signature, child_key, [candidate])
                back = self.search(child_colour, child_order, child_size,
                                   child_signature, child_key, path)
            path.pop()
            if back is not None and back < depth:
                return back
        return None

    def orbits(self, path: List[int]) -> Optional[List[int]]:
        """Orbit labels under the automorphisms found so far that fix
        *path* pointwise (``None`` when there are none)."""
        applicable = [
            mapping for mapping in self.generators
            if all(mapping[v] == v for v in path)
        ]
        if not applicable:
            return None
        label = list(range(self.n))
        for mapping in applicable:
            for source, target in enumerate(mapping):
                a, b = label[source], label[target]
                if a != b:
                    label = [a if x == b else x for x in label]
        return label

    # ------------------------------------------------------------------
    def run(self) -> CanonicalForm:
        n = self.n
        free = set(self.free)
        order = self.free + [v for v in range(n) if v not in free]
        colour = [0 if v in free else len(free) for v in range(n)]
        size = [0] * n
        if free:
            size[0] = len(free)
        if len(free) < n:
            size[len(free)] = n - len(free)
        # Atoms without variables never re-sign: their pattern is final.
        signature = [-1 if slots else lead
                     for slots, lead in zip(self.slots, self.lead)]
        symbol_key: List[tuple] = [()] * len(self.symbols)
        self.refine(colour, order, size, signature, symbol_key,
                    list(range(n)))
        self.search(colour, order, size, signature, symbol_key, [])
        return self.form()

    def form(self) -> CanonicalForm:
        """The canonical form at the best leaf."""
        _, order, _, groups = self.best
        n = self.n
        position = [0] * n
        for i, v in enumerate(order):
            position[v] = i
        # Symbols in the order of their atom-code groups; equal groups
        # are interchangeable, so the name tie-break cannot change the
        # encoding.
        ranked = sorted(range(len(self.symbols)),
                        key=lambda s: (groups[s], self.symbols[s]))
        symbol_index = [0] * len(ranked)
        for i, s in enumerate(ranked):
            symbol_index[s] = i
        constant_codes = [
            ("c",) + _constant_sort_key(c.value) + (c.value,)
            for c in self.constants
        ]
        atom_codes = tuple(sorted(
            (symbol_index[self.symbol_of[j]], tuple(
                ("v", position[t]) if t < n else constant_codes[t - n]
                for t in template
            ))
            for j, template in enumerate(self.terms)
        ))
        fingerprint, query = _shape(
            (n, atom_codes, tuple(sorted(position[v] for v in self.free)))
        )
        return CanonicalForm(
            query=query,
            fingerprint=fingerprint,
            variable_map={
                variable: _canonical_variable(position[v])
                for v, variable in enumerate(self.variables)
            },
            symbol_map={
                symbol: _canonical_symbol(symbol_index[s])
                for s, symbol in enumerate(self.symbols)
            },
            search_stats={"explored": self.explored, "pruned": self.pruned,
                          "automorphisms": len(self.generators)},
        )


@lru_cache(maxsize=1024)
def _shape(fingerprint: tuple) -> Tuple[tuple, ConjunctiveQuery]:
    """The fingerprint and the query it encodes (it is faithful, so the
    query follows from it alone), shared by every form of one shape."""
    _, atom_codes, free_code = fingerprint

    def term(code: tuple):
        if code[0] == "v":
            return _canonical_variable(code[1])
        return Constant(code[3])

    return fingerprint, ConjunctiveQuery(
        frozenset(
            Atom(_canonical_symbol(symbol),
                 tuple(term(code) for code in codes))
            for symbol, codes in atom_codes
        ),
        frozenset(_canonical_variable(i) for i in free_code),
        name="canonical",
    )


def canonical_form(query: ConjunctiveQuery) -> CanonicalForm:
    """The canonical form of *query* (see module docstring)."""
    return _Shape(query).run()


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
