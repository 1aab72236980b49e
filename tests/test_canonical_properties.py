"""Property tests for the canonical labeller (``repro.query.canonical``).

Random small queries — repeated variables, constants, several symbols,
random free sets — checked against the definition of a shape:

* any bijective renaming of variables and symbols, in any atom order,
  keeps the fingerprint and the canonical query;
* two queries get equal fingerprints exactly when a brute-force search
  over all variable and symbol bijections finds an isomorphism;
* canonicalizing a canonical query is the identity on fingerprints.

The symmetric families (stars, disjoint components, cliques, grids,
cycles) are where individualization–refinement branches; they must stay
fast, search a polynomial number of leaves, and agree across renamings.
"""

import itertools
import random
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.query.atom import Atom
from repro.query.canonical import canonical_form, random_renaming, rename_query
from repro.query.query import ConjunctiveQuery
from repro.query.terms import Constant, Variable
from repro.workloads.graph_patterns import SYMMETRIC_FAMILIES

SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SYMBOLS = ("r", "s", "t")
CONSTANTS = (Constant(1), Constant(2), Constant("a"))


@st.composite
def queries(draw, max_variables=6, max_atoms=6):
    """A random query: 1–3 symbols of fixed arity, repeated variables,
    occasional constants and a random free set."""
    n_variables = draw(st.integers(1, max_variables))
    variables = [Variable(f"V{i}") for i in range(n_variables)]
    n_symbols = draw(st.integers(1, 3))
    arities = [draw(st.integers(1, 3)) for _ in range(n_symbols)]
    term = st.sampled_from(variables)
    if draw(st.booleans()):
        term = st.one_of(term, st.sampled_from(CONSTANTS))
    atoms = set()
    for _ in range(draw(st.integers(1, max_atoms))):
        s = draw(st.integers(0, n_symbols - 1))
        atoms.add(Atom(SYMBOLS[s], tuple(
            draw(term) for _ in range(arities[s])
        )))
    used = sorted(
        {t for atom in atoms for t in atom.terms if isinstance(t, Variable)},
        key=lambda v: v.name,
    )
    free = [v for v in used if draw(st.booleans())]
    return ConjunctiveQuery(frozenset(atoms), frozenset(free))


def _renamed(query, rng):
    """*query* under random variable and symbol bijections, rebuilt from
    a shuffled atom list."""
    variables = sorted(query.variables, key=lambda v: v.name)
    targets = [Variable(f"W{i}") for i in range(len(variables))]
    rng.shuffle(targets)
    symbols = sorted(query.relation_symbols)
    images = [f"q{i}" for i in range(len(symbols))]
    rng.shuffle(images)
    renamed = rename_query(query, dict(zip(variables, targets)),
                           dict(zip(symbols, images)))
    atoms = list(renamed.atoms)
    rng.shuffle(atoms)
    return ConjunctiveQuery(frozenset(atoms), renamed.free_variables)


def _isomorphic(left, right) -> bool:
    """Brute force: some variable bijection (free onto free) and symbol
    bijection maps *left*'s atoms exactly onto *right*'s."""
    left_vars = sorted(left.variables, key=lambda v: v.name)
    right_vars = sorted(right.variables, key=lambda v: v.name)
    left_syms = sorted(left.relation_symbols)
    right_syms = sorted(right.relation_symbols)
    if (len(left_vars), len(left.atoms), len(left_syms),
            len(left.free_variables)) != (
            len(right_vars), len(right.atoms), len(right_syms),
            len(right.free_variables)):
        return False
    target_atoms = {(a.relation, a.terms) for a in right.atoms}
    for symbol_image in itertools.permutations(right_syms):
        symbol_map = dict(zip(left_syms, symbol_image))
        for variable_image in itertools.permutations(right_vars):
            variable_map = dict(zip(left_vars, variable_image))
            if {variable_map[v] for v in left.free_variables} \
                    != right.free_variables:
                continue
            mapped = {
                (symbol_map[a.relation], tuple(
                    variable_map.get(t, t) for t in a.terms))
                for a in left.atoms
            }
            if mapped == target_atoms:
                return True
    return False


class TestRenamingInvariance:
    @given(query=queries(), seed=st.integers(0, 2 ** 30))
    @settings(**SETTINGS)
    def test_any_renaming_gives_the_same_form(self, query, seed):
        form = canonical_form(query)
        variant = canonical_form(_renamed(query, random.Random(seed)))
        assert variant.fingerprint == form.fingerprint
        assert variant.query == form.query

    @given(query=queries())
    @settings(**SETTINGS)
    def test_form_maps_the_query_onto_its_canonical_query(self, query):
        form = canonical_form(query)
        assert rename_query(query, form.variable_map,
                            form.symbol_map) == form.query


class TestCompleteness:
    @given(left=queries(max_variables=5), right=queries(max_variables=5))
    @settings(**SETTINGS)
    def test_fingerprints_agree_exactly_on_isomorphic_pairs(self, left,
                                                            right):
        same = (canonical_form(left).fingerprint
                == canonical_form(right).fingerprint)
        assert same == _isomorphic(left, right)

    @given(query=queries(max_variables=5), seed=st.integers(0, 2 ** 30))
    @settings(**SETTINGS)
    def test_isomorphic_pairs_are_found(self, query, seed):
        # Random pairs are rarely isomorphic; a renamed copy always is.
        variant = _renamed(query, random.Random(seed))
        assert _isomorphic(query, variant)
        assert (canonical_form(query).fingerprint
                == canonical_form(variant).fingerprint)


class TestIdempotence:
    @given(query=queries())
    @settings(**SETTINGS)
    def test_canonical_query_is_its_own_form(self, query):
        form = canonical_form(query)
        assert canonical_form(form.query).fingerprint == form.fingerprint

    @given(query=queries())
    @settings(**SETTINGS)
    def test_fingerprint_determines_the_canonical_query(self, query):
        # Plans are cached (and persisted) per fingerprint, so the
        # canonical query they were computed for must follow from the
        # fingerprint alone, whichever labeller chose the ordering.
        form = canonical_form(query)
        n, atom_codes, free_code = form.fingerprint

        def term(code):
            if code[0] == "v":
                return Variable(f"v{code[1]:02d}")
            return Constant(code[3])

        decoded = ConjunctiveQuery(
            frozenset(
                Atom(f"s{symbol:02d}", tuple(term(c) for c in codes))
                for symbol, codes in atom_codes
            ),
            frozenset(Variable(f"v{i:02d}") for i in free_code),
        )
        assert decoded == form.query
        assert len(form.query.variables) == n


#: Wall-clock ceiling per canonicalization of a family member.
FAMILY_MS = 50.0


@pytest.mark.parametrize("family, size", [
    (family, size)
    for family, (_, sizes) in SYMMETRIC_FAMILIES.items()
    for size in sizes
])
def test_symmetric_families_stay_fast_and_complete(family, size):
    build, _ = SYMMETRIC_FAMILIES[family]
    query = build(size)
    started = time.perf_counter()
    form = canonical_form(query)
    elapsed_ms = (time.perf_counter() - started) * 1000
    assert elapsed_ms < FAMILY_MS, f"{family}({size}): {elapsed_ms:.1f} ms"
    # Orbit pruning keeps the search polynomial: a leaf per level of
    # interchangeable parts, never one per permutation.
    assert form.search_stats["explored"] <= len(query.variables)
    fingerprints = {
        canonical_form(random_renaming(query, seed=seed,
                                       rename_symbols=True)).fingerprint
        for seed in range(12)
    }
    assert fingerprints == {form.fingerprint}
