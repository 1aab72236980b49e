"""The compiled tier's generic-join bag kernel and its pricing.

Multi-part bags of a compiled structural program are materialized by a
worst-case-optimal generic join on the tuple path (the columnar
rendition keeps its pairwise fold schedule).  These tests pin down:

* every generic-join bag equals brute force — the projection onto the
  bag of all homomorphisms of its atoms — on random cyclic and
  quantified shapes with self joins, repeated variables inside one
  atom, constants, projected-away view variables, empty relations and
  disconnected parts;
* a *counted* bag (the one bag of a single-bag program) counts the
  distinct free tuples of the same corpus and of a hypothesis family of
  projected paths, cycles and stars, agreeing with brute force and with
  the columnar rendition of the same step;
* whole counts agree with brute force, and the tuple path agrees with
  the columnar one;
* lowering drops hosted atoms the view already scans, and orders a
  counted bag by linkage with free variables winning ties;
* the planner's price never undercuts the kernel's counted operations
  (so a deadline is never over-admitted on its account), and a bag
  whose exact count fits the deadline is answered exactly;
* compiled artifacts of the previous formats in a persistent cache
  directory are never looked up, let alone executed;
* ``explain`` shows each bag's kernel and variable order, and names the
  variables a counted bag eliminates by union; importing the engine
  does not import scipy.
"""

from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.counting.brute_force import count_brute_force
from repro.counting.compile import (
    KERNEL_UNITS,
    _ColumnarBag,
    _LinkedBag,
    _join_estimate,
    _lower_bag,
    count_kernel_ops,
    describe_bags,
    estimate_units,
    link,
    lower_structural,
    program_digest,
)
from repro.counting.engine import (
    StrategyContext,
    _compiled_estimate,
    _compiled_lower,
    count_answers,
)
from repro.counting.plan_cache import PersistentPlanCache, PlanCache
from repro.counting.structural import host_core_atoms
from repro.db import Database
from repro.db.relation import Relation
from repro.decomposition.serialize import COMPILED_FORMAT_VERSION
from repro.decomposition.sharp import find_sharp_hypertree_decomposition
from repro.exceptions import SchemaError
from repro.homomorphism.solver import iter_homomorphisms
from repro.query import Atom, ConjunctiveQuery, Variable, parse_query
from repro.query.terms import Constant
from repro.workloads.graph_patterns import heavy_triangle_database

TRIANGLE = parse_query("ans(A, B, C) :- r(A, B), s(B, C), t(C, A)")


def _decompose(query: ConjunctiveQuery):
    for width in range(1, 4):
        decomposition = find_sharp_hypertree_decomposition(query, width)
        if decomposition is not None:
            return decomposition
    return None


def _tuple(database: Database) -> Database:
    return database.with_backend("tuple")


def _database(query: ConjunctiveQuery, rows: dict) -> Database:
    """Tuple-backed relations of the query's arities (empty ones too)."""
    arity = {atom.relation: atom.arity for atom in query.atoms}
    return Database([Relation(name, arity[name], rows[name])
                     for name in sorted(rows)])


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------
HAND_PICKED = [
    # quantified triangle: every variable kept, one bag
    ("ans(A) :- r(A, B), s(B, C), t(C, A)",
     {"r": [(1, 2), (2, 3), (3, 1), (1, 3)],
      "s": [(2, 3), (3, 1), (1, 2), (3, 3)],
      "t": [(3, 1), (1, 2), (2, 3), (3, 3)]}),
    # 4-cycle self join with two free variables
    ("ans(A, C) :- e(A, B), e(B, C), e(C, D), e(D, A)",
     {"e": [(1, 2), (2, 3), (3, 4), (4, 1), (2, 1), (3, 1), (1, 3)]}),
    # a variable repeated inside one atom
    ("ans(A) :- r(A, A), s(A, B), t(B, A)",
     {"r": [(1, 1), (2, 2), (1, 2)], "s": [(1, 5), (2, 6), (2, 5)],
      "t": [(5, 1), (6, 2), (5, 2)]}),
    # a constant
    ("ans(A, B) :- r(A, 1), s(A, B), t(B, A)",
     {"r": [(1, 1), (2, 1), (3, 2)], "s": [(1, 5), (2, 6), (3, 7)],
      "t": [(5, 1), (6, 2), (7, 3)]}),
    # a path whose inner variables are projected away inside a view
    ("ans(A, D) :- r(A, B), s(B, C), t(C, D)",
     {"r": [(1, 2), (1, 3), (4, 2)], "s": [(2, 5), (3, 5), (3, 6)],
      "t": [(5, 7), (6, 8), (6, 7)]}),
    # disconnected parts: the answer is a cross product
    ("ans(A, X) :- r(A, B), s(B, A), u(X, Y)",
     {"r": [(1, 2), (2, 1), (3, 3)], "s": [(2, 1), (1, 2), (3, 4)],
      "u": [(7, 8), (9, 8)]}),
    # an empty relation empties everything
    ("ans(A) :- r(A, B), s(B, C), t(C, A)",
     {"r": [(1, 2)], "s": [(2, 3)], "t": []}),
]


def _random_case(seed: int):
    """A random query (self joins, repeated variables, constants,
    possibly disconnected) over a small-domain database."""
    rng = random.Random(seed)
    variables = [Variable(f"X{i}") for i in range(rng.randint(3, 6))]
    symbols = [f"r{i}" for i in range(rng.randint(1, 3))]
    arity = {symbol: rng.randint(2, 3) for symbol in symbols}
    atoms = set()
    while len(atoms) < rng.randint(3, 6):
        symbol = rng.choice(symbols)
        terms = tuple(
            Constant(rng.randrange(3)) if rng.random() < 0.08
            else rng.choice(variables)
            for _ in range(arity[symbol])
        )
        atoms.add(Atom(symbol, terms))
    used = sorted({v for atom in atoms for v in atom.variables},
                  key=lambda v: v.name)
    free = frozenset(rng.sample(used, k=rng.randint(0, len(used))))
    query = ConjunctiveQuery(frozenset(atoms), free, name=f"case{seed}")
    relations = {}
    for symbol in symbols:
        size = 0 if rng.random() < 0.08 else rng.randint(6, 30)
        relations[symbol] = [
            tuple(rng.randrange(4) for _ in range(arity[symbol]))
            for _ in range(size)
        ]
    relations = {symbol: rows for symbol, rows in relations.items()
                 if symbol in query.relation_symbols}
    return query, _database(query, relations)


def _corpus():
    cases = []
    for text, rows in HAND_PICKED:
        query = parse_query(text)
        cases.append((query, _database(query, rows)))
    cases.extend(_random_case(seed) for seed in range(60))
    return cases


CORPUS = _corpus()


# ----------------------------------------------------------------------
# Semantics
# ----------------------------------------------------------------------
class TestKernelSemantics:
    def test_bags_equal_brute_force(self):
        """Each bag is pi_bag of the homomorphisms of its atoms: the
        decomposition's bags, and — to reach projected-away variables,
        which decomposition bags rarely have — each whole query lowered
        as one bag kept on its free variables."""
        shapes = {"join": 0, "witness": 0, "constant": 0, "repeat": 0,
                  "empty": 0}
        for query, database in CORPUS:
            bags = [(frozenset(query.atoms), query.free_variables)]
            decomposition = _decompose(query)
            if decomposition is not None:
                hosted = host_core_atoms(decomposition)
                for index, chi in enumerate(decomposition.tree.bags):
                    view = decomposition.bag_views[index]
                    bags.append((
                        frozenset(decomposition.views[view].source_atoms)
                        | frozenset(hosted[index]), frozenset(chi)))
            for atoms, kept in bags:
                bag, schema = _lower_bag(sorted(atoms, key=repr), kept)
                expected = {
                    tuple(assignment[v] for v in schema)
                    for assignment in iter_homomorphisms(
                        ConjunctiveQuery(atoms, frozenset(), name="bag"),
                        database)
                }
                linked = _LinkedBag(bag)
                assert set(linked.rows(database)) == expected, (
                    query, sorted(map(repr, atoms)), schema)
                if linked.mode == "join":
                    shapes["join"] += 1
                    shapes["witness"] += bag.kept < len(bag.variables)
                    shapes["constant"] += any(
                        scan.constraints for scan in bag.scans)
                    shapes["repeat"] += any(
                        scan.equalities for scan in bag.scans)
                    shapes["empty"] += not expected
        # The corpus really exercises what it claims to.
        assert all(shapes.values()), shapes

    def test_counts_match_brute_force_and_columnar(self):
        for query, database in CORPUS:
            decomposition = _decompose(query)
            if decomposition is None:
                continue
            executable = link(lower_structural(query, decomposition))
            expected = count_brute_force(query, database)
            assert executable.count(database) == expected, query
            columnar = database.with_backend("columnar")
            assert executable.count(columnar) == expected, query

    def test_engine_counts_match_brute_force(self):
        for query, database in CORPUS[:len(HAND_PICKED)]:
            result = count_answers(query, database, plan_cache=PlanCache())
            assert result.count == count_brute_force(query, database)

    def test_counted_bags_match_brute_force_and_columnar(self):
        """Each whole query lowered as one counted bag kept on its free
        variables counts ``|pi_free(homomorphisms)|`` — on the tuple
        kernel, through every mode of :meth:`_LinkedBag.count`, and in
        the columnar rendition of the same step."""
        modes = set()
        for query, database in CORPUS:
            bag, schema = _lower_bag(sorted(query.atoms, key=repr),
                                     query.free_variables, counted=True)
            expected = _projected_count(query, database)
            linked = _LinkedBag(bag)
            assert linked.count(database) == expected, query
            columnar = database.with_backend("columnar")
            assert _ColumnarBag(bag).frame(columnar).n == expected, query
            modes.add(_count_mode(linked))
        assert modes == {"no free", "set-free", "witnessed", "union",
                         "keyed union"}, modes

    def test_single_bag_programs_count_like_brute_force(self):
        """Single-bag decompositions of the corpus lower to a counted
        program whose tuple and columnar counts match brute force."""
        counted = 0
        for query, database in CORPUS:
            decomposition = _decompose(query)
            if decomposition is None or len(decomposition.tree.bags) != 1:
                continue
            program = lower_structural(query, decomposition)
            (bag,) = program.bags
            assert bag.counted and bag.kept == 0
            assert program.free_positions == (None,)
            executable = link(program)
            expected = count_brute_force(query, database)
            assert executable.count(database) == expected, query
            columnar = database.with_backend("columnar")
            assert executable.count(columnar) == expected, query
            counted += 1
        assert counted >= 20


def _projected_count(query: ConjunctiveQuery, database: Database) -> int:
    """``|pi_free|`` of the homomorphisms of *query*'s atoms."""
    free = sorted(query.free_variables, key=lambda v: v.name)
    return len({
        tuple(assignment[v] for v in free)
        for assignment in iter_homomorphisms(
            ConjunctiveQuery(query.atoms, frozenset(), name="bag"),
            database)
    })


def _count_mode(linked: _LinkedBag) -> str:
    """Which branch of :meth:`_LinkedBag.count` a counted bag takes."""
    if linked.mode == "scan":
        return "scan"
    prefix, final, key_of, _direct = linked.plan
    if final < 0:
        return "no free"
    if prefix > final:
        return "set-free" if final == len(linked.levels) - 1 \
            else "witnessed"
    return "union" if key_of is None else "keyed union"


@st.composite
def projected_shapes(draw):
    """A path, cycle or star of 2–4 binary atoms over 1–2 repeated
    symbols, sometimes with a constant end, a repeated variable or a
    random free set, over a small random database."""
    kind = draw(st.sampled_from(("path", "cycle", "star")))
    length = draw(st.integers(2, 4))
    nodes = [Variable(f"N{i}") for i in range(length + 1)]
    if kind == "path":
        edges = [(nodes[i], nodes[i + 1]) for i in range(length)]
    elif kind == "cycle":
        edges = [(nodes[i], nodes[(i + 1) % length]) for i in range(length)]
    else:
        edges = [(nodes[0], nodes[i + 1]) for i in range(length)]
    symbols = draw(st.lists(st.sampled_from(("r", "s")), min_size=length,
                            max_size=length))
    terms = [list(edge) for edge in edges]
    if draw(st.booleans()):
        atom, side = draw(st.integers(0, length - 1)), draw(st.integers(0, 1))
        terms[atom][side] = Constant(draw(st.integers(0, 2)))
    if draw(st.booleans()):
        atom = draw(st.integers(0, length - 1))
        terms[atom][1] = terms[atom][0]
    atoms = frozenset(Atom(symbol, tuple(pair))
                      for symbol, pair in zip(symbols, terms))
    used = sorted({v for atom in atoms for v in atom.variables},
                  key=lambda v: v.name)
    if draw(st.booleans()):  # the classic projections: both path ends
        free = frozenset(v for v in (used[0], used[-1]))
    else:
        free = frozenset(draw(st.lists(st.sampled_from(used), unique=True)))
    domain = draw(st.integers(2, 5))
    row = st.tuples(st.integers(0, domain - 1), st.integers(0, domain - 1))
    relations = {symbol: draw(st.lists(row, max_size=14))
                 for symbol in sorted(set(symbols))}
    query = ConjunctiveQuery(atoms, free, name=kind)
    return query, _database(query, relations)


class TestProjectedShapes:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(projected_shapes())
    def test_counted_bag_matches_brute_force(self, case):
        query, database = case
        bag, _schema = _lower_bag(sorted(query.atoms, key=repr),
                                  query.free_variables, counted=True)
        expected = _projected_count(query, database)
        assert _LinkedBag(bag).count(database) == expected
        with count_kernel_ops() as ops:
            assert _LinkedBag(bag).count(database) == expected
        counted = sum(KERNEL_UNITS[name] * value
                      for name, value in ops.items())
        if len(bag.scans) > 1:
            sizes = [len(database[scan.relation]) for scan in bag.scans]
            assert _join_estimate(bag, database, sizes)[0] >= counted
        columnar = database.with_backend("columnar")
        assert _ColumnarBag(bag).frame(columnar).n == expected

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(projected_shapes())
    def test_engine_counts_match_brute_force(self, case):
        query, database = case
        result = count_answers(query, database, method="compiled",
                               plan_cache=PlanCache())
        assert result.count == count_brute_force(query, database)


class TestLowering:
    def test_hosted_duplicates_are_dropped(self):
        """The triangle's bag scans each atom once (its view's two atoms
        are hosted there too); a quantified star's bags become plain
        scans."""
        decomposition = _decompose(TRIANGLE)
        program = lower_structural(TRIANGLE, decomposition)
        assert [len(bag.scans) for bag in program.bags] == [3]
        star = parse_query("ans(A) :- r(A, B), s(A, C)")
        program = lower_structural(star, _decompose(star))
        assert all(len(bag.scans) == 1 for bag in program.bags)

    def test_order_binds_by_linkage_with_free_variables_first(self):
        """A counted bag's order binds each variable through the bound
        prefix when one links it, and a free variable wins a tie, so
        the projected path keeps its free ends at the two ends of the
        order and eliminates the inner variables between them.  Scans
        still emit their columns in order, and a materialized bag (of a
        multi-bag program) still keeps its bag variables first."""
        path = parse_query("ans(A, D) :- r(A, B), s(B, C), t(C, D)")
        program = lower_structural(path, _decompose(path))
        (bag,) = program.bags
        assert bag.counted
        assert bag.variables == ("A", "B", "C", "D")
        assert bag.free == (0, 3)
        for scan_slots in bag.slots:
            assert list(scan_slots) == sorted(scan_slots)
        assert describe_bags(program)[0]["eliminated"] == ["B", "C"]

        cycle = parse_query("ans(A, C) :- r(A, B), s(B, C), t(C, D), "
                            "u(D, A)")
        (bag,) = lower_structural(cycle, _decompose(cycle)).bags
        assert bag.variables == ("A", "B", "C", "D")  # C beats D on a tie
        assert [bag.variables[slot] for slot in bag.free] == ["A", "C"]

        query, _database_ = CORPUS[5]  # disconnected: two bags
        program = lower_structural(query, _decompose(query))
        assert len(program.bags) > 1
        for bag in program.bags:
            assert not bag.counted
            kept = set(bag.variables[:bag.kept])
            assert len(kept) == bag.kept


# ----------------------------------------------------------------------
# Pricing
# ----------------------------------------------------------------------
def _priced_cases():
    rng = random.Random(5)
    cases = list(CORPUS)
    for seed in range(25):
        query, _ = _random_case(1000 + seed)
        relations = {}
        for symbol in sorted(query.relation_symbols):
            arity = next(atom.arity for atom in query.atoms
                         if atom.relation == symbol)
            domain = rng.randint(3, 12)
            relations[symbol] = [
                tuple(rng.randrange(domain) for _ in range(arity))
                for _ in range(rng.randint(20, 150))
            ]
        cases.append((query, _database(query, relations)))
    return cases


class TestPricing:
    def test_estimate_covers_counted_operations(self):
        """The planner's price of a program is at least the kernel's
        counted operations at the same unit costs — it never
        over-admits a deadline on the kernel's account."""
        priced = 0
        for query, database in _priced_cases():
            context = StrategyContext(query, database, deadline_ms=1.0)
            program = _compiled_lower(context)
            if program is None or program.kind != "structural":
                continue
            with count_kernel_ops() as ops:
                link(program).count(database)
            counted = sum(KERNEL_UNITS[name] * value
                          for name, value in ops.items())
            assert estimate_units(program, database) >= counted, query
            assert _compiled_estimate(context) >= counted, query
            priced += any(ops.values())
        assert priced > 20

    def test_bag_price_covers_witness_search(self):
        """Same bound for bags with projected-away variables (each whole
        query lowered as one bag kept on its free variables)."""
        for query, database in _priced_cases():
            if query.free_variables == query.variables:
                continue
            bag, _schema = _lower_bag(
                sorted(query.atoms, key=repr), query.free_variables)
            if len(bag.scans) < 2:
                continue
            with count_kernel_ops() as ops:
                _LinkedBag(bag).rows(database)
            counted = sum(KERNEL_UNITS[name] * value
                          for name, value in ops.items())
            sizes = [len(database[scan.relation]) for scan in bag.scans]
            assert _join_estimate(bag, database, sizes)[0] >= counted, query

    def test_engine_estimate_prices_the_program(self):
        database = _tuple(heavy_triangle_database(200, 0.1, seed=3))
        context = StrategyContext(TRIANGLE, database, deadline_ms=10.0)
        with count_kernel_ops() as ops:
            count_answers(TRIANGLE, database, method="compiled",
                          plan_cache=PlanCache())
        counted = sum(KERNEL_UNITS[name] * value
                      for name, value in ops.items())
        assert counted > 0
        assert _compiled_estimate(context) >= counted

    def test_fitting_triangle_answers_exactly_under_deadline(self):
        """A triangle whose generic join fits the budget is admitted:
        ~12k edges per relation, priced well under 300 ms of units."""
        database = _tuple(heavy_triangle_database(500, 0.05, seed=1))
        result = count_answers(TRIANGLE, database, deadline_ms=300.0,
                               plan_cache=PlanCache())
        assert result.strategy == "compiled"
        assert result.count == count_answers(
            TRIANGLE, database, plan_cache=PlanCache()).count
        assert result.details["estimated_cost"] <= \
            result.details["cost_budget_units"]

    def test_arity_mismatch_is_a_schema_error_under_deadline(self):
        """Pricing reads the scanned relations' statistics, so it checks
        their arity first, exactly as execution does."""
        query = parse_query("ans(A) :- r(A, B, C), s(B, C), t(C, A)")
        database = Database.from_dict(
            {"r": [(1, 2)], "s": [(2, 3)], "t": [(3, 1)]})
        for deadline in (None, 100.0):
            with pytest.raises(SchemaError):
                count_answers(query, database, deadline_ms=deadline,
                              plan_cache=PlanCache())

    def test_counting_is_off_by_default(self):
        from repro.counting import compile as compile_module

        assert compile_module._KERNEL_OPS is None
        with count_kernel_ops() as ops:
            assert compile_module._KERNEL_OPS is ops
        assert compile_module._KERNEL_OPS is None


# ----------------------------------------------------------------------
# Artifacts, explain, imports
# ----------------------------------------------------------------------
class TestArtifacts:
    def test_previous_format_artifact_is_never_executed(self, tmp_path):
        """A program planted under the previous format version's key —
        shaped like a version-1 artifact, with fold schedules but no
        generic-join plan, and wrong if it ran — is never looked up:
        the engine lowers a fresh program and counts exactly."""
        query = parse_query(HAND_PICKED[0][0])
        database = _database(query, HAND_PICKED[0][1])
        expected = count_brute_force(query, database)
        directory = str(tmp_path / "plans")
        cache = PersistentPlanCache(directory)
        form = cache.canonical(query)
        current = lower_structural(form.query, _decompose(form.query))
        bags = tuple(dataclasses.replace(bag, variables=(), kept=0,
                                         slots=(), covers=())
                     for bag in current.bags)
        stale = dataclasses.replace(current, bags=bags, digest="")
        stale = dataclasses.replace(stale, digest=program_digest(stale))
        renamed = database.renamed_restriction(form.symbol_map)
        try:
            wrong = link(stale).count(renamed) != expected
        except Exception:  # noqa: BLE001 - any failure proves the point
            wrong = True
        assert wrong, "the planted artifact must not count correctly"
        assert COMPILED_FORMAT_VERSION > 1
        cache.plan(("compiled", form.fingerprint, 3, 1), lambda: stale)
        assert os.listdir(directory), "the stale artifact reached disk"

        result = count_answers(query, database,
                               plan_cache=PersistentPlanCache(directory))
        assert result.strategy == "compiled"
        assert result.details["artifact_cached"] is False
        assert result.count == expected


    def test_version_2_artifact_is_never_executed(self, tmp_path):
        """A version-2 program — its single bag materialized on every
        bag variable, here with the free projection dropped so that it
        would count wrong — planted under the version-2 key is never
        looked up under version 3."""
        query = parse_query("ans(A, D) :- r(A, B), s(B, C), t(C, D)")
        database = _database(query, HAND_PICKED[4][1])
        expected = count_brute_force(query, database)
        directory = str(tmp_path / "plans")
        cache = PersistentPlanCache(directory)
        form = cache.canonical(query)
        decomposition = _decompose(form.query)
        (chi,) = decomposition.tree.bags
        atoms = sorted(form.query.atoms, key=repr)
        bag, _schema = _lower_bag(atoms, frozenset(chi))
        current = lower_structural(form.query, decomposition)
        stale = dataclasses.replace(current, bags=(bag,),
                                    free_positions=(None,), digest="")
        stale = dataclasses.replace(stale, digest=program_digest(stale))
        renamed = database.renamed_restriction(form.symbol_map)
        assert link(stale).count(renamed) != expected
        assert COMPILED_FORMAT_VERSION == 3
        cache.plan(("compiled", form.fingerprint, 3, 2), lambda: stale)

        result = count_answers(query, database,
                               plan_cache=PersistentPlanCache(directory))
        assert result.strategy == "compiled"
        assert result.details["artifact_cached"] is False
        assert result.count == expected


class TestExplain:
    def test_explain_names_union_eliminated_variables(self):
        query = parse_query("ans(X, W) :- r(X, Y), s(Y, Z), t(Z, W)")
        database = _database(query, HAND_PICKED[4][1])
        result = count_answers(query, database, method="compiled",
                               plan_cache=PlanCache())
        assert result.details["bag_kernels"] == (
            "generic_join over 3 scan(s), order X, Y, Z, W"
            " | union-eliminated Y, Z")
        assert "  bag 0: generic_join over 3 scan(s), order X, Y, Z, W" \
            " | union-eliminated Y, Z" in result.explain()

    def test_explain_shows_kernels_and_order(self):
        query = parse_query("ans(X) :- r(X, Y), s(Y, Z), t(Z, X)")
        database = _database(query, HAND_PICKED[0][1])
        result = count_answers(query, database, plan_cache=PlanCache())
        assert result.strategy == "compiled"
        text = result.explain()
        assert "bag kernels:" in text
        assert "bag 0: generic_join over 3 scan(s), order " in text
        order = result.details["bag_kernels"].split("order ")[1]
        assert sorted(order.split(", ")) == ["X", "Y", "Z"]


def test_engine_import_leaves_scipy_unloaded():
    """``scipy.optimize`` costs about half a second to import; only the
    LP helpers that need it may load it."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys, repro.counting.engine; "
            "print(any(m == 'scipy' or m.startswith('scipy.') "
            "for m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    output = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert output.stdout.strip() == "False"


def test_tuple_count_leaves_numpy_unloaded():
    """numpy backs only the columnar kernels: importing the engine and
    counting over tuple relations must not load it."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = (
        "import sys, repro.counting.engine\n"
        "from repro.counting.engine import count_answers\n"
        "from repro.db import Database\n"
        "from repro.query import parse_query\n"
        "query = parse_query('ans(X) :- r(X, Y), s(Y, Z), t(Z, X)')\n"
        "edges = [(1, 2), (2, 3), (3, 1)]\n"
        "database = Database.from_dict(\n"
        "    {'r': edges, 's': edges, 't': edges}, backend='tuple')\n"
        "assert count_answers(query, database).count == 3\n"
        "print(any(m == 'numpy' or m.startswith('numpy.') "
        "for m in sys.modules))\n"
    )
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    output = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert output.stdout.strip() == "False"


def test_inline_count_leaves_multiprocessing_unloaded():
    """Only process-mode pools need ``multiprocessing``: importing the
    package and counting inline must not load it."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = (
        "import sys, repro\n"
        "from repro import count_answers, parse_query\n"
        "from repro.db import Database\n"
        "query = parse_query('ans(A) :- r(A, B), s(B, C)')\n"
        "database = Database.from_dict({'r': [(1, 2), (3, 4)], "
        "'s': [(2, 9)]})\n"
        "assert count_answers(query, database).count == 1\n"
        "print(any(m == 'multiprocessing' or "
        "m.startswith('multiprocessing.') for m in sys.modules))\n"
    )
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    output = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert output.stdout.strip() == "False"
