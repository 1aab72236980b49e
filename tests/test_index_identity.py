"""Regression tests: the index-cache identity invariants ARCHITECTURE.md
promises.

The kernel's whole caching story rests on three object-identity
guarantees:

* a ``semijoin`` that filters nothing returns ``self`` (the instance,
  not a copy) — fixpoint passes detect convergence by identity and
  cached indexes survive;
* ``project`` onto the full schema returns ``self``;
* a cached ``index_on`` mapping is returned as-is on every subsequent
  access, never rebuilt.

Plus the PR 2 extension: ``Relation.renamed`` aliases share the row
set, the index cache and the statistics handle — canonical-space
execution depends on it.
"""

from __future__ import annotations

from repro.db.algebra import SubstitutionSet
from repro.db.relation import ALIAS_POOL_LIMIT, Relation
from repro.query.terms import make_variables

A, B, C = make_variables("A", "B", "C")


class TestSubstitutionSetIdentity:
    def test_semijoin_filtering_nothing_returns_self(self):
        left = SubstitutionSet((A, B), [(1, 2), (3, 4)])
        right = SubstitutionSet((B, C), [(2, 9), (4, 8), (4, 7)])
        assert left.semijoin(right) is left

    def test_semijoin_all_filtering_nothing_returns_self(self):
        base = SubstitutionSet((A, B), [(1, 2), (3, 4)])
        others = [
            SubstitutionSet((B,), [(2,), (4,)]),
            SubstitutionSet((A,), [(1,), (3,)]),
        ]
        assert base.semijoin_all(others) is base

    def test_disjoint_semijoin_against_nonempty_returns_self(self):
        left = SubstitutionSet((A,), [(1,), (2,)])
        right = SubstitutionSet((C,), [(9,)])
        assert left.semijoin(right) is left

    def test_project_full_schema_returns_self(self):
        relation = SubstitutionSet((A, B), [(1, 2), (3, 4)])
        assert relation.project((A, B)) is relation
        assert relation.project((B, A)) is relation  # order-insensitive

    def test_select_keeping_everything_returns_self(self):
        relation = SubstitutionSet((A, B), [(1, 2), (1, 4)])
        assert relation.select({A: 1}) is relation

    def test_index_on_cached_identity(self):
        relation = SubstitutionSet((A, B), [(1, 2), (1, 3), (2, 2)])
        assert relation.index_on([A]) is relation.index_on([A])
        assert relation.index_on((A, B)) is relation.index_on([B, A])

    def test_identity_survivor_keeps_its_indexes(self):
        """The point of the identity contract: the surviving object's
        cached indexes keep serving after a no-op semijoin."""
        left = SubstitutionSet((A, B), [(1, 2), (3, 4)])
        index = left.index_on([A])
        right = SubstitutionSet((B,), [(2,), (4,)])
        survivor = left.semijoin(right)
        assert survivor.index_on([A]) is index


class TestRelationIdentity:
    def test_index_on_cached_identity(self):
        relation = Relation("r", 2, [(1, 2), (1, 3), (2, 2)])
        assert relation.index_on((0,)) is relation.index_on((0,))
        assert relation.index_on((0, 1)) is relation.index_on((0, 1))

    def test_statistics_handle_cached(self):
        relation = Relation("r", 2, [(1, 2), (1, 3)])
        assert relation.statistics() is relation.statistics()

    def test_renamed_alias_is_cached_and_shares_caches(self):
        relation = Relation("r", 2, [(1, 2), (1, 3), (2, 2)])
        index = relation.index_on((0,))
        alias = relation.renamed("canonical_r")
        assert relation.renamed("canonical_r") is alias  # cached alias
        assert alias.rows is relation.rows
        # An index built through either name serves both.
        assert alias.index_on((0,)) is index
        fresh = alias.index_on((1,))
        assert relation.index_on((1,)) is fresh
        # One statistics handle for all aliases.
        assert alias.statistics() is relation.statistics()
        # Renaming back yields the original instance.
        assert alias.renamed("r") is relation

    def test_alias_pool_stays_bounded(self):
        """10,000 fresh renamings (a caller renaming every request)
        leave the shared pool bounded, while the alias a canonical name
        is looked up under between them — as the engine does on every
        count — and the way back to the original survive."""
        relation = Relation("r", 2, [(1, 2), (1, 3)])
        canonical = relation.renamed("s00")
        for index in range(10_000):
            fresh = relation.renamed(f"request{index}")
            assert fresh.renamed("s00") is canonical
        assert len(relation._renamed) <= ALIAS_POOL_LIMIT + 1
        assert canonical.renamed("r") is relation
        assert relation.renamed("s00") is canonical
        # An evicted alias is rebuilt on demand, sharing the contents.
        again = relation.renamed("request0")
        assert again.rows is relation.rows
        assert again.statistics() is relation.statistics()

    def test_renamed_to_same_name_is_self(self):
        relation = Relation("r", 1, [(1,)])
        assert relation.renamed("r") is relation

    def test_renamed_alias_equality_semantics(self):
        """Aliases are real relations: equal to an independently built
        relation with the same name and rows."""
        relation = Relation("r", 2, [(1, 2)])
        alias = relation.renamed("s")
        assert alias == Relation("s", 2, [(1, 2)])
        assert alias != relation  # name participates in equality
