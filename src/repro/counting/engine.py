"""The top-level counting engine: a pluggable, cost-ranked strategy registry.

Counting strategies live in a registry (:func:`register_strategy`); each one
bundles

* an **applicability** probe — finds a witness (a decomposition, a join
  tree, or just ``True``) or reports the strategy inapplicable;
* a **cost estimate** — a statistics-only, order-of-magnitude figure
  computed from relation cardinalities *before* any search runs;
* a **runner** — executes the strategy given its witness.

``count_answers(method="auto")`` ranks the registered strategies by their
estimated cost (preference order breaks ties), probes applicability in that
order, and runs the first applicable strategy.  The full decision trail —
every candidate, its estimate, whether it was probed, and the winner's
estimated vs. actual cost — is recorded in :attr:`CountResult.details`
(as plain JSON-serializable data) and rendered by
:meth:`CountResult.explain` and the CLI's ``count --explain``.

Plans are shared through a :class:`~repro.counting.plan_cache.PlanCache`:
every call canonicalizes its query (variables and relation symbols are
renamed to a shape-canonical form, the database follows through cached
relation aliases) and runs in canonical space, so decomposition searches
are memoized per *shape fingerprint* — two queries that differ only by a
bijective renaming of variables and symbols share one plan.  Pass
``plan_cache=`` to use a dedicated cache (the batch service does); by
default the process-wide cache of
:func:`~repro.counting.plan_cache.default_plan_cache` is used.

The built-in strategies are the paper's algorithms:

* *compiled* — a lowered, cache-shared execution program for the acyclic
  or structural plan (see :mod:`repro.counting.compile`); the default
  fast path;
* *acyclic* — quantifier-free and alpha-acyclic: the join-tree DP;
* *structural* — a #-hypertree decomposition of width ``<= max_width``
  exists (Theorem 1.3): the Theorem 3.7 algorithm;
* *hybrid* — a #b-GHD exists within the width/degree budget (Section 6):
  the Theorem 6.6 algorithm;
* *degree* — a plain GHD exists: the Figure 13 algorithm, exponential in
  the measured degree bound only (Theorem 6.2);
* *brute-force* — the exact fallback (cheapest on tiny databases, which
  the cost ranking notices by itself);
* *approx* — the deadline tier: a Monte Carlo ``(estimate, epsilon,
  delta)`` answer (:mod:`repro.approx.montecarlo`), applicable only when
  the request carries a ``deadline_ms`` or ``error_budget``.  ``auto``
  never prefers it over an exact strategy that fits the deadline —
  *exact when possible, approximate when necessary*: exact strategies
  whose cost estimate exceeds the deadline's cost budget (or that would
  start after an observed mid-flight overrun) are skipped, and only
  when every exact option is ruled out does the approx tier answer.
"""

from __future__ import annotations

import hashlib
import math
import struct
import time
from collections import OrderedDict
from itertools import chain
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..approx.montecarlo import monte_carlo_count
from ..db.database import Database
from ..decomposition.serialize import COMPILED_FORMAT_VERSION
from ..decomposition.ghd import find_ghd_join_tree
from ..decomposition.hybrid import find_hybrid_decomposition
from ..decomposition.hypertree import hypertree_from_join_tree
from ..decomposition.sharp import find_sharp_hypertree_decomposition
from ..envknobs import env_float
from ..exceptions import DecompositionNotFoundError, NotAcyclicError
from ..hypergraph.acyclicity import is_acyclic
from ..query.canonical import CanonicalForm
from ..query.query import ConjunctiveQuery
from .acyclic import count_acyclic
from .brute_force import count_brute_force
from .compile import (
    describe_bags,
    estimate_units,
    link,
    lower_acyclic,
    lower_structural,
    runs_columnar,
)
from .hybrid import count_with_hybrid_decomposition
from .plan_cache import PlanCache, default_plan_cache, relation_content_tag
from .sharp_relations import count_via_hypertree
from .structural import count_with_decomposition

#: Built-in strategy names in preference (tie-break) order.
STRATEGIES = ("compiled", "acyclic", "structural", "hybrid", "degree",
              "brute_force", "approx")

# ----------------------------------------------------------------------
# Deadline calibration: cost-estimate units per millisecond
# ----------------------------------------------------------------------
#: Environment knob calibrating how many cost-estimate units the engine
#: assumes it can execute per millisecond of wall clock.  Cost estimates
#: are order-of-magnitude row counts; the default of 1000 units/ms
#: (~1M rows/s of interpreted Python) is deliberately conservative —
#: over-admitting blows deadlines, under-admitting merely answers
#: approximately when exact would have squeaked by.
COST_UNITS_ENV = "REPRO_COST_UNITS_PER_MS"

#: Default calibration when the knob is unset (units per millisecond).
DEFAULT_COST_UNITS_PER_MS = 1000.0

#: Fraction of the deadline the auto loop may observably burn on
#: probing/planning before it stops starting new exact strategies (the
#: winner's runner still has to fit in what remains).
OBSERVED_OVERRUN_FRACTION = 0.5


def cost_units_per_ms() -> float:
    """Calibrated cost units per millisecond (``$REPRO_COST_UNITS_PER_MS``
    when set and positive, else :data:`DEFAULT_COST_UNITS_PER_MS`)."""
    value = env_float(COST_UNITS_ENV)
    if value is None or value <= 0:
        return DEFAULT_COST_UNITS_PER_MS
    return value


# ----------------------------------------------------------------------
# Strategy context: one counting request plus its database statistics
# ----------------------------------------------------------------------
@dataclass
class StrategyContext:
    """Everything a strategy needs to probe, estimate, and run.

    When built by :func:`count_answers`, ``query``/``database`` are the
    *canonical-space* instances (shape-renamed), and ``plan_cache`` /
    ``fingerprint`` wire witness searches into the shared plan cache via
    :meth:`cached_plan`.  Directly-constructed contexts (tests, custom
    tooling) may leave both unset; searches then run uncached.
    """

    query: ConjunctiveQuery
    database: Database
    max_width: int = 3
    max_degree: float = math.inf
    hybrid_width: int = 2
    plan_cache: Optional[PlanCache] = None
    fingerprint: Optional[tuple] = None
    #: Wall-clock budget for this request in milliseconds.  ``None``
    #: means no deadline: exact counting runs unconditionally.  When
    #: set, ``auto`` skips exact strategies whose cost estimate exceeds
    #: the corresponding unit budget and falls back to the approx tier.
    deadline_ms: Optional[float] = None
    #: Relative error budget for the approx tier (a fraction of the
    #: candidate-space size, the scale of the Hoeffding guarantee).
    #: Setting it (with or without a deadline) makes the approx
    #: strategy applicable; ``None`` uses the tier's default when a
    #: deadline forces an approximate answer.
    error_budget: Optional[float] = None

    def __post_init__(self) -> None:
        self.atom_cardinalities: Tuple[int, ...] = tuple(
            len(self.database[atom.relation])
            for atom in self.query.atoms_sorted()
        )

    @property
    def total_rows(self) -> int:
        """``N``: summed cardinality of the matched relations."""
        return sum(self.atom_cardinalities)

    @property
    def max_rows(self) -> int:
        """``m``: the largest matched relation."""
        return max(self.atom_cardinalities, default=0)

    @property
    def atom_count(self) -> int:
        return len(self.atom_cardinalities)

    def join_product(self) -> float:
        """Upper bound on the full join: the product of cardinalities."""
        product = 1.0
        for size in self.atom_cardinalities:
            product *= max(size, 1)
        return product

    def pair_product(self) -> float:
        """Upper bound on a binary-join bag: product of the two largest
        matched relations (the worst width-2 view materialization)."""
        ranked = sorted(self.atom_cardinalities, reverse=True)
        if not ranked:
            return 0.0
        if len(ranked) == 1:
            return float(ranked[0])
        return float(ranked[0]) * float(max(ranked[1], 1))

    def search_overhead(self, width: int) -> float:
        """Order-of-magnitude cost of a width-*width* decomposition search."""
        return float((self.atom_count * width) ** 2 * 4)

    def cached_plan(self, kind: str, extra_key: tuple,
                    compute: Callable[[], object],
                    tags: Tuple[str, ...] = ()) -> Tuple[object, bool]:
        """``(plan, was_cached)`` for this context's shape and *kind*.

        Consults the attached :class:`PlanCache` under the key
        ``(kind, fingerprint, *extra_key)``; with no cache attached the
        plan is computed directly (``was_cached`` is ``False``).  ``None``
        plans (failed searches) are cached too.  *tags* are content tags
        for targeted invalidation under dynamic updates — pass them for
        plans whose validity depends on database contents.
        """
        if self.plan_cache is None or self.fingerprint is None:
            return compute(), False
        key = (kind, self.fingerprint) + tuple(extra_key)
        return self.plan_cache.plan(key, compute, tags=tags)

    def content_tags(self) -> Tuple[str, ...]:
        """Content tags of every relation this query touches (sorted)."""
        return tuple(sorted({
            relation_content_tag(self.database[atom.relation])
            for atom in self.query.atoms_sorted()
        }))

    def cost_budget_units(self) -> Optional[float]:
        """The deadline expressed in cost-estimate units, or ``None``."""
        if self.deadline_ms is None:
            return None
        return self.deadline_ms * cost_units_per_ms()


@dataclass(frozen=True)
class Strategy:
    """One registered counting strategy."""

    name: str
    applicability: Callable[[StrategyContext], Optional[object]]
    cost_estimate: Callable[[StrategyContext], float]
    runner: Callable[[StrategyContext, object], Tuple[int, Dict[str, object]]]
    failure: Callable[[StrategyContext], Exception]


#: The registry, in preference (tie-break) order.
_REGISTRY: "OrderedDict[str, Strategy]" = OrderedDict()


def register_strategy(name: str,
                      applicability: Callable[[StrategyContext],
                                              Optional[object]],
                      cost_estimate: Callable[[StrategyContext], float],
                      runner: Callable[[StrategyContext, object],
                                       Tuple[int, Dict[str, object]]],
                      failure: Optional[Callable[[StrategyContext],
                                                 Exception]] = None) -> None:
    """Register (or replace) a counting strategy.

    *applicability* returns a witness object (anything but ``None``) when
    the strategy can run; *cost_estimate* must be statistics-only (no
    search, no data access beyond cardinalities); *runner* takes the
    context and the witness and returns ``(count, details)``.  *failure*
    builds the exception raised when the strategy is forced by name but
    inapplicable.
    """
    if failure is None:
        def failure(ctx: StrategyContext, _name=name) -> Exception:
            return DecompositionNotFoundError(
                f"{ctx.query.name}: strategy {_name!r} is not applicable"
            )
    _REGISTRY[name] = Strategy(name, applicability, cost_estimate, runner,
                               failure)


def registered_strategies() -> Tuple[str, ...]:
    """The registered strategy names, in preference order."""
    return tuple(_REGISTRY)


def unregister_strategy(name: str) -> None:
    """Remove a strategy from the registry (mainly for tests)."""
    _REGISTRY.pop(name, None)


def clear_engine_memo() -> None:
    """Drop every engine-level memo (mainly for tests and cold-cache
    benchmarks): the default plan cache — including its on-disk spill
    when the default is persistent — plus the decomposition-search and
    homomorphism-search-space memos underneath it; plans live in both
    layers (the inner memos also serve non-engine callers like the
    sampler and ``explain``).

    This is the sledgehammer.  A dynamic update does not need it: the
    hybrid strategy's data-dependent plans are stored under per-relation
    content tags, so ``PlanCache.invalidate_tags(relation_content_tag(r))``
    evicts exactly the plans the update touched (the
    :class:`~repro.service.session.CountingSession` does this on every
    update), while shape-only plans survive untouched."""
    from ..decomposition.sharp import clear_search_memo
    from ..homomorphism.solver import clear_space_memo

    default_plan_cache().clear()
    clear_search_memo()
    clear_space_memo()


# ----------------------------------------------------------------------
# Built-in strategies
# ----------------------------------------------------------------------
def _compiled_lower(ctx: StrategyContext):
    """Lower the best available plan for this shape, or ``None``.

    Nested :meth:`StrategyContext.cached_plan` calls are safe — the plan
    cache computes outside its lock — so the acyclicity witness and any
    decomposition found here land in the cache exactly as the
    interpreted strategies would have left them.
    """
    acyclic, _ = ctx.cached_plan(
        "acyclic", (),
        lambda: True if (ctx.query.is_quantifier_free()
                         and is_acyclic(ctx.query.hypergraph())) else None,
    )
    if acyclic:
        return lower_acyclic(ctx.query)
    for width in range(1, ctx.max_width + 1):
        decomposition, _ = ctx.cached_plan(
            "structural", (width,),
            lambda width=width: find_sharp_hypertree_decomposition(
                ctx.query, width
            ),
        )
        if decomposition is not None:
            return lower_structural(ctx.query, decomposition)
    return None


def _compiled_applicable(ctx: StrategyContext) -> Optional[object]:
    program, was_cached = ctx.cached_plan(
        "compiled", (ctx.max_width, COMPILED_FORMAT_VERSION),
        lambda: _compiled_lower(ctx),
    )
    if program is None:
        return None
    return (program, was_cached)


def _compiled_estimate(ctx: StrategyContext) -> float:
    # Ranking heuristic: same asymptotics as the interpreted join-tree
    # DP, minus the per-execution schema interpretation — rank it ahead
    # of acyclic.  Under a deadline the figure doubles as an admission
    # bound, so a structural program is priced by its own work: the
    # tuple path's generic-join bags, reduction and DP, from relation
    # statistics (fetching the program is the same plan-cache lookup
    # the applicability probe makes next).  The columnar rendition
    # still folds its bags pairwise, so there it is charged like the
    # structural strategy (halved for the compiled execution).  An
    # acyclic program is a linear join-tree pass either way.
    if ctx.deadline_ms is None:
        return 0.5 * ctx.total_rows
    witness = _compiled_applicable(ctx)
    if witness is None:
        return 0.5 * _structural_estimate(ctx)
    program, _cached = witness
    if program.kind == "acyclic":
        return 0.5 * ctx.total_rows
    if runs_columnar(program, ctx.database):
        return 0.5 * _structural_estimate(ctx)
    return estimate_units(program, ctx.database)


#: The compiled runner's details per ``(program digest, artifact
#: cached)``: a function of the program alone, so every result of a
#: cached plan shares one dict (results never mutate their runner's
#: details, see :class:`_Decision`).  Cleared when it grows past
#: :data:`_COMPILED_DETAILS_LIMIT` entries.
_COMPILED_DETAILS: Dict[Tuple[str, bool], Dict[str, object]] = {}
_COMPILED_DETAILS_LIMIT = 4096


def _compiled_details(program, artifact_cached: bool) -> Dict[str, object]:
    key = (program.digest, artifact_cached)
    details = _COMPILED_DETAILS.get(key)
    if details is None:
        details = {
            "compiled": True,
            "compiled_kind": program.kind,
            "artifact_cached": artifact_cached,
            "bags": len(program.bags),
            "bag_kernels": describe_bags(program),
        }
        if program.width is not None:
            details["width"] = program.width
        if len(_COMPILED_DETAILS) >= _COMPILED_DETAILS_LIMIT:
            _COMPILED_DETAILS.clear()
        _COMPILED_DETAILS[key] = details
    return details


def _compiled_run(ctx: StrategyContext, witness: object
                  ) -> Tuple[int, Dict[str, object]]:
    program, artifact_cached = witness
    executable = link(program)
    count = executable.count(ctx.database)
    return count, _compiled_details(program, artifact_cached)


def _compiled_failure(ctx: StrategyContext) -> Exception:
    return DecompositionNotFoundError(
        f"{ctx.query.name}: no compilable plan within width "
        f"{ctx.max_width} (quantified non-decomposable shape)"
    )


def _acyclic_applicable(ctx: StrategyContext) -> Optional[object]:
    witness, _ = ctx.cached_plan(
        "acyclic", (),
        lambda: True if (ctx.query.is_quantifier_free()
                         and is_acyclic(ctx.query.hypergraph())) else None,
    )
    return witness


def _acyclic_estimate(ctx: StrategyContext) -> float:
    # The join-tree DP is near-linear in the reduced relations.
    return float(ctx.total_rows)


def _acyclic_run(ctx: StrategyContext, witness: object
                 ) -> Tuple[int, Dict[str, object]]:
    return count_acyclic(ctx.query, ctx.database), {}


def _acyclic_failure(ctx: StrategyContext) -> Exception:
    return NotAcyclicError(
        f"{ctx.query.name} is not an acyclic quantifier-free query"
    )


def _structural_applicable(ctx: StrategyContext) -> Optional[object]:
    for width in range(1, ctx.max_width + 1):
        decomposition, _ = ctx.cached_plan(
            "structural", (width,),
            lambda width=width: find_sharp_hypertree_decomposition(
                ctx.query, width
            ),
        )
        if decomposition is not None:
            return (width, decomposition)
    return None


def _structural_estimate(ctx: StrategyContext) -> float:
    # Search + materializing ~atom_count bags, each bounded by the worst
    # binary-join view (projection push-down keeps wider views below that).
    return (ctx.search_overhead(ctx.max_width)
            + ctx.atom_count * ctx.pair_product())


def _structural_run(ctx: StrategyContext, witness: object
                    ) -> Tuple[int, Dict[str, object]]:
    width, decomposition = witness
    count = count_with_decomposition(ctx.query, ctx.database, decomposition)
    return count, {"width": width,
                   "core_atoms": len(decomposition.core.atoms)}


def _structural_failure(ctx: StrategyContext) -> Exception:
    return DecompositionNotFoundError(
        f"{ctx.query.name}: #-hypertree width exceeds {ctx.max_width}"
    )


def _hybrid_applicable(ctx: StrategyContext) -> Optional[object]:
    from ..decomposition.hybrid import quick_pseudo_free_candidates

    def compute():
        try:
            return find_hybrid_decomposition(
                ctx.query, ctx.database, ctx.hybrid_width,
                max_degree=ctx.max_degree,
                candidates=quick_pseudo_free_candidates(ctx.query),
            )
        except DecompositionNotFoundError:
            return None

    # The plan depends on the data, so the key carries the database
    # content fingerprint (a changed database can never *reuse* a stale
    # plan) and the store carries per-relation content tags (a dynamic
    # update can *evict* exactly the plans it touched — see
    # ``PlanCache.invalidate_tags``).
    hybrid, _ = ctx.cached_plan(
        "hybrid",
        (ctx.database.content_fingerprint(), ctx.hybrid_width,
         ctx.max_degree),
        compute,
        tags=ctx.content_tags(),
    )
    if hybrid is not None and hybrid.degree <= ctx.max_degree:
        return hybrid
    return None


def _hybrid_estimate(ctx: StrategyContext) -> float:
    # Two-stage pipeline: the structural phase on Q[S] plus the Figure 13
    # #-relation phase; the degree bound is unknown before the search, so
    # the second phase is charged as a 50% premium on the bag work.
    return (2 * ctx.search_overhead(ctx.hybrid_width)
            + ctx.atom_count * ctx.pair_product() * 1.5)


def _hybrid_run(ctx: StrategyContext, witness: object
                ) -> Tuple[int, Dict[str, object]]:
    count = count_with_hybrid_decomposition(ctx.query, ctx.database, witness)
    return count, {
        "width": ctx.hybrid_width,
        "degree": witness.degree,
        "pseudo_free": sorted(v.name for v in witness.pseudo_free),
    }


def _hybrid_failure(ctx: StrategyContext) -> Exception:
    return DecompositionNotFoundError(
        f"{ctx.query.name}: no width-{ctx.hybrid_width} hybrid decomposition "
        f"within degree {ctx.max_degree}"
    )


def _degree_applicable(ctx: StrategyContext) -> Optional[object]:
    for width in range(1, ctx.max_width + 1):
        def compute(width=width):
            tree = find_ghd_join_tree(ctx.query.hypergraph(), width)
            if tree is None:
                return None
            return hypertree_from_join_tree(tree, ctx.query, max_cover=width)
        hypertree, _ = ctx.cached_plan("degree", (width,), compute)
        if hypertree is not None:
            return (width, hypertree)
    return None


def _degree_estimate(ctx: StrategyContext) -> float:
    # Figure 13 is O(vertices * m^{2k} * 4^h); the degree bound h is a data
    # fact unknown before vertex relations exist — charge a fixed 4^2.
    return (ctx.search_overhead(ctx.max_width)
            + float(ctx.max_rows) ** (2 * ctx.max_width) * 16)


def _degree_run(ctx: StrategyContext, witness: object
                ) -> Tuple[int, Dict[str, object]]:
    width, hypertree = witness
    count = count_via_hypertree(ctx.query, ctx.database, hypertree)
    return count, {"width": width}


def _degree_failure(ctx: StrategyContext) -> Exception:
    return DecompositionNotFoundError(
        f"{ctx.query.name}: generalized hypertree width exceeds "
        f"{ctx.max_width}"
    )


def _brute_applicable(ctx: StrategyContext) -> Optional[object]:
    return True


def _brute_estimate(ctx: StrategyContext) -> float:
    return ctx.join_product() + ctx.total_rows


def _brute_run(ctx: StrategyContext, witness: object
               ) -> Tuple[int, Dict[str, object]]:
    return count_brute_force(ctx.query, ctx.database), {}


# ----------------------------------------------------------------------
# The approx strategy: the deadline tier's Monte Carlo answer
# ----------------------------------------------------------------------
#: Default relative error budget (fraction of the candidate-space size)
#: when a deadline forces an approximate answer without an explicit
#: ``error_budget``.
APPROX_DEFAULT_ERROR_BUDGET = 0.05

#: Failure probability of the stated interval: the Hoeffding sample size
#: targets ``P(|estimate - exact| > epsilon) <= delta``.
APPROX_DEFAULT_DELTA = 0.05

#: Sample-count floor/ceiling: never degenerate, never unbounded.
APPROX_MIN_SAMPLES = 16
APPROX_MAX_SAMPLES = 20000

#: Cost-model charge for one Boolean membership test, per query atom.
#: A sample probes each atom's hash index a handful of times (the
#: candidate assignment is fully fixed, so there is no search) —
#: measured at roughly 10–15 units/atom on the reference workloads;
#: 25 keeps the charge conservative without starving the sampler.
APPROX_UNITS_PER_ATOM = 25.0


def _approx_error_budget(ctx: StrategyContext) -> float:
    if ctx.error_budget is not None and ctx.error_budget > 0:
        return ctx.error_budget
    return APPROX_DEFAULT_ERROR_BUDGET


def _approx_per_sample_units(ctx: StrategyContext) -> float:
    return max(APPROX_UNITS_PER_ATOM * len(ctx.query.atoms), 50.0)


def _approx_samples(ctx: StrategyContext) -> int:
    """Hoeffding-sized sample count, capped by the remaining deadline.

    ``ceil(ln(2/delta) / (2 eps^2))`` samples bound the hit-rate error
    by *eps* with probability ``1 - delta``.  Under a deadline the
    count is additionally capped so sampling (one O(atoms) Boolean
    membership test per sample) spends at most half the budget — the
    guarantee degrades gracefully (wider stated epsilon) instead of the
    deadline being blown by its own fallback.
    """
    epsilon = _approx_error_budget(ctx)
    sized = math.ceil(
        math.log(2.0 / APPROX_DEFAULT_DELTA) / (2.0 * epsilon * epsilon)
    )
    budget = ctx.cost_budget_units()
    if budget is not None:
        per_sample = _approx_per_sample_units(ctx)
        sized = min(sized, int(budget / (2.0 * per_sample)))
    return max(APPROX_MIN_SAMPLES, min(sized, APPROX_MAX_SAMPLES))


def _approx_applicable(ctx: StrategyContext) -> Optional[object]:
    # The tier serves deadline/error-budget requests only: a plain
    # request never silently receives an estimate.
    if ctx.deadline_ms is None and ctx.error_budget is None:
        return None
    return True


def _approx_estimate(ctx: StrategyContext) -> float:
    # One O(atoms) Boolean membership test per sample: the candidate
    # assignment is fully fixed, so checking is hash probes, not search.
    return _approx_samples(ctx) * _approx_per_sample_units(ctx)


def _approx_run(ctx: StrategyContext, witness: object
                ) -> Tuple[int, Dict[str, object]]:
    samples = _approx_samples(ctx)
    delta = APPROX_DEFAULT_DELTA
    # Deterministic seed from (shape, database content, sample count):
    # inline, thread, and process shards — and any replay of the same
    # request — produce bit-identical estimates.  Content enters through
    # the per-relation digests memoized on the relations, so a repeated
    # request never re-renders its rows.
    material = repr((
        ctx.fingerprint if ctx.fingerprint is not None else ctx.query.name,
        ctx.content_tags(),
        samples,
    ))
    seed = int.from_bytes(
        hashlib.sha256(material.encode("utf-8")).digest()[:8], "big"
    )
    outcome = monte_carlo_count(
        ctx.query, ctx.database,
        samples=samples, confidence=1.0 - delta, seed=seed,
    )
    details: Dict[str, object] = {
        "method": "approx",
        "estimate": outcome.estimate,
        # The honesty contract forwarded to users:
        #   P(|estimate - exact| > epsilon) <= delta
        # with epsilon *absolute* (the Hoeffding half-width, i.e. the
        # relative error budget scaled by the candidate-space size) and
        # delta = 0 for degenerate cases the estimator resolved exactly.
        "epsilon": outcome.half_width,
        "delta": 0.0 if outcome.exact else delta,
        "samples": outcome.samples,
        "hits": outcome.hits,
        "space_size": outcome.space_size,
        "exact": outcome.exact,
        "error_budget": _approx_error_budget(ctx),
    }
    return int(round(outcome.estimate)), details


def _approx_failure(ctx: StrategyContext) -> Exception:
    return DecompositionNotFoundError(
        f"{ctx.query.name}: the approx strategy serves deadline/error-budget "
        f"requests only — pass deadline_ms= or error_budget="
    )


register_strategy("compiled", _compiled_applicable, _compiled_estimate,
                  _compiled_run, _compiled_failure)
register_strategy("acyclic", _acyclic_applicable, _acyclic_estimate,
                  _acyclic_run, _acyclic_failure)
register_strategy("structural", _structural_applicable, _structural_estimate,
                  _structural_run, _structural_failure)
register_strategy("hybrid", _hybrid_applicable, _hybrid_estimate,
                  _hybrid_run, _hybrid_failure)
register_strategy("degree", _degree_applicable, _degree_estimate,
                  _degree_run, _degree_failure)
register_strategy("brute_force", _brute_applicable, _brute_estimate,
                  _brute_run, lambda ctx: AssertionError("always applicable"))
register_strategy("approx", _approx_applicable, _approx_estimate,
                  _approx_run, _approx_failure)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
class CountResult:
    """Outcome of a counting run: the count plus the decision trail.

    ``CountResult(count, strategy, details)`` holds *details* as given.
    Results of :func:`count_answers` keep the engine's decision as
    compact data instead (a :class:`_Decision`) and render
    :attr:`details` — a plain JSON-serializable dict — on first read:
    results are kept by the thousand (batch outputs, stream replays,
    benchmark logs), and most are never inspected.
    """

    __slots__ = ("count", "strategy", "_details", "_decision")

    def __init__(self, count: int, strategy: str,
                 details: Optional[Dict[str, object]] = None):
        self.count = count
        self.strategy = strategy
        self._details = {} if details is None else details
        self._decision: Optional[_Decision] = None

    @classmethod
    def _decided(cls, count: int, strategy: str,
                 decision: "_Decision") -> "CountResult":
        result = cls(count, strategy)
        result._details = None
        result._decision = decision
        return result

    @property
    def details(self) -> Dict[str, object]:
        """The decision trail and strategy details (rendered once)."""
        if self._details is None:
            self._details = self._decision.render()
            self._decision = None
        return self._details

    @details.setter
    def details(self, value: Dict[str, object]) -> None:
        self._details = value
        self._decision = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountResult):
            return NotImplemented
        return ((self.count, self.strategy, self.details)
                == (other.count, other.strategy, other.details))

    __hash__ = None  # details stay mutable (the service labels them)

    def __repr__(self) -> str:
        return (f"CountResult(count={self.count!r}, "
                f"strategy={self.strategy!r}, details={self.details!r})")

    def __reduce__(self):
        return (CountResult, (self.count, self.strategy, self.details))

    def __int__(self) -> int:
        return self.count

    def explain(self) -> str:
        """A query-plan-style rendering of the engine's decision trail."""
        lines = [
            f"count     : {self.count}",
            f"strategy  : {self.strategy}",
        ]
        actual = self.details.get("actual_seconds")
        if actual is not None:
            lines[-1] += f"  ({actual * 1e3:.1f} ms)"
        plain = {
            key: value for key, value in self.details.items()
            if key not in ("decision_trail", "actual_seconds", "bag_kernels")
        }
        for key, value in plain.items():
            lines.append(f"{key:<10}: {value}")
        kernels = self.details.get("bag_kernels")
        if kernels:
            lines.append("bag kernels:")
            for index, kernel in enumerate(kernels.split("; ")):
                lines.append(f"  bag {index}: {kernel}")
        trail = self.details.get("decision_trail")
        if trail:
            lines.append("decision trail (cost-ranked):")
            lines.append("  rank  strategy     est.cost      outcome")
            for rank, entry in enumerate(trail, start=1):
                if entry.get("chosen"):
                    outcome = "chosen"
                elif entry.get("skipped"):
                    outcome = f"skipped: {entry['skipped']}"
                elif entry.get("probed"):
                    outcome = "not applicable"
                else:
                    outcome = "not probed"
                lines.append(
                    f"  {rank:>4}  {entry['strategy']:<12} "
                    f"{entry['estimated_cost']:>12.3g}  {outcome}"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def _json_safe(value):
    """Recursively coerce *value* to plain JSON-serializable data.

    Strings, numbers, booleans and ``None`` pass through; mappings and
    sequences recurse (tuples/sets become lists); anything else — live
    decomposition objects, variables, relations — is replaced by its
    ``repr``.  ``CountResult.details`` goes through this, so batch
    results can always be serialized by the CLI and shipped across
    process boundaries.
    """
    if value is None or isinstance(value, (bool, str, int, float)):
        return value
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [_json_safe(item) for item in value]
        try:
            items.sort()
        except TypeError:
            pass
        return items
    return repr(value)


def _render_bag(bag: Dict[str, object], names: Dict[str, str]) -> str:
    """One :func:`~repro.counting.compile.describe_bags` entry in the
    caller's variable names."""
    def spelled(key: str) -> str:
        return ", ".join(names.get(name, name) for name in bag[key])

    text = f"{bag['kernel']} over {bag['scans']} scan(s)"
    if "order" in bag:
        text += ", order " + (spelled("order") or "-")
        if bag.get("witness"):
            text += " | witness " + spelled("witness")
        if bag.get("eliminated"):
            text += " | union-eliminated " + spelled("eliminated")
    return text


#: Trail flags, one byte per ranked strategy: probed, chosen, and the
#: index of the skip reason in :data:`_SKIPPED` from bit 2 up.
_PROBED, _CHOSEN, _SKIP_SHIFT = 1, 2, 2
_SKIPPED = (None, "held back as deadline fallback",
            "observed deadline overrun", "predicted deadline overrun")

#: Interned strategy rankings: the registry yields a handful of
#: distinct orders, so results share one tuple per order.
_RANKINGS: Dict[Tuple[str, ...], Tuple[str, ...]] = {}


class _Decision:
    """What :func:`count_answers` decided, kept as compact data until
    :meth:`CountResult.details` renders it.

    ``runner`` is the winning strategy's details dict (never mutated —
    the compiled runner's is shared by every result of a program);
    ``names`` flattens the canonical -> caller variable names
    (``None`` when no detail mentions a variable); an auto decision
    carries the cost ranking, its estimates (packed doubles when every
    estimate is a float) and one flag byte per strategy.
    """

    __slots__ = ("runner", "names", "digest", "ranking", "costs",
                 "flags", "seconds", "deadline_ms", "budget")

    def __init__(self, runner: Dict[str, object], form: CanonicalForm,
                 deadline_ms: Optional[float],
                 ranking: Optional[Tuple[str, ...]] = None,
                 costs: Sequence[float] = (), flags: bytes = b"",
                 seconds: Optional[float] = None,
                 budget: Optional[float] = None):
        self.runner = runner
        self.names = None
        if "bag_kernels" in runner or "pseudo_free" in runner:
            self.names = tuple(chain.from_iterable(
                form.original_variable_names().items()))
        self.digest = form.digest
        self.deadline_ms = deadline_ms
        if ranking is not None:
            shared = _RANKINGS.get(ranking)
            if shared is None and len(_RANKINGS) < 256:
                _RANKINGS[ranking] = ranking
            ranking = shared or ranking
            costs = (struct.pack(f"{len(costs)}d", *costs)
                     if all(type(cost) is float for cost in costs)
                     else tuple(costs))
        self.ranking = ranking
        self.costs = costs
        self.flags = bytes(flags)
        self.seconds = seconds
        self.budget = budget

    def render(self) -> Dict[str, object]:
        """The details dict, exactly as the engine always reported it."""
        details = dict(self.runner)
        if self.ranking is not None:
            costs = self.costs
            if isinstance(costs, bytes):
                costs = struct.unpack(f"{len(self.ranking)}d", costs)
            trail = []
            for name, cost, flag in zip(self.ranking, costs, self.flags):
                entry: Dict[str, object] = {
                    "strategy": name,
                    "estimated_cost": cost,
                    "probed": bool(flag & _PROBED),
                    "chosen": bool(flag & _CHOSEN),
                }
                if flag >> _SKIP_SHIFT:
                    entry["skipped"] = _SKIPPED[flag >> _SKIP_SHIFT]
                trail.append(entry)
            details["decision_trail"] = trail
            details["estimated_cost"] = next(
                cost for cost, flag in zip(costs, self.flags)
                if flag & _CHOSEN)
            details["actual_seconds"] = self.seconds
        if self.deadline_ms is not None:
            details["deadline_ms"] = self.deadline_ms
            if self.ranking is not None:
                details["cost_budget_units"] = self.budget
        names = {} if self.names is None else dict(
            zip(self.names[::2], self.names[1::2]))
        if "pseudo_free" in details:
            details["pseudo_free"] = sorted(
                names.get(name, name) for name in details["pseudo_free"]
            )
        if "bag_kernels" in details:
            # One compact string per result.
            details["bag_kernels"] = "; ".join(
                _render_bag(bag, names) for bag in details["bag_kernels"])
        details["plan_fingerprint"] = self.digest
        return _json_safe(details)


def count_answers(query: ConjunctiveQuery, database: Database,
                  method: str = "auto", max_width: int = 3,
                  max_degree: float = math.inf,
                  hybrid_width: int = 2,
                  plan_cache: Optional[PlanCache] = None,
                  deadline_ms: Optional[float] = None,
                  error_budget: Optional[float] = None) -> CountResult:
    """Count the answers of *query* over *database*.

    Parameters
    ----------
    method:
        ``"auto"`` or a registered strategy name to force that strategy
        (raising when it is inapplicable).
    max_width:
        Largest #-hypertree width probed by the structural strategy.
    max_degree:
        Degree budget for the hybrid strategy.
    hybrid_width:
        Width used for the hybrid search (kept small: its candidate
        enumeration is exponential in the number of existential variables).
    plan_cache:
        The :class:`PlanCache` sharing decomposition plans across calls;
        defaults to the process-wide cache.  Plans are keyed by the
        query's canonical shape fingerprint, so bijectively renamed
        queries share plans.
    deadline_ms:
        Wall-clock budget in milliseconds.  ``auto`` then skips exact
        strategies whose cost estimate exceeds the calibrated unit
        budget (see :func:`cost_units_per_ms`) — and stops starting new
        ones once probing has observably burned too much of the
        deadline — answering from the ``approx`` strategy instead: a
        deterministic Monte Carlo ``(estimate, epsilon, delta)`` result
        carried in ``details``.  Cheap requests still answer exact.
    error_budget:
        Relative error budget for approximate answers (a fraction of
        the candidate-space size).  Also makes ``method="approx"``
        and the auto fallback applicable without a deadline.
    """
    if method != "auto" and method not in _REGISTRY:
        raise ValueError(f"unknown method {method!r}")
    if deadline_ms is not None and deadline_ms <= 0:
        raise ValueError(f"deadline_ms must be positive, got {deadline_ms}")
    if error_budget is not None and not 0 < error_budget < 1:
        raise ValueError(
            f"error_budget must be a fraction in (0, 1), got {error_budget}"
        )
    cache = plan_cache if plan_cache is not None else default_plan_cache()
    # Execute in canonical space: the shape-renamed query over the
    # shape-renamed database (cached relation aliases — contents, index
    # caches and statistics are shared with the originals).  Counts are
    # invariant under the bijective renaming; plans become shape-keyed.
    form = cache.canonical(query)
    context = StrategyContext(
        form.query.renamed(query.name),
        database.renamed_restriction(form.symbol_map),
        max_width=max_width, max_degree=max_degree,
        hybrid_width=hybrid_width,
        plan_cache=cache, fingerprint=form.fingerprint,
        deadline_ms=deadline_ms, error_budget=error_budget,
    )

    if method != "auto":
        strategy = _REGISTRY[method]
        witness = strategy.applicability(context)
        if witness is None:
            raise strategy.failure(context)
        count, details = strategy.runner(context, witness)
        return CountResult._decided(count, method,
                                    _Decision(details, form, deadline_ms))

    # Cost-ranked auto selection: estimate every strategy from statistics
    # alone, then probe applicability cheapest-first and run the winner.
    # Under a deadline, exact strategies over the unit budget are skipped
    # and the approx tier is held back as the fallback — exact when
    # possible, approximate when necessary.  The trail is one flag byte
    # per ranked strategy (see :class:`_Decision`).
    started_auto = time.perf_counter()
    budget_units = context.cost_budget_units()
    preference = {name: rank for rank, name in enumerate(_REGISTRY)}
    estimates = {
        name: strategy.cost_estimate(context)
        for name, strategy in _REGISTRY.items()
    }
    ranked = sorted(
        _REGISTRY.values(),
        key=lambda s: (estimates[s.name], preference[s.name]),
    )
    flags = bytearray(len(ranked))

    def skip(position: int, reason: str) -> None:
        flags[position] = _SKIPPED.index(reason) << _SKIP_SHIFT

    def run_winner(position: int, strategy: Strategy,
                   witness: object) -> CountResult:
        # Chosen, and no longer skipped.
        flags[position] = (flags[position] & _PROBED) | _CHOSEN
        started = time.perf_counter()
        count, details = strategy.runner(context, witness)
        elapsed = time.perf_counter() - started
        decision = _Decision(
            details, form, deadline_ms, tuple(s.name for s in ranked),
            [estimates[s.name] for s in ranked], flags, elapsed,
            budget_units)
        return CountResult._decided(count, strategy.name, decision)

    for position, strategy in enumerate(ranked):
        if strategy.name == "approx":
            # The deadline fallback: only after every exact option is
            # ruled out — never preferred over an exact answer that fits.
            skip(position, "held back as deadline fallback")
            continue
        if budget_units is not None:
            elapsed_ms = (time.perf_counter() - started_auto) * 1e3
            if elapsed_ms >= OBSERVED_OVERRUN_FRACTION * context.deadline_ms:
                skip(position, "observed deadline overrun")
                continue
            if estimates[strategy.name] > budget_units:
                skip(position, "predicted deadline overrun")
                continue
        flags[position] |= _PROBED
        witness = strategy.applicability(context)
        if witness is None:
            continue
        return run_winner(position, strategy, witness)

    # Every exact strategy was skipped (deadline pressure) or
    # inapplicable: answer approximately when the tier is available.
    for position, strategy in enumerate(ranked):
        if strategy.name != "approx":
            continue
        flags[position] |= _PROBED
        witness = strategy.applicability(context)
        if witness is not None:
            return run_winner(position, strategy, witness)

    # No approx tier either (it was unregistered, or no deadline was
    # set and nothing applied): run the cheapest applicable exact
    # strategy regardless of the budget — a best-effort late answer
    # beats no answer.
    for position, strategy in enumerate(ranked):
        if strategy.name == "approx":
            continue
        flags[position] |= _PROBED
        witness = strategy.applicability(context)
        if witness is None:
            continue
        result = run_winner(position, strategy, witness)
        result.details["deadline_missed"] = True
        return result
    raise AssertionError(  # pragma: no cover - brute force always applies
        "no applicable counting strategy"
    )
