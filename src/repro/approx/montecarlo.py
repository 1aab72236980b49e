"""Naive Monte Carlo estimation of answer counts.

The baseline estimator: sample assignments of the free variables uniformly
from a *candidate space*, test each for membership in the answer set, and
scale the hit rate by the space size.  The candidate space is the product
of per-variable candidate sets obtained from the unary projections of the
matched atoms — a cheap over-approximation of the answer set that can still
be exponentially larger than it, which is exactly why the FPRAS line of
work [ACJR21b] (and the exact sampler in :mod:`repro.approx.sampler`) is
interesting.

Membership of one assignment is a Boolean conjunctive query (substitute the
constants, ask for a witness) — polynomial per sample for fixed queries.
Hoeffding's inequality turns the hit count into a two-sided confidence
interval on the answer count.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from ..db.algebra import SubstitutionSet
from ..db.database import Database
from ..exceptions import QueryError
from ..homomorphism.solver import has_homomorphism
from ..query.query import ConjunctiveQuery
from ..query.terms import Variable


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Outcome of a Monte Carlo run.

    When ``exact`` is true the run resolved the count *exactly* — a
    degenerate case (empty candidate space, Boolean query) decided
    without meaningful sampling.  Then ``estimate`` is the true count,
    ``half_width`` is 0.0, and the stated ``confidence`` is vacuous:
    the result holds with certainty, regardless of the sample count
    (which reports what was actually drawn, possibly 0 or 1).
    Consumers forwarding ``(estimate, epsilon, delta)`` guarantees can
    report ``delta=0`` for exact results.
    """

    estimate: float
    samples: int
    hits: int
    space_size: int
    confidence: float
    half_width: float
    exact: bool = False

    @property
    def interval(self) -> Tuple[float, float]:
        """The (clamped) confidence interval on the answer count."""
        return (
            max(0.0, self.estimate - self.half_width),
            min(float(self.space_size), self.estimate + self.half_width),
        )

    def covers(self, true_count: int) -> bool:
        """Whether the interval contains *true_count*."""
        low, high = self.interval
        return low <= true_count <= high


def candidate_domains(query: ConjunctiveQuery, database: Database
                      ) -> Dict[Variable, List[Hashable]]:
    """Per-free-variable candidate values from atom unary projections.

    A value is a candidate for ``X`` iff every atom containing ``X`` has a
    matching tuple placing that value at ``X`` — the same pruning as the
    homomorphism solver's initial domains, restricted to free variables.
    """
    domains: Dict[Variable, set] = {}
    free = query.free_variables
    for atom in query.atoms_sorted():
        relation = database[atom.relation]
        positions: Dict[Variable, int] = {}
        for position, term in enumerate(atom.terms):
            if term in free and term not in positions:
                positions[term] = position
        if len(set(atom.terms)) == atom.arity == relation.arity and all(
                isinstance(term, Variable) for term in atom.terms):
            # No constant or repeated variable selects rows: the
            # projections are plain columns, cached on the relation.
            statistics = relation.statistics()
            columns = {variable: statistics.values(position)
                       for variable, position in positions.items()}
        else:
            matched = SubstitutionSet.from_atom(atom, relation)
            columns = {
                variable: {row[0]
                           for row in matched.project([variable]).rows}
                for variable in positions
            }
        for variable, values in columns.items():
            if variable in domains:
                domains[variable] &= values
            else:
                domains[variable] = set(values)
    return {
        variable: sorted(values, key=repr)
        for variable, values in domains.items()
    }


def monte_carlo_count(query: ConjunctiveQuery, database: Database,
                      samples: int = 1000, confidence: float = 0.95,
                      seed: Optional[int] = None) -> MonteCarloEstimate:
    """Estimate ``count(Q, D)`` by uniform sampling of the candidate space.

    Returns the scaled estimate with a Hoeffding confidence interval at the
    requested level.  Exact shortcut: when the candidate space is empty the
    count is exactly 0 (and the interval degenerate).
    """
    if samples <= 0:
        raise QueryError("samples must be positive")
    if not query.free_variables:
        # Boolean query: a single membership test decides 0 vs 1.
        hit = has_homomorphism(query, database)
        return MonteCarloEstimate(
            estimate=float(hit), samples=1, hits=int(hit),
            space_size=1, confidence=confidence, half_width=0.0,
            exact=True,
        )
    domains = candidate_domains(query, database)
    variables = sorted(query.free_variables, key=lambda v: v.name)
    if any(not domains.get(v) for v in variables):
        # Empty candidate space: the count is exactly 0 — no samples
        # were drawn, so the result must not masquerade as a sampled
        # interval at the caller's confidence.
        return MonteCarloEstimate(
            estimate=0.0, samples=0, hits=0, space_size=0,
            confidence=confidence, half_width=0.0, exact=True,
        )
    space_size = math.prod(len(domains[v]) for v in variables)
    rng = random.Random(seed)
    hits = 0
    for _ in range(samples):
        assignment = {v: rng.choice(domains[v]) for v in variables}
        if has_homomorphism(query, database, fixed=assignment):
            hits += 1
    estimate = hits / samples * space_size
    # Hoeffding: P(|p_hat - p| >= eps) <= 2 exp(-2 n eps^2).
    epsilon = math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))
    return MonteCarloEstimate(
        estimate=estimate,
        samples=samples,
        hits=hits,
        space_size=space_size,
        confidence=confidence,
        half_width=epsilon * space_size,
    )
