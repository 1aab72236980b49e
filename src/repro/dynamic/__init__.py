"""Answer counting under database updates.

Berkholz, Keppeler and Schweikardt [BKS17, BKS18] (paper Section 1.3)
study the *dynamic* variant of the counting problem: maintain
``count(Q, D)`` while tuples are inserted into and deleted from ``D``,
spending far less per update than a recount from scratch.

This subpackage implements the tractable heart of that line of work:

* :mod:`repro.dynamic.updates` — the update vocabulary (:class:`Insert`,
  :class:`Delete`) and an applier producing updated immutable databases;
* :mod:`repro.dynamic.maintainer` — :class:`IncrementalCounter`, a
  materialized join-tree dynamic program over an acyclic quantifier-free
  query whose per-tuple update cost is proportional to the affected
  root-to-leaf path instead of the whole database, and
  :class:`MaintainerPool`, the memory-bounded shared pool the session
  front end reads from;
* :mod:`repro.dynamic.reduced` — :class:`ReducedMaintainer`, which
  carries the same delta propagation *through the paper's Theorem 3.7
  reduction*: quantified and cyclic queries with a #-hypertree
  decomposition of bounded width are maintained over the reduced
  instance's bag relations (per-bag provenance translates base-tuple
  updates into bag deltas fed to an inner :class:`IncrementalCounter`).

Only shapes whose #-hypertree width exceeds the configured bound still
fall back to a recount, matching the dichotomy of [BKS17].
"""

from .maintainer import (
    DEFAULT_REDUCED_WIDTH,
    MAINTAINER_BUDGET_ENV,
    IncrementalCounter,
    MaintainerPool,
    SharedMaintainer,
    maintainer_budget_from_env,
)
from .reduced import ReducedMaintainer
from .updates import Delete, Insert, Update, apply_update

__all__ = [
    "MAINTAINER_BUDGET_ENV",
    "DEFAULT_REDUCED_WIDTH",
    "IncrementalCounter",
    "MaintainerPool",
    "ReducedMaintainer",
    "SharedMaintainer",
    "maintainer_budget_from_env",
    "Insert",
    "Delete",
    "Update",
    "apply_update",
]
