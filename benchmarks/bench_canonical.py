"""Canonical-labelling benchmark: µs per form, symmetric families.

Every count canonicalizes its query before it can reach the plan cache
(``PlanCache.canonical``), so the labeller's cost is paid per request.
Two measurements, asserted here and recorded into ``BENCH_kernel.json``
by ``run_all.py``:

* **µs per form** over an ad-hoc-style universe: path, star, triangle
  and 4-cycle patterns with several free-variable choices, each under
  three symbol assignments over four relations (all distinct, all the
  same, alternating), every form taken of a fresh random renaming of
  variables and symbols (``canonical_us_per_form``);
* **symmetric families** (``repro.workloads.graph_patterns
  .SYMMETRIC_FAMILIES``: one-symbol stars up to 16 leaves, up to 12
  disjoint edges over distinct symbols, up to 5 disjoint triangles,
  spiders up to 7 legs, K8, the 4x4 grid, C12), where the
  individualization search branches: each must canonicalize in under
  50 ms.

The bar — enforced by exit code — is the families' 50 ms ceiling plus
completeness: every renaming of a shape, in the universe and in the
families, lands on that shape's one fingerprint.

Standalone usage (CI artifact)::

    PYTHONPATH=src python benchmarks/bench_canonical.py -o bench-canonical.json
"""

from __future__ import annotations

import time

from repro.query.canonical import canonical_form, random_renaming
from repro.query.parser import parse_query
from repro.workloads.graph_patterns import SYMMETRIC_FAMILIES

#: name -> (edges over pattern variables, free-variable choices)
PATTERNS = {
    "path2": ("AB BC", ("ABC", "AC", "A")),
    "path3": ("AB BC CD", ("ABCD", "AD", "A")),
    "path4": ("AB BC CD DE", ("ABCDE", "A")),
    "star2": ("AB AC", ("ABC", "A")),
    "star3": ("AB AC AD", ("ABCD", "A", "AB")),
    "star4": ("AB AC AD AE", ("ABCDE", "A")),
    "tri": ("AB BC CA", ("ABC", "A", "AB")),
    "cyc4": ("AB BC CD DA", ("ABCD", "AC", "AB")),
}
RELATIONS = ("e1", "e2", "e3", "e4")
ASSIGNMENTS = {
    "distinct": lambda k: tuple(range(k)),
    "same": lambda k: (0,) * k,
    "alternating": lambda k: tuple(i % 2 for i in range(k)),
}
RENAMINGS = 40
FAMILY_RENAMINGS = 12
FAMILY_CEILING_MS = 50.0


def universe():
    """shape id -> query, over every pattern, free set and assignment."""
    shapes = {}
    for pattern, (edges, frees) in PATTERNS.items():
        pairs = edges.split()
        for free in frees:
            for name, assign in ASSIGNMENTS.items():
                symbols = assign(len(pairs))
                body = ", ".join(
                    f"{RELATIONS[s]}({a}, {b})"
                    for s, (a, b) in zip(symbols, pairs)
                )
                shapes[f"{pattern}.{free}.{name}"] = parse_query(
                    f"ans({', '.join(free)}) :- {body}")
    return shapes


def _best_ms(query, repeat: int = 3) -> float:
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        canonical_form(query)
        best = min(best, (time.perf_counter() - started) * 1000)
    return best


def _renamings_agree(query, count: int) -> bool:
    fingerprint = canonical_form(query).fingerprint
    return all(
        canonical_form(random_renaming(query, seed=seed,
                                       rename_symbols=True)).fingerprint
        == fingerprint
        for seed in range(count)
    )


def measure_universe() -> dict:
    shapes = universe()
    variants = [
        random_renaming(query, seed=seed, rename_symbols=True)
        for query in shapes.values() for seed in range(RENAMINGS)
    ]
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for query in variants:
            canonical_form(query)
        best = min(best, time.perf_counter() - started)
    return {
        "canonical_us_per_form": round(best / len(variants) * 1e6, 1),
        "universe_shapes": len(shapes),
        "universe_forms": len(variants),
        "universe_renamings_agree": all(
            _renamings_agree(query, RENAMINGS) for query in shapes.values()
        ),
    }


def measure_families() -> dict:
    families = {}
    for family, (build, sizes) in SYMMETRIC_FAMILIES.items():
        for size in sizes:
            query = build(size)
            stats = canonical_form(query).search_stats
            families[f"{family}{size}"] = {
                "ms": round(_best_ms(query), 2),
                "variables": len(query.variables),
                **stats,
                "renamings_agree": _renamings_agree(query, FAMILY_RENAMINGS),
            }
    return {
        "families": families,
        "family_max_ms": max(entry["ms"] for entry in families.values()),
        "family_renamings_agree": all(
            entry["renamings_agree"] for entry in families.values()
        ),
    }


def snapshot() -> dict:
    """The benchmark's JSON snapshot (merged into ``BENCH_kernel.json``)."""
    result = measure_universe()
    result.update(measure_families())
    result["family_ceiling_ms"] = FAMILY_CEILING_MS
    result["meets_canonical_bar"] = (
        result["family_max_ms"] < FAMILY_CEILING_MS
        and result["universe_renamings_agree"]
        and result["family_renamings_agree"]
    )
    return result


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_universe_renamings_share_one_fingerprint():
    outcome = measure_universe()
    assert outcome["universe_renamings_agree"]


def test_symmetric_families_under_ceiling_and_complete():
    outcome = measure_families()
    slow = {name: entry["ms"] for name, entry in outcome["families"].items()
            if entry["ms"] >= FAMILY_CEILING_MS}
    assert not slow, f"families over {FAMILY_CEILING_MS} ms: {slow}"
    assert outcome["family_renamings_agree"]


if __name__ == "__main__":  # pragma: no cover - CI artifact entry point
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="bench-canonical.json")
    args = parser.parse_args()
    result = snapshot()
    with open(args.output, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result, indent=2))
    failed = []
    if result["family_max_ms"] >= FAMILY_CEILING_MS:
        failed.append(f"a symmetric family took {result['family_max_ms']} ms "
                      f"(ceiling {FAMILY_CEILING_MS} ms)")
    if not (result["universe_renamings_agree"]
            and result["family_renamings_agree"]):
        failed.append("a renaming split a shape's fingerprint")
    for message in failed:
        print(f"FAILED: {message}", file=sys.stderr)
    if failed:
        sys.exit(1)
