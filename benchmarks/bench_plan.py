"""Ablation A10 — compile-once query plans vs per-check query analysis.

Two claims, each asserted on deterministic work counters (never timing):

1. **Planned backtracking prunes.**  The engine, which executes
   precompiled homomorphism programs, produces bit-identical statistics to
   the frozen unplanned oracle (:mod:`repro.cq.naive`) on the retail and
   molecules workloads while expanding *strictly fewer* backtrack nodes at
   equal hom checks — the ``facts_at`` index lookups enumerate only target
   facts matching an already-bound element instead of scanning whole
   relations.
2. **Single-pass Yannakakis removes the |dom| factor.**  The per-candidate
   reference evaluator re-materializes every bag relation once per
   candidate free value; the compiled single-pass plan materializes each
   bag exactly once.  On a GHW(1) chain query over growing domains the
   bag-materialization ratio (reference / single-pass) must grow with the
   candidate count, with bit-identical answers throughout.

Both tables land in ``benchmarks/results/A10_query_plans.txt``.
"""

from __future__ import annotations

from repro.core.separability import feature_pool
from repro.cq.engine import EvaluationEngine
from repro.cq.homomorphism import SearchCounters
from repro.cq.naive import naive_evaluate_unary
from repro.cq.parser import parse_cq
from repro.cq.plan import PlanCounters, QueryPlan
from repro.cq.structured_evaluation import evaluate_with_decomposition
from repro.data.schema import EntitySchema
from repro.hypergraph.ghw import decompose
from repro.workloads.molecules import molecule_database
from repro.workloads.random_db import random_database
from repro.workloads.retail import retail_database

from harness import report, timed, timed_with_counters

SCHEMA = EntitySchema.from_arities({"E": 2})

#: (label, training database, evaluation database) per workload row.
WORKLOADS = (
    (
        "retail",
        lambda: retail_database(n_customers=6, seed=3),
        lambda: retail_database(n_customers=8, seed=11).database,
    ),
    (
        "molecules",
        lambda: molecule_database(n_molecules=5, seed=7),
        lambda: molecule_database(n_molecules=7, seed=21).database,
    ),
)

#: The GHW(1) scaling family: one chain query, growing domains.
CHAIN_RULE = "q(x) :- eta(x), E(x, y), E(y, z)"
DOMAIN_SIZES = (8, 16, 32, 64)


def _naive_statistic(queries, database, counters):
    """``Π^D`` from one naive evaluation per distinct query."""
    answers = {
        query: naive_evaluate_unary(query, database, counters)
        for query in dict.fromkeys(queries)
    }
    return {
        entity: tuple(
            1 if entity in answers[query] else -1 for query in queries
        )
        for entity in sorted(database.entities(), key=repr)
    }


def test_planned_vs_unplanned_backtracking(benchmark):
    """Claim 1: same vectors, strictly fewer backtrack nodes, per workload."""
    rows = []
    for label, make_training, make_eval in WORKLOADS:
        training = make_training()
        queries = feature_pool(training, 2)
        databases = (training.database, make_eval())

        naive = SearchCounters()
        naive_seconds = 0.0
        naive_vectors = []
        for database in databases:
            seconds, vectors = timed(
                lambda q=queries, d=database: _naive_statistic(q, d, naive)
            )
            naive_seconds += seconds
            naive_vectors.append(vectors)

        planned = EvaluationEngine()
        planned_seconds = 0.0
        planned_vectors = []
        for database in databases:
            seconds, vectors, _ = timed_with_counters(
                planned,
                lambda q=queries, d=database, g=planned: (
                    g.evaluate_statistic(q, d)
                ),
            )
            planned_seconds += seconds
            planned_vectors.append(vectors)

        # Bit-identical answers on every differential row.
        assert planned_vectors == naive_vectors
        # Acceptance: planned evaluation does strictly fewer backtrack
        # nodes than the unplanned oracle (the work-counter regression
        # guard).
        assert planned.counters.backtrack_nodes < naive.backtrack_nodes
        assert planned.counters.hom_checks == naive.hom_checks
        # Compile-once: every plan was compiled at most once (queries whose
        # candidate prefilter is empty never need one at all), and the
        # second database reused the first database's plans as cache hits.
        plans = planned.cache_details()["plans"]
        assert plans.misses == plans.currsize <= len(queries)
        assert plans.hits > 0

        rows.append(
            (
                label,
                len(queries),
                len(databases),
                naive.backtrack_nodes,
                planned.counters.backtrack_nodes,
                f"{naive.backtrack_nodes / planned.counters.backtrack_nodes:.2f}x",
                f"{naive_seconds * 1e3:.1f} ms",
                f"{planned_seconds * 1e3:.1f} ms",
            )
        )
    report(
        "A10_query_plans",
        (
            "workload",
            "features",
            "databases",
            "naive nodes",
            "planned nodes",
            "node ratio",
            "naive",
            "planned",
        ),
        rows,
    )

    # Steady-state timing: a warm planned engine re-materializing the
    # retail statistic (plan cache and answer cache both hot).
    training = WORKLOADS[0][1]()
    queries = feature_pool(training, 2)
    warm = EvaluationEngine()
    warm.evaluate_statistic(queries, training.database)
    benchmark(lambda: warm.evaluate_statistic(queries, training.database))


def test_single_pass_removes_domain_factor(benchmark):
    """Claim 2: bag materializations per evaluation stop scaling with |dom|."""
    query = parse_cq(CHAIN_RULE)
    decomposition = decompose(query, 1)
    assert decomposition is not None
    plan = QueryPlan.compile(query).structured_for(decomposition)

    rows = []
    ratios = []
    for size in DOMAIN_SIZES:
        database = random_database(
            SCHEMA, size, 3 * size, n_entities=size, seed=size
        )

        reference = PlanCounters()
        ref_seconds, ref_answer = timed(
            lambda d=database, c=reference: evaluate_with_decomposition(
                query, decomposition, d, c
            )
        )

        single = PlanCounters()
        single_seconds, single_answer = timed(
            lambda d=database, c=single: plan.evaluate(d, c)
        )

        # Bit-identical answers; the backtracking engine agrees too.
        assert single_answer == ref_answer
        assert single_answer == EvaluationEngine().evaluate_unary(
            query, database
        )
        assert single.bag_relations < reference.bag_relations

        ratio = reference.bag_relations / single.bag_relations
        ratios.append(ratio)
        rows.append(
            (
                size,
                len(single_answer),
                reference.bag_relations,
                single.bag_relations,
                f"{ratio:.1f}x",
                f"{ref_seconds * 1e3:.1f} ms",
                f"{single_seconds * 1e3:.1f} ms",
            )
        )

    # The removed factor: the per-candidate evaluator's bag count grows
    # with the domain while the single-pass plan's stays flat, so the
    # advantage must grow monotonically along the scaling family.
    assert all(
        later > earlier for earlier, later in zip(ratios, ratios[1:])
    ), ratios

    report(
        "A10_query_plans",
        (
            "|dom|",
            "answers",
            "per-candidate bags",
            "single-pass bags",
            "bag ratio",
            "per-candidate",
            "single-pass",
        ),
        rows,
        append=True,
    )

    largest = random_database(
        SCHEMA,
        DOMAIN_SIZES[-1],
        3 * DOMAIN_SIZES[-1],
        n_entities=DOMAIN_SIZES[-1],
        seed=DOMAIN_SIZES[-1],
    )
    benchmark(lambda: plan.evaluate(largest))
