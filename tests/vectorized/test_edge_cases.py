"""Edge-case regressions the workload-level differential suite cannot hit.

Empty databases, empty relations, one-element domains, domains crossing
the 64-element word boundary (multi-word bitsets), duplicate queries in a
statistic pool, forced fallbacks (cell cap, numpy disabled), the
fallback-reason export contract, the sort-free row deduplication on each
of its branches, and projection pushdown (joins that fit the cell cap
only once dead columns are dropped; multi-column answers; Boolean
decisions whose every column is projected away).
"""

from __future__ import annotations

import pytest

from repro.cq.engine import EvaluationEngine
from repro.cq.naive import (
    naive_evaluate,
    naive_evaluate_unary,
    naive_has_homomorphism,
)
from repro.cq.parser import parse_cq
from repro.cq.vectorized import VectorizedProgram, _distinct_rows
from repro.data import bitset
from repro.data.database import Database, DatabaseBuilder, Fact
from repro.data.schema import EntitySchema, RelationSymbol
from repro.exceptions import ReproError

pytestmark = pytest.mark.skipif(
    not bitset.HAVE_NUMPY, reason="edge cases target the numpy backend"
)

QUERY = parse_cq("q(x) :- eta(x), E(x, y), R(y)")
SELF_LOOP = parse_cq("q(x) :- eta(x), E(x, x)")


def _both(query, database):
    python = EvaluationEngine(backend="python")
    vectorized = EvaluationEngine(backend="numpy")
    expected = python.evaluate_unary(query, database)
    assert expected == naive_evaluate_unary(query, database)
    assert vectorized.evaluate_unary(query, database) == expected
    return expected


class TestDegenerateDatabases:
    def test_empty_database(self):
        empty = Database(())
        assert _both(QUERY, empty) == frozenset()

    def test_empty_relation(self):
        """Schema declares E, but no E-facts exist."""
        schema = EntitySchema([RelationSymbol("E", 2), RelationSymbol("R", 1)])
        database = Database(
            [Fact("eta", ("a",)), Fact("R", ("a",))], schema=schema
        )
        assert _both(QUERY, database) == frozenset()

    def test_single_element_domain(self):
        database = Database(
            [Fact("eta", ("a",)), Fact("E", ("a", "a")), Fact("R", ("a",))]
        )
        assert _both(QUERY, database) == frozenset({"a"})
        assert _both(SELF_LOOP, database) == frozenset({"a"})

    @pytest.mark.parametrize("n", [63, 64, 65, 130])
    def test_domain_crosses_word_boundary(self, n):
        """Multi-word bitsets: domains straddling the 64-bit packing."""
        builder = DatabaseBuilder()
        for i in range(n):
            builder.add_entity(f"e{i:03d}")
            builder.add("E", f"e{i:03d}", f"e{(i + 1) % n:03d}")
            if i % 3 == 0:
                builder.add("R", f"e{i:03d}")
        database = builder.build()
        assert len(database.domain) == n
        expected = _both(QUERY, database)
        # e_i is selected iff its successor is in R, i.e. (i+1) % n % 3 == 0.
        assert expected == frozenset(
            f"e{i:03d}" for i in range(n) if (i + 1) % n % 3 == 0
        )


class TestPackRoundTripBoundaries:
    @pytest.mark.parametrize("n_bits", [1, 63, 64, 65, 128, 129])
    def test_boundary_round_trips(self, n_bits):
        ids = sorted({0, n_bits // 2, n_bits - 1})
        words = bitset.pack_ids(ids, n_bits)
        assert len(words) == (n_bits + 63) // 64
        assert list(bitset.unpack_ids(words, n_bits)) == ids


class TestStatisticPools:
    def test_duplicate_queries_in_pool(self):
        database = Database(
            [
                Fact("eta", ("a",)),
                Fact("eta", ("b",)),
                Fact("E", ("a", "b")),
                Fact("R", ("b",)),
            ]
        )
        queries = [QUERY, SELF_LOOP, QUERY, QUERY, SELF_LOOP]
        entities = sorted(database.entities(), key=repr)
        python = EvaluationEngine(backend="python")
        vectorized = EvaluationEngine(backend="numpy")
        expected = python.indicator_matrix(queries, database, entities)
        assert vectorized.indicator_matrix(queries, database, entities) == (
            expected
        )
        # Duplicates are answered from the answer cache, not re-swept.
        assert vectorized.counters.vectorized_sweeps == 2


class TestFallbacks:
    def test_cell_cap_forces_fallback_with_identical_results(self):
        builder = DatabaseBuilder()
        for i in range(12):
            builder.add_entity(i)
            for j in range(12):
                builder.add("E", i, j)
            builder.add("R", i)
        database = builder.build()
        cramped = EvaluationEngine(backend="numpy", max_vector_cells=4)
        roomy = EvaluationEngine(backend="numpy")
        expected = roomy.evaluate_unary(QUERY, database)
        assert cramped.evaluate_unary(QUERY, database) == expected
        info = cramped.backend_info()
        assert info["active"] == "numpy"
        assert info["fallbacks"] > 0
        assert "max_cells" in info["fallback_reason"]
        assert cramped.work_snapshot()["backend_fallbacks"] > 0

    def test_numpy_disabled_degrades_to_python(self, monkeypatch):
        monkeypatch.setattr(bitset, "HAVE_NUMPY", False)
        engine = EvaluationEngine(backend="numpy")
        assert engine.active_backend == "python"
        info = engine.backend_info()
        assert info["requested"] == "numpy"
        assert info["active"] == "python"
        assert info["numpy"] is None
        assert info["fallback_reason"] == "numpy unavailable"
        database = Database(
            [Fact("eta", ("a",)), Fact("E", ("a", "a")), Fact("R", ("a",))]
        )
        assert engine.evaluate_unary(QUERY, database) == frozenset({"a"})
        assert engine.counters.vectorized_sweeps == 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError):
            EvaluationEngine(backend="fortran")


class TestHomChecks:
    def test_hom_check_with_fixed_images_outside_target(self):
        source = Database([Fact("E", ("u", "v"))])
        target = Database([Fact("E", ("a", "b"))])
        for fixed in ({"u": "zzz"}, {"ghost": "zzz"}, {"u": "a"}, None):
            expected = naive_has_homomorphism(source, target, fixed)
            engine = EvaluationEngine(backend="numpy")
            assert engine.has_homomorphism(source, target, fixed) == expected

    def test_empty_source_is_trivially_satisfiable(self):
        engine = EvaluationEngine(backend="numpy")
        empty = Database(())
        target = Database([Fact("E", ("a", "b"))])
        assert engine.has_homomorphism(empty, target) is True
        assert engine.has_homomorphism(empty, empty) is True


class TestDistinctRows:
    """The dedupe helper on synthetic id tables, one case per branch."""

    @pytest.mark.parametrize(
        "n_elements, width, n_rows, unique_calls",
        [
            (10, 2, 200, []),  # key space 100 <= 8 x 200 rows: scatter
            (5000, 1, 3, []),  # single column: always scatter
            (1000, 3, 300, [1]),  # key space 1e9: 1-D unique of keys
            (2**32, 2, 300, [2]),  # key space 2^64 overflows: axis=0
        ],
    )
    def test_branch_matches_row_unique(
        self, monkeypatch, n_elements, width, n_rows, unique_calls
    ):
        np = bitset.np
        rng = np.random.RandomState(n_rows + width)
        pool = rng.randint(0, n_elements, size=(n_rows // 3 + 1, width))
        pool[0] = n_elements - 1  # the largest id survives the round trip
        table = pool[rng.randint(0, len(pool), size=n_rows)]
        table[0] = pool[0]
        expected = {tuple(row) for row in np.unique(table, axis=0).tolist()}

        calls = []
        unique = np.unique

        def spy(array, *args, **kwargs):
            calls.append(np.ndim(array))
            return unique(array, *args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        result = _distinct_rows(table, n_elements)
        monkeypatch.undo()

        assert calls == unique_calls
        assert result.shape[1] == width
        rows = [tuple(row) for row in result.tolist()]
        assert len(rows) == len(set(rows))
        assert set(rows) == expected

    def test_zero_width_and_tiny_tables(self):
        np = bitset.np
        assert _distinct_rows(np.zeros((5, 0), dtype=np.int64), 3).shape == (
            1,
            0,
        )
        single = np.array([[2, 1]], dtype=np.int64)
        assert _distinct_rows(single, 3).tolist() == [[2, 1]]


def _grid(n):
    """``n`` entities on a ring with chords; ``R`` on every third one."""
    builder = DatabaseBuilder()
    for i in range(n):
        builder.add_entity(f"e{i:03d}")
        builder.add("E", f"e{i:03d}", f"e{(i + 1) % n:03d}")
        builder.add("E", f"e{i:03d}", f"e{(i * 7 + 3) % n:03d}")
        if i % 3 == 0:
            builder.add("R", f"e{i:03d}")
    return builder.build()


class TestProjectionPushdown:
    def test_cap_fits_only_after_projection(self):
        """Star joins: the full join exceeds the cap, each projected one not.

        Every entity has six E-, F- and G-successors (the last entity has
        no G-successor).  The full join of the three atoms has 10 x 6^3
        rows; with the dead y, z, w projected away after each step, no
        join materializes more than 60 rows x 2 columns.
        """
        builder = DatabaseBuilder()
        for i in range(10):
            builder.add_entity(i)
            for j in range(6):
                builder.add("E", i, 100 + j)
                builder.add("F", i, 200 + j)
                if i < 9:
                    builder.add("G", i, 300 + j)
        database = builder.build()
        query = parse_cq("q(x) :- E(x, y), F(x, z), G(x, w)")
        cramped = EvaluationEngine(backend="numpy", max_vector_cells=200)
        python = EvaluationEngine(backend="python")
        expected = python.evaluate_unary(query, database)
        assert expected == naive_evaluate_unary(query, database)
        assert expected == frozenset(range(9))
        assert cramped.evaluate_unary(query, database) == expected
        assert cramped.work_snapshot()["backend_fallbacks"] == 0
        assert cramped.counters.vectorized_sweeps == 1

    @pytest.mark.parametrize(
        "rule",
        [
            "q(x, z) :- E(x, y), E(y, z)",
            "q(x, z) :- E(x, y), E(y, z), R(y)",
            "q(x, y, w) :- E(x, y), E(y, z), R(z), E(x, w)",
            "q(x, z, u) :- E(x, y), E(y, z), E(z, u), E(u, x)",
        ],
    )
    @pytest.mark.parametrize("n", [7, 16])
    def test_multi_column_answers_match_naive(self, rule, n):
        query = parse_cq(rule)
        database = _grid(n)
        expected = naive_evaluate(query, database)
        assert expected
        engine = EvaluationEngine(backend="numpy")
        assert engine.evaluate(query, database) == expected
        assert engine.work_snapshot()["backend_fallbacks"] == 0
        program = VectorizedProgram.compile_query(query)
        assert program.evaluate(database) == expected

    @pytest.mark.parametrize("n", [7, 70])
    def test_boolean_decide_projects_every_column(self, n):
        target = _grid(n)
        sources = [
            Database([Fact("E", ("u", "v")), Fact("E", ("v", "w"))]),
            Database(
                [
                    Fact("E", ("u", "v")),
                    Fact("E", ("v", "w")),
                    Fact("E", ("w", "u")),
                ]
            ),
            Database([Fact("E", ("u", "u"))]),
            Database([Fact("E", ("u", "v")), Fact("R", ("v",))]),
        ]
        engine = EvaluationEngine(backend="numpy")
        for source in sources:
            program = VectorizedProgram.compile_database(source)
            assert program.live[-1] == frozenset()
            expected = naive_has_homomorphism(source, target)
            assert program.decide(target) == expected
            assert engine.has_homomorphism(source, target) == expected
        assert engine.work_snapshot()["backend_fallbacks"] == 0
