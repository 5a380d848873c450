"""Metamorphic properties of CQ answers, checked beyond oracle scale.

The differential suites compare the engine against :mod:`repro.cq.naive`,
which only reaches brute-force-sized inputs.  A metamorphic property
follows from CQ theory instead, so it can check the engine on inputs the
oracle never sees in one piece.

**Product property.**  A homomorphism into a direct product is exactly a
pair of homomorphisms into its factors, so for every unary CQ ``q``::

    q(D1 × D2) = {(a, b) : a ∈ q(D1), b ∈ q(D2)}

This is the substrate of query-by-example (the product of the positive
examples is their most specific fitting query).  Here one factor is a
seeded random graph of 64–128 elements and the other has at most 4
elements, so the product's domain reaches the hundreds while each factor
stays small enough for the naive oracle.  The engine answers the product
on both backends.

Budget: ``max_examples=50`` per backend, within 20 s of tier-1 time.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cq.engine import EvaluationEngine
from repro.cq.naive import naive_evaluate_unary
from repro.data import Database, Fact, bitset
from repro.data.product import direct_product
from repro.data.schema import EntitySchema
from repro.workloads.random_db import random_database

from tests.property.strategies import unary_feature_queries

_SETTINGS = settings(max_examples=50, deadline=None)

SCHEMA = EntitySchema.from_arities({"E": 2})

#: The small factor's elements: at most 4 distinct values.
small_elements = st.integers(min_value=0, max_value=3)


@st.composite
def small_databases(draw):
    """Edge databases over at most 4 elements, with a nonempty eta set."""
    pairs = draw(
        st.lists(
            st.tuples(small_elements, small_elements), min_size=1, max_size=8
        )
    )
    entities = draw(st.lists(small_elements, min_size=1, max_size=4))
    facts = {Fact("E", pair) for pair in pairs}
    facts.update(Fact("eta", (entity,)) for entity in entities)
    return Database(facts)


@st.composite
def large_databases(draw):
    """A seeded random graph of 64–128 elements, half of them entities."""
    size = draw(st.integers(min_value=64, max_value=128))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return random_database(
        SCHEMA, size, 2 * size, n_entities=size // 2, seed=seed
    )


@st.composite
def factor_pairs(draw):
    """``(D1, D2)``: one large and one small factor, in either order."""
    large, small = draw(large_databases()), draw(small_databases())
    return (small, large) if draw(st.booleans()) else (large, small)


@pytest.mark.parametrize("backend", ["python", "numpy"])
@_SETTINGS
@given(query=unary_feature_queries(), factors=factor_pairs())
def test_product_answers_are_products_of_answers(backend, query, factors):
    if backend == "numpy" and not bitset.HAVE_NUMPY:
        pytest.skip("numpy backend unavailable")
    left, right = factors
    expected = {
        (a, b)
        for a in naive_evaluate_unary(query, left)
        for b in naive_evaluate_unary(query, right)
    }
    engine = EvaluationEngine(backend=backend)
    assert engine.evaluate_unary(query, direct_product(left, right)) == (
        expected
    )
