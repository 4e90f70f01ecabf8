"""Weighted relations: union, composition, closures, walk values."""

import json
import random

import numpy as np
import pytest

from flpdl.algebra import cost_chain
from flpdl.algebra_search import find_non_integral
from flpdl.errors import DimensionMismatch
from flpdl.generators import random_relation
from flpdl.oracles import cost_walk_join_fast
from flpdl.relations import (XRelation, bottom_relation, identity_relation,
                             path_value, refl_trans_closure, rel_compose,
                             rel_union, transitive_closure)
from flpdl.semantics import load_model


def test_from_rows_rejects_ragged(C3):
    with pytest.raises(DimensionMismatch):
        XRelation.from_rows(C3, [[0, 1], [0, 1, 2]])


def test_from_rows_rejects_out_of_range(C3):
    with pytest.raises(DimensionMismatch):
        XRelation.from_rows(C3, [[0, 3], [0, 0]])


@pytest.mark.parametrize("rows, message", [
    ([[0, True], [0, 0]], "relation entry True is no element index in 0..2"),
    ([[0, 1.0], [0, 0]], "relation entry 1.0 is no element index in 0..2"),
    ([[0, "1"], [0, 0]], "relation entry '1' is no element index in 0..2"),
    ([[0, -1], [0, 0]], "relation entry -1 is no element index in 0..2"),
    # past int64: named like any other entry, not an OverflowError from numpy
    ([[10 ** 30, 0], [0, 0]],
     "relation entry 1000000000000000000000000000000 is no element index in 0..2"),
    # two bad entries: the first in row-major order is named
    ([[0, 0, 0], [0, 0, 7], [-2, 0, 0]], "relation entry 7 is no element index in 0..2"),
    ([[0, 1], [0]], "relation matrix must be square"),
    ([[], []], "relation matrix must be square"),
], ids=["bool", "float", "str", "negative", "huge-int", "first-of-two", "ragged", "empty-rows"])
def test_from_rows_names_the_bad_entry(C3, rows, message):
    with pytest.raises(DimensionMismatch) as info:
        XRelation.from_rows(C3, rows)
    assert str(info.value) == message


def test_from_rows_takes_numpy_integers(C3):
    rel = XRelation.from_rows(C3, [[np.int64(2), 0], [1, np.uint8(0)]])
    assert rel.values == ((2, 0), (1, 0))


def test_from_rows_takes_numpy_integers_and_no_rows(C3):
    r = XRelation.from_rows(C3, [[np.int64(1), 0], [0, np.int64(2)]])
    assert r.values == ((1, 0), (0, 2))
    assert all(type(v) is int for row in r.values for v in row)
    assert XRelation.from_rows(C3, []).values == ()


@pytest.mark.parametrize("matrix, match", [
    ([[0, -1], [1, 0]], "entries"),      # read as element 2 by negative indexing
    ([[0, 4], [0, 0]], "entries"),       # in a flat gather, 0 * 3 + 4 reads entry (1, 1)
    ([[0, 1, 2], [2, 1, 0]], "square"),  # the extra column was ignored
    ([0, 1], "square"),
], ids=["negative", "past-the-table", "2x3", "1-D"])
def test_constructor_rejects_what_from_rows_rejects(C3, matrix, match):
    with pytest.raises(DimensionMismatch, match=match):
        XRelation(C3, matrix)
    with pytest.raises(DimensionMismatch):
        XRelation.from_rows(C3, matrix)


def test_constructor_without_an_algebra_checks_only_the_shape():
    assert XRelation(None, [[0, 7], [-1, 0]]).values == ((0, 7), (-1, 0))
    with pytest.raises(DimensionMismatch, match="square"):
        XRelation(None, [[0, 1, 2], [2, 1, 0]])


def _over_c3(r):
    return XRelation(cost_chain(3), np.zeros((r.size, r.size), np.int64))


@pytest.mark.parametrize("operation", [
    transitive_closure, refl_trans_closure,
    lambda r: rel_compose(r, r), lambda r: rel_union(r, r),
    lambda r: rel_compose(_over_c3(r), r), lambda r: rel_union(r, _over_c3(r)),
], ids=["transitive_closure", "refl_trans_closure", "rel_compose", "rel_union",
        "rel_compose-right", "rel_union-left"])
def test_operations_without_an_algebra_name_it(operation):
    with pytest.raises(DimensionMismatch, match="relation has no algebra"):
        operation(XRelation(None, [[0, 1], [1, 0]]))


def test_compose_pins(C3):
    r = XRelation.from_rows(C3, [[0, 1, 2], [2, 2, 1], [1, 2, 0]])
    q = XRelation.from_rows(C3, [[2, 0, 2], [1, 1, 2], [2, 2, 1]])
    assert rel_compose(r, q).values == ((2, 0, 2), (2, 2, 2), (2, 1, 1))
    assert rel_compose(q, r).values == ((2, 2, 1), (1, 2, 2), (2, 2, 1))
    assert rel_union(r, q).values == ((0, 0, 2), (1, 1, 1), (1, 2, 0))


def test_compose_cost_reading(C3):
    # over the cost chain, composition is min-plus matrix product
    r = XRelation.from_rows(C3, [[2, 1, 2], [0, 2, 1], [2, 2, 0]])
    q = XRelation.from_rows(C3, [[1, 2, 0], [2, 0, 2], [1, 1, 2]])
    out = rel_compose(r, q)
    for s in range(3):
        for t in range(3):
            expect = min(min(r.values[s][x] + q.values[x][t], 2)
                         for x in range(3))
            assert out.values[s][t] == expect


def test_the_relation_on_no_states_composes_and_closes(C3):
    empty = XRelation(C3, [])
    for got in (rel_compose(empty, empty), transitive_closure(empty),
                refl_trans_closure(empty), rel_union(empty, empty)):
        assert got.size == 0 and got.values == ()


def test_identity_is_neutral(C3, rng):
    ident = identity_relation(C3, 4)
    for _ in range(20):
        r = random_relation(C3, 4, rng)
        assert rel_compose(ident, r).values == r.values
        assert rel_compose(r, ident).values == r.values


def test_bottom_annihilates(C3, rng):
    bot = bottom_relation(C3, 3)
    r = random_relation(C3, 3, rng)
    assert rel_compose(bot, r).values == bot.values
    assert rel_compose(r, bot).values == bot.values


def test_union_is_join_semilattice(C3, rng):
    for _ in range(20):
        r = random_relation(C3, 3, rng)
        q = random_relation(C3, 3, rng)
        assert rel_union(r, q).values == rel_union(q, r).values
        assert rel_union(r, r).values == r.values


def test_transitive_closure_pin(C3):
    s = XRelation.from_rows(C3, [[2, 0, 2], [2, 2, 0], [2, 2, 2]])
    assert transitive_closure(s).values == ((2, 0, 0), (2, 2, 0), (2, 2, 2))
    assert refl_trans_closure(s).values == ((0, 0, 0), (2, 0, 0), (2, 2, 0))


def test_transitive_closure_bool_pin(B):
    r = XRelation.from_rows(B, [[0, 1], [0, 0]])
    assert transitive_closure(r).values == ((0, 1), (0, 0))
    assert refl_trans_closure(r).values == ((1, 1), (0, 1))


def test_closure_is_transitive_and_extends(C3, rng):
    fuse, leq = C3.fuse, C3.leq
    for _ in range(50):
        r = random_relation(C3, 3, rng)
        p = transitive_closure(r)
        for s in range(3):
            for t in range(3):
                assert leq(r.values[s][t], p.values[s][t])
                for x in range(3):
                    assert leq(fuse(p.values[s][x], p.values[x][t]),
                               p.values[s][t])


def test_closure_is_idempotent(C3, rng):
    for _ in range(30):
        r = random_relation(C3, 3, rng)
        p = transitive_closure(r)
        assert transitive_closure(p).values == p.values


def test_closure_is_monotone(C3, rng):
    for _ in range(30):
        r = random_relation(C3, 3, rng)
        q = random_relation(C3, 3, rng)
        upper = rel_union(r, q)
        pr, pu = transitive_closure(r), transitive_closure(upper)
        for s in range(3):
            for t in range(3):
                assert C3.leq(pr.values[s][t], pu.values[s][t])


def test_closure_matches_capped_walk_oracle(C3, rng):
    # independent min-plus check: closure entry = best walk cost, capped
    for _ in range(25):
        r = random_relation(C3, 3, rng)
        p = transitive_closure(r)
        oracle = cost_walk_join_fast(r, cap=2)
        assert p.values == tuple(map(tuple, oracle.tolist()))


def test_closure_of_a_long_path_matches_walk_oracle():
    n = 80
    C = cost_chain(n + 2)
    rows = [[1 if t == s + 1 else C.bottom for t in range(n)] for s in range(n)]
    r = XRelation.from_rows(C, rows)
    oracle = cost_walk_join_fast(r, cap=C.bottom)
    assert transitive_closure(r).values == tuple(map(tuple, oracle.tolist()))


def test_star_forces_one_on_diagonal(C3, rng):
    for _ in range(20):
        r = random_relation(C3, 3, rng)
        star = refl_trans_closure(r)
        plus = transitive_closure(r)
        for s in range(3):
            assert star.values[s][s] == C3.one
            for t in range(3):
                if s != t:
                    assert star.values[s][t] == plus.values[s][t]


def test_non_integral_star_exceeds_identity_union():
    """Boundary pin: with one strictly below top, forcing the diagonal to
    one can land strictly below the diagonal of id-union-plus."""
    alg = find_non_integral(max_size=3)
    r = XRelation.from_rows(alg, [[2]])
    star = refl_trans_closure(r)
    assert star.values == ((1,),)
    plus = transitive_closure(r)
    joined = rel_union(identity_relation(alg, 1), plus)
    assert joined.values == ((2,),)
    assert star.values != joined.values


def test_path_value_pins(C3):
    s = XRelation.from_rows(C3, [[2, 1, 2], [2, 2, 1], [1, 2, 2]])
    assert path_value(s, 0, (), 2) == 2
    assert path_value(s, 0, (1,), 2) == 2
    assert path_value(s, 0, (1, 2), 0) == 2


def test_closure_dominates_every_short_walk(C3, rng):
    import itertools
    for _ in range(10):
        r = random_relation(C3, 3, rng)
        p = transitive_closure(r)
        for s in range(3):
            for t in range(3):
                best = r.values[s][t]
                for length in (1, 2, 3):
                    for mid in itertools.product(range(3), repeat=length):
                        best = C3.join(best, path_value(r, s, mid, t))
                assert best == p.values[s][t]


def test_dimension_mismatch_across_sizes(C3):
    r = XRelation.from_rows(C3, [[0]])
    q = XRelation.from_rows(C3, [[0, 0], [0, 0]])
    with pytest.raises(DimensionMismatch):
        rel_compose(r, q)


def test_dimension_mismatch_across_algebras(B, C3):
    r = XRelation.from_rows(B, [[0, 1], [1, 0]])
    q = XRelation.from_rows(C3, [[0, 1], [1, 0]])
    with pytest.raises(DimensionMismatch):
        rel_union(r, q)


# -- storage: one read-only int64 matrix per relation -------------------------

def test_matrix_is_read_only(C3):
    r = XRelation.from_rows(C3, [[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        r.matrix[0, 0] = 2
    assert r.values == ((0, 1), (2, 0))


def test_matrix_is_a_copy_of_the_source(C3):
    source = np.array([[0, 1], [2, 0]])
    r = XRelation(C3, source)
    source[0, 0] = 2
    assert r.matrix.tolist() == [[0, 1], [2, 0]]
    assert r.values == ((0, 1), (2, 0))


def test_a_read_only_source_is_held_unless_its_memory_is_writeable(C3):
    source = np.array([[0, 1], [2, 0]])
    view = source.view()
    view.flags.writeable = False
    assert not np.shares_memory(XRelation(C3, view).matrix, source)
    source.flags.writeable = False
    assert XRelation(C3, source).matrix is source
    assert XRelation(C3, source[:, :]).matrix.base is source


def test_star_of_a_transitive_relation_leaves_it_alone(C3):
    # the diagonal of r* is written into a new matrix, never into r's
    r = bottom_relation(C3, 3)
    assert transitive_closure(r).values == r.values
    star = refl_trans_closure(r)
    assert r.values == ((2, 2, 2),) * 3
    assert star.values == ((0, 2, 2), (2, 0, 2), (2, 2, 0))


def test_tuple_rows_without_an_algebra_feed_the_walk_oracle():
    rel = XRelation(None, ((2, 1), (0, 2)))
    assert cost_walk_join_fast(rel, 2).tolist() == [[1, 1], [0, 1]]


def test_values_are_python_ints(C3, rng):
    r = random_relation(C3, 3, rng)
    assert all(type(v) is int for row in r.values for v in row)
    assert all(type(v) is int for row in transitive_closure(r).values for v in row)
    assert json.dumps(r.values)


def test_empty_relation_in_a_model_names_its_size(C3):
    doc = {"algebra": "builtin:cost:3", "states": 2, "relations": {"a0": []}}
    with pytest.raises(DimensionMismatch, match="relation for a0 has 0 states, frame has 2"):
        load_model(doc)
