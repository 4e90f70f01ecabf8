"""Quotients of models through formula closures."""

import functools
import random

import pytest

from flpdl.algebra import bool2, cost_chain, product
from flpdl.algebra_search import find_non_commutative, find_non_integral
from flpdl.errors import NotClosed
from flpdl.filtration import Partition, filtrate, phi_partition
from flpdl.generators import random_formula, random_model
from flpdl.parser import parse_formula
from flpdl.relations import XRelation
from flpdl.semantics import Frame, Model
from flpdl.syntax import closure_of, is_closed, Var


def _m4(C3):
    # states 2 and 3 agree on every closure formula of [a0+]p0
    fr = Frame(C3, 4, relations={0: XRelation.from_rows(C3, [
        [0, 1, 2, 2], [2, 0, 1, 1], [2, 2, 0, 0], [2, 2, 0, 0]])})
    return Model(fr, valuation={0: (0, 1, 2, 2)})


@pytest.fixture()
def m4(C3):
    return _m4(C3)


SEARCHED = {
    "bool2": bool2,
    "cost:3": lambda: cost_chain(3),
    "product(bool2,cost:3)": lambda: product(bool2(), cost_chain(3)),
    "non-commutative": find_non_commutative,
    "non-integral": find_non_integral,
}


@functools.cache
def quotient_inputs(name):
    """(model, closed formula set) pairs: the m4 pin, or 24 seeded random
    models over one of the searched algebras, each with two atoms and the
    closure of a random formula in one variable, so that states merge."""
    if name == "m4":
        C3 = cost_chain(3)
        return ((_m4(C3), closure_of([parse_formula("[a0+]p0", C3)])),)
    alg = SEARCHED[name]()
    rng = random.Random(f"filtrate/{name}")
    out = []
    for _ in range(24):
        m = random_model(alg, rng.randint(2, 7), rng, atoms=(0, 1))
        out.append((m, closure_of([random_formula(rng, alg, 2, variables=(0,))])))
    return tuple(out)


def classwise_join(algebra, rel, part):
    """The quotient of one relation, entry by entry: the join over each pair of classes."""
    members = part.members()
    rows = []
    for cs in range(part.class_count):
        row = []
        for ct in range(part.class_count):
            acc = algebra.bottom
            for s in members[cs]:
                for t in members[ct]:
                    acc = algebra.join(acc, rel.values[s][t])
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def test_searched_inputs_merge_states():
    # the quotients below join across classes of more than one state
    for name in SEARCHED:
        merged = sum(phi_partition(m, phis).class_count < m.frame.size
                     for m, phis in quotient_inputs(name))
        assert merged >= 6, name


def test_partition_pin(m4, C3):
    phis = closure_of([parse_formula("[a0+]p0", C3)])
    part = phi_partition(m4, phis)
    assert part.class_of == (0, 1, 2, 2)
    assert part.representatives == (0, 1, 2)
    assert part.class_count == 3


def test_partition_over_no_formulas_is_one_class(m4):
    part = phi_partition(m4, [])
    assert part.class_of == (0,) * m4.frame.size
    assert part.representatives == (0,)


def test_partition_members(m4, C3):
    phis = closure_of([parse_formula("[a0+]p0", C3)])
    part = phi_partition(m4, phis)
    assert part.members() == ((0,), (1,), (2, 3))


def test_filtrate_pin(m4, C3):
    phis = closure_of([parse_formula("[a0+]p0", C3)])
    small = filtrate(m4, phis)
    assert small.frame.size == 3
    assert small.frame.state_names == ("[0]", "[1]", "[2]")
    assert small.frame.atomic[0].values == ((0, 1, 2), (2, 0, 1), (2, 2, 0))
    assert small.var_row(0) == (0, 1, 2)


@pytest.mark.parametrize("inputs", ["m4", *SEARCHED])
def test_filtrate_relation_is_classwise_join(inputs):
    for model, phis in quotient_inputs(inputs):
        part = phi_partition(model, phis)
        small = filtrate(model, phis, part)
        for idx, big in model.frame.atomic.items():
            assert small.frame.atomic[idx].values == classwise_join(model.algebra, big, part)


@pytest.mark.parametrize("inputs", ["m4", *SEARCHED])
def test_closure_values_survive_the_quotient(inputs):
    for model, phis in quotient_inputs(inputs):
        part = phi_partition(model, phis)
        small = filtrate(model, phis, part)
        for f in phis:
            big_row = model.values(f)
            small_row = small.values(f)
            for s in range(model.frame.size):
                assert big_row[s] == small_row[part.class_of[s]]


def test_preservation_on_random_models(builtins, rng):
    checked = 0
    for alg in builtins.values():
        for _ in range(25):
            m = random_model(alg, rng.randint(2, 5), rng)
            seed = random_formula(rng, alg, depth=3)
            phis = closure_of([seed])
            part = phi_partition(m, phis)
            small = filtrate(m, phis, part)
            assert part.class_count <= alg.size ** len(phis)
            for f in phis:
                big_row = m.values(f)
                small_row = small.values(f)
                for s in range(m.frame.size):
                    assert big_row[s] == small_row[part.class_of[s]]
                    checked += 1
    assert checked > 1000


def test_variables_outside_the_closure_default(m4, C3):
    phis = closure_of([parse_formula("[a0+]p0", C3)])
    small = filtrate(m4, phis)
    assert small.var_row(7) == (C3.zero,) * 3


def test_requires_closed_list(m4, C3):
    # partitioning groups by values over any list; only the quotient
    # construction depends on closedness
    f = parse_formula("[a0]p0", C3)
    with pytest.raises(NotClosed):
        filtrate(m4, [f])
    assert phi_partition(m4, [f]).class_count >= 1


@pytest.mark.parametrize("text, dropped", [
    ("[a0]p0", "p0"),
    ("[a0 u a1]p0", "[a0]p0"),
    ("[a0 u a1]p0", "[a1]p0"),
    ("[a0;a1]p0", "[a0][a1]p0"),
    ("[a0+]p0", "[a0][a0+]p0"),
    ("[a0+]p0", "[a0]p0"),
])
def test_closure_missing_one_required_member_is_refused(m4, C3, text, dropped):
    phis = closure_of([parse_formula(text, C3)])
    short = [f for f in phis if f is not parse_formula(dropped, C3)]
    assert len(short) == len(phis) - 1
    assert not is_closed(short)
    with pytest.raises(NotClosed):
        filtrate(m4, short)


def test_all_states_distinct_is_isomorphic(C3):
    fr = Frame(C3, 3, relations={0: XRelation.from_rows(C3, [
        [0, 1, 2], [2, 0, 1], [1, 2, 0]])})
    m = Model(fr, valuation={0: (0, 1, 2)})
    phis = closure_of([parse_formula("p0", C3)])
    small = filtrate(m, phis)
    assert small.frame.size == 3
    assert small.var_row(0) == m.var_row(0)


def test_filtration_is_stable(m4, C3):
    # filtrating a filtrated model splits nothing further
    phis = closure_of([parse_formula("[a0+]p0", C3)])
    small = filtrate(m4, phis)
    again = filtrate(small, phis)
    assert again.frame.size == small.frame.size
    assert again.frame.atomic[0].values == small.frame.atomic[0].values


def test_partition_respects_explicit_argument(m4, C3):
    # identity partition keeps the model size even with duplicate states
    phis = closure_of([parse_formula("[a0+]p0", C3)])
    ident = Partition(class_of=(0, 1, 2, 3), representatives=(0, 1, 2, 3))
    small = filtrate(m4, phis, ident)
    assert small.frame.size == 4


def test_class_bound_pin(m4, C3):
    phis = closure_of([parse_formula("[a0+]p0", C3)])
    part = phi_partition(m4, phis)
    assert part.class_count <= 3 ** 4
