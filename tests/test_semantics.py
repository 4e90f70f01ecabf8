"""Models, evaluation, validity, and the JSON model format."""

import json

import pytest

from flpdl.algebra import algebra_to_json
from flpdl.errors import DimensionMismatch, UnknownAtom
from flpdl.generators import random_formula, random_model
from flpdl.parser import parse_formula
from flpdl.relations import XRelation, refl_trans_closure
from flpdl.semantics import (Frame, Model, derived_relation, evaluate,
                             load_model, model_to_json, valid_in_model)
from flpdl.syntax import Atom, Box, Choice, Const, Plus, Seq, Var


@pytest.fixture()
def m(C3):
    fr = Frame(C3, 3, relations={
        0: XRelation.from_rows(C3, [[0, 1, 2], [2, 0, 1], [2, 2, 0]]),
        1: XRelation.from_rows(C3, [[2, 0, 2], [2, 2, 0], [0, 2, 2]]),
    })
    return Model(fr, valuation={0: (0, 1, 2), 1: (2, 0, 1)})


PINS = {
    "[a0]p0": (0, 1, 2),
    "<a0>p0": (0, 1, 2),
    "[a1]p1": (0, 1, 2),
    "[a0+]p0": (0, 1, 2),
    "[a0 u a1]p0": (1, 2, 2),
    "[a0 ; a1]p0": (1, 2, 0),
    "p0 * p1": (2, 1, 2),
    "p0 \\ p1": (2, 0, 0),
    "p0 -> p1": (2, 0, 0),
    "p0 & p1": (2, 1, 2),
    "p0 | p1": (0, 0, 1),
    "#1": (1, 1, 1),
    "[a0]#1": (1, 1, 1),
}


def test_value_pins(m, C3):
    for text, expect in PINS.items():
        f = parse_formula(text, C3)
        assert tuple(m.values(f)) == expect, text


def test_box_definition_by_hand(m, C3):
    # box value at s is the meet over t of R(s,t) => body(t)
    f = parse_formula("[a0]p0", C3)
    rel = m.frame.atomic[0]
    for s in range(3):
        acc = C3.top
        for t in range(3):
            acc = C3.meet(acc, C3.imp(rel.values[s][t], m.var_row(0)[t]))
        assert evaluate(m, f, s) == acc


def test_compound_actions_match_derived_relations(m, C3):
    for action in [Choice(Atom(0), Atom(1)), Seq(Atom(0), Atom(1)),
                   Plus(Atom(0)), Seq(Choice(Atom(0), Atom(1)), Atom(0))]:
        rel = derived_relation(m.frame, action)
        f = Box(action, Var(0))
        for s in range(3):
            acc = C3.top
            for t in range(3):
                acc = C3.meet(acc, C3.imp(rel.values[s][t], m.var_row(0)[t]))
            assert evaluate(m, f, s) == acc


def test_surface_star_equals_star_closure_meet(m, C3):
    # over an integral chain, phi & [a+]phi agrees with guarding by R*
    f = parse_formula("[a0*]p0", C3)
    star = refl_trans_closure(m.frame.atomic[0])
    for s in range(3):
        acc = C3.top
        for t in range(3):
            acc = C3.meet(acc, C3.imp(star.values[s][t], m.var_row(0)[t]))
        assert evaluate(m, f, s) == acc


def test_unmapped_variable_defaults_to_zero(m, C3):
    assert tuple(m.values(Var(9))) == (C3.zero,) * 3


def test_lenient_mode_defaults_missing_atom_to_bottom(m, C3):
    f = parse_formula("[a7]p0", C3)
    # bottom-weighted edges make every implication top
    assert tuple(m.values(f)) == (C3.top,) * 3


def test_strict_mode_rejects_missing_atom(C3):
    fr = Frame(C3, 2, relations={0: XRelation.from_rows(C3, [[0, 1], [1, 0]])})
    strict = Model(fr, valuation={0: (0, 1)}, strict=True)
    with pytest.raises(UnknownAtom):
        strict.values(parse_formula("[a1]p0", C3))


def test_strict_mode_survives_prior_lenient_memo(C3):
    # a lenient evaluation must not cache away the strict failure
    fr = Frame(C3, 2, relations={0: XRelation.from_rows(C3, [[0, 1], [1, 0]])})
    lenient = Model(fr, valuation={0: (0, 1)})
    f = parse_formula("[a1]p0", C3)
    lenient.values(f)
    strict = Model(fr, valuation={0: (0, 1)}, strict=True)
    with pytest.raises(UnknownAtom):
        strict.values(f)


def test_values_are_memoized(m, C3):
    f = parse_formula("[a0+](p0 * p1)", C3)
    assert m.values(f) is m.values(f)


def test_evaluate_matches_values(m, C3, rng):
    for _ in range(50):
        f = random_formula(rng, C3, depth=4)
        row = m.values(f)
        for s in range(3):
            assert evaluate(m, f, s) == row[s]


def test_valid_in_model_reports_first_witness(m, C3):
    ok, state, value = valid_in_model(m, parse_formula("p0", C3))
    assert not ok and state == 1 and value == 1
    ok, state, value = valid_in_model(
        m, parse_formula("[a0+]p0 <-> [a0](p0 & [a0+]p0)", C3))
    assert ok and state is None and value is None


def test_validity_needs_one_below_value(B):
    fr = Frame(B, 1, relations={0: XRelation.from_rows(B, [[1]])})
    m = Model(fr, valuation={0: (1,)})
    assert valid_in_model(m, parse_formula("p0", B))[0]
    assert not valid_in_model(m, parse_formula("!p0", B))[0]


def test_frame_rejects_bad_relation_size(C3):
    with pytest.raises(DimensionMismatch):
        Frame(C3, 3, relations={0: XRelation.from_rows(C3, [[0, 1], [1, 0]])})


def test_frame_rejects_relation_over_another_algebra(C3, B):
    with pytest.raises(DimensionMismatch, match="different algebra"):
        Frame(C3, 2, relations={0: XRelation.from_rows(B, [[0, 1], [1, 0]])})


def test_frame_rejects_relation_with_no_algebra(C3):
    with pytest.raises(DimensionMismatch, match="relation for a0 has no algebra"):
        Frame(C3, 2, relations={0: XRelation(None, [[0, 1], [1, 0]])})


def test_constant_past_the_algebra_is_refused(C3):
    with pytest.raises(DimensionMismatch, match="constant #99 is no element index"):
        Model(Frame(C3, 2, {}), {}).values(Const(99))


def test_atom_relation_is_a_new_relation_or_bottom(m, C3):
    rel = m.frame.relation(Atom(0))
    assert rel is not m.frame.atomic[0]
    assert rel.values == m.frame.atomic[0].values
    assert m.frame.relation(Atom(7)).values == ((C3.bottom,) * 3,) * 3


def test_load_model_caps_the_state_count():
    from flpdl.semantics import MAX_STATES
    assert load_model({"algebra": "builtin:bool2", "states": MAX_STATES}).frame.size == MAX_STATES
    with pytest.raises(ValueError, match=f"more than {MAX_STATES}"):
        load_model({"algebra": "builtin:bool2", "states": MAX_STATES + 1})


def test_model_rejects_bad_valuation_row(C3):
    fr = Frame(C3, 2, relations={})
    with pytest.raises(DimensionMismatch):
        Model(fr, valuation={0: (0, 1, 2)})


def test_load_model_round_trip(C3):
    doc = {
        "algebra": "builtin:cost:3",
        "states": 3,
        "relations": {"a0": [[0, 1, 2], [2, 0, 1], [2, 2, 0]]},
        "valuation": {"p0": [0, 1, 2], "p2": [2, 2, 2]},
    }
    m = load_model(doc)
    assert m.frame.size == 3
    assert m.frame.atomic[0].values == ((0, 1, 2), (2, 0, 1), (2, 2, 0))
    assert m.var_row(2) == (2, 2, 2)
    again = model_to_json(m)
    assert again == doc


def test_load_model_with_state_names(C3):
    doc = {
        "algebra": "builtin:cost:3",
        "states": ["idle", "busy"],
        "relations": {"a0": [[0, 1], [2, 0]]},
        "valuation": {"p0": [0, 2]},
    }
    m = load_model(doc)
    assert m.frame.size == 2
    assert m.frame.state_names == ("idle", "busy")
    assert model_to_json(m)["states"] == ["idle", "busy"]


def test_load_model_inline_algebra(C3):
    from flpdl.algebra import algebra_to_json
    doc = {
        "algebra": algebra_to_json(C3),
        "states": 1,
        "relations": {"a0": [[1]]},
        "valuation": {},
    }
    m = load_model(doc)
    assert m.algebra.same_tables(C3)


def test_load_model_explicit_algebra_wins(B, C3):
    doc = {"algebra": "builtin:cost:3", "states": 1,
           "relations": {"a0": [[1]]}, "valuation": {"p0": [1]}}
    m = load_model(doc, algebra=B)
    assert m.algebra.same_tables(B)


def test_load_model_from_file(tmp_path, C3):
    doc = {"algebra": "builtin:cost:3", "states": 2,
           "relations": {"a0": [[0, 1], [1, 0]]}, "valuation": {"p0": [0, 1]}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    m = load_model(str(path))
    assert m.frame.size == 2


def test_load_model_errors(C3):
    with pytest.raises(ValueError):
        load_model({"states": 2})
    with pytest.raises(DimensionMismatch):
        load_model({"algebra": "builtin:cost:3", "states": 2,
                    "relations": {"a0": [[0, 1]]}})
    with pytest.raises(ValueError):
        load_model({"algebra": "builtin:cost:3", "states": 2,
                    "relations": {"walk": [[0, 0], [0, 0]]}})
    with pytest.raises(ValueError):
        load_model("no-such-file.json")


@pytest.mark.parametrize("field, value", [
    ("relations", {"a0": [[0, 1.5], [1, 0]]}),
    ("relations", {"a0": [[0, "1"], [1, 0]]}),
    ("relations", {"a0": [[0, True], [1, 0]]}),
    ("relations", {"a0": 5}),
    ("relations", {"a0": [5, 5]}),
    ("valuation", {"p0": [0, 1.5]}),
    ("valuation", {"p0": [0, "1"]}),
    ("valuation", {"p0": [0, True]}),
    ("valuation", {"p0": 5}),
])
def test_load_model_rejects_non_index_entries(field, value):
    doc = {"algebra": "builtin:cost:3", "states": 2, field: value}
    with pytest.raises(DimensionMismatch):
        load_model(doc)


def test_load_model_rejects_bool_as_number(C3):
    with pytest.raises(ValueError):
        load_model({"algebra": "builtin:cost:3", "states": True})
    inline = algebra_to_json(C3)
    inline["meet"] = [True if v == 1 else v for v in inline["meet"]]
    with pytest.raises(ValueError, match="meet entry True"):
        load_model({"algebra": inline, "states": 1})


def test_random_model_generator_shapes(C3, rng):
    m = random_model(C3, 4, rng, atoms=(0, 1), variables=(0, 1, 2))
    assert m.frame.size == 4
    assert set(m.frame.atomic) == {0, 1}
    ok, _, _ = valid_in_model(m, parse_formula("#one", C3))
    assert ok
