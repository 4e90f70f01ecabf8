"""Formula and action ASTs, the concrete syntax, and formula closures."""

import hashlib
import json
import random
import sys

import pytest

from flpdl.errors import FormulaSyntaxError, UnknownConstant
from flpdl.generators import random_action, random_formula
from flpdl.parser import MAX_NESTING, parse_action, parse_formula
from flpdl.syntax import (And, Atom, Box, Choice, Const, Fuse, Or, Plus, RDiv,
                          Seq, Var, action_atoms, closure_of, diamond,
                          format_action, format_formula, is_closed, neg,
                          star_box, subformulas, variables)


def test_ast_nodes_are_hashable(C3):
    f = Box(Plus(Atom(0)), Var(0))
    assert f == Box(Plus(Atom(0)), Var(0))
    assert len({f, Box(Plus(Atom(0)), Var(0))}) == 1


def test_parse_precedence_or_loosest(C3):
    f = parse_formula("p0 & p1 | p2", C3)
    assert isinstance(f, Or)
    assert isinstance(f.left, And)


def test_parse_precedence_fusion_tightest_binary(C3):
    f = parse_formula("p0 * p1 -> p2", C3)
    assert isinstance(f, RDiv)
    assert isinstance(f.left, Fuse)


def test_parse_implication_right_associative(C3):
    f = parse_formula("p0 -> p1 -> p2", C3)
    assert isinstance(f, RDiv)
    assert isinstance(f.right, RDiv)
    assert f.left == Var(0)


def test_parse_action_precedence(C3):
    a = parse_action("a0 ; a1 u a2")
    assert isinstance(a, Choice)
    assert isinstance(a.left, Seq)
    b = parse_action("a0 u a1 ; a2+")
    assert isinstance(b, Choice)
    assert isinstance(b.right, Seq)
    assert isinstance(b.right.right, Plus)


def test_bare_names_default_to_index_zero(C3):
    assert parse_formula("p", C3) == Var(0)
    assert parse_formula("[a]p", C3) == parse_formula("[a0]p0", C3)


def test_negation_desugars_to_bottom_implication(C3):
    f = parse_formula("!p0", C3)
    assert f == RDiv(Var(0), Const(C3.bottom))
    assert f == neg(Var(0), C3)


def test_diamond_desugars_to_double_negation(C3):
    f = parse_formula("<a0>p0", C3)
    assert f == diamond(Atom(0), Var(0), C3)
    bot = Const(C3.bottom)
    assert f == RDiv(Box(Atom(0), RDiv(Var(0), bot)), bot)


def test_surface_star_becomes_plus_and_meet(C3):
    f = parse_formula("[a0*]p0", C3)
    assert f == star_box(Atom(0), Var(0))
    assert f == And(Box(Plus(Atom(0)), Var(0)), Var(0))


def test_star_rejected_below_the_surface(C3):
    for text in ["[a0* ; a1]p0", "[(a0*)+]p0", "[a0**]p0"]:
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text, C3)


def test_constants_resolve_against_the_algebra(C3):
    assert parse_formula("#bot", C3) == Const(2)
    assert parse_formula("#top", C3) == Const(0)
    assert parse_formula("#one", C3) == Const(0)
    assert parse_formula("#zero", C3) == Const(0)
    assert parse_formula("#1", C3) == Const(1)


def test_constant_out_of_range(C3):
    with pytest.raises(UnknownConstant):
        parse_formula("#3", C3)
    with pytest.raises(UnknownConstant):
        parse_formula("#mystery", C3)


def test_syntax_errors_carry_positions(C3):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("p0 -> (", C3)
    assert exc.value.position == 7
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("p0 @ p1", C3)
    assert exc.value.position == 3
    with pytest.raises(FormulaSyntaxError):
        parse_formula("", C3)
    with pytest.raises(FormulaSyntaxError, match="nesting deeper than") as exc:
        parse_formula("[a0" + "+" * 65 + "]p0", C3)
    assert exc.value.position == 67
    with pytest.raises(FormulaSyntaxError, match="Kleene star is only allowed as the "
                                                 "outermost action operator") as exc:
        parse_action("a0* ; a1")
    assert exc.value.position == 2


def test_format_parse_round_trip_pins(C3):
    for text in ["p0 & p1 | p2", "p0 -> p1 -> p2", "p0 * (p1 | p2)",
                 "[a0 u a1 ; a2+](p0 \\ p1)", "#1 * #0 -> p3",
                 "[a0][a1]p0", "(p0 -> p1) -> p2"]:
        f = parse_formula(text, C3)
        assert parse_formula(format_formula(f), C3) == f


def test_format_parse_round_trip_random(C3, rng):
    for _ in range(300):
        f = random_formula(rng, C3, depth=4)
        assert parse_formula(format_formula(f), C3) == f


def test_action_round_trip_random(rng):
    for _ in range(300):
        a = random_action(rng, depth=4)
        assert parse_action(format_action(a)) == a


def test_closure_of_iterated_box(C3):
    f = parse_formula("[a0+]p0", C3)
    cl = closure_of([f])
    assert len(cl) == 4
    texts = {format_formula(g) for g in cl}
    assert texts == {"[a0+]p0", "[a0]p0", "p0", "[a0][a0+]p0"}
    assert is_closed(cl)


def test_closure_of_compound_action(C3):
    f = parse_formula("[a0 u a1 ; a0+](p0 * p1)", C3)
    cl = closure_of([f])
    assert len(cl) == 9
    assert is_closed(cl)


def test_closure_atomic_cases(C3):
    assert closure_of([Var(3)]) == [Var(3)]
    assert closure_of([Const(1)]) == [Const(1)]


def test_closure_is_idempotent(C3, rng):
    for _ in range(50):
        f = random_formula(rng, C3, depth=3)
        cl = closure_of([f])
        assert is_closed(cl)
        assert set(closure_of(list(cl))) == set(cl)


def test_closure_contains_binary_arguments(C3):
    f = parse_formula("p0 * p1 -> p2", C3)
    cl = set(closure_of([f]))
    assert {f, Fuse(Var(0), Var(1)), Var(0), Var(1), Var(2)} <= cl


def test_not_closed_detection(C3):
    f = parse_formula("[a0]p0", C3)
    assert not is_closed([f])
    assert is_closed([f, Var(0)])


def test_subformulas_pin(C3):
    f = parse_formula("p0 & [a0](p0 | #1)", C3)
    subs = set(subformulas(f))
    assert Var(0) in subs and Const(1) in subs
    assert len(subs) == 5


def _depth(node):
    kids = [c for c in vars(node).values() if not isinstance(c, int)]
    return 1 + max(map(_depth, kids)) if kids else 0


def nested(k):
    """One formula per way of nesting, each k levels deep as the parser counts."""
    return {
        "negation": "!" * k + "p0",
        "parentheses": "(" * k + "p0" + ")" * k,
        "and-chain": " & ".join(["p0"] * (k + 1)),
        "implication-chain": "p0 -> " * k + "p0",
        "plus-chain": "[a0" + "+" * (k - 1) + "]p0",
        "action-parentheses": "[" + "(" * k + "a0" + ")" * k + "]p0",
        "diamonds": "<a0>" * (k // 3) + "!" * (k % 3) + "p0",
        "starred-box": "[a0*]" + "!" * (k - 2) + "p0",
        "starred-diamond": "<a0*>" + "!" * (k - 4) + "p0",
    }


@pytest.mark.parametrize("kind", nested(MAX_NESTING))
def test_every_recursive_walk_succeeds_at_the_nesting_cap(C3, kind):
    from flpdl.oracles import reference_values
    from flpdl.proofs import match_axiom
    from flpdl.semantics import Frame, Model

    f = parse_formula(nested(MAX_NESTING)[kind], C3)
    # brackets nest the parse, not the tree
    assert _depth(f) == {"parentheses": 0, "action-parentheses": 1}.get(kind, MAX_NESTING)
    assert parse_formula(format_formula(f), C3) == f
    assert hash(f) == hash(parse_formula(format_formula(f), C3))
    assert subformulas(f)[0] == f
    match_axiom(f, C3)
    model = Model(Frame(C3, 2), {0: (0, 2)})
    assert model.values(f) == reference_values(model, f)


@pytest.mark.parametrize("kind", nested(MAX_NESTING))
def test_nesting_past_the_cap_is_a_syntax_error(C3, kind):
    with pytest.raises(FormulaSyntaxError, match=f"deeper than {MAX_NESTING}"):
        parse_formula(nested(MAX_NESTING + 1)[kind], C3)


def test_nesting_error_points_at_the_crossing_token(C3):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("!" * 3000 + "p0", C3)
    assert exc.value.position == MAX_NESTING
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula(" & ".join(["p0"] * (MAX_NESTING + 2)), C3)
    assert exc.value.position == len(" & ".join(["p0"] * (MAX_NESTING + 1))) + 1


# where each nesting kind one level past the cap crosses it
PAST_THE_CAP = {"negation": 64, "parentheses": 64, "and-chain": 323, "implication-chain": 387,
                "plus-chain": 0, "action-parentheses": 65, "diamonds": 0, "starred-box": 0,
                "starred-diamond": 0}


def _frames():
    frame, n = sys._getframe(), 0
    while frame is not None:
        frame, n = frame.f_back, n + 1
    return n


@pytest.mark.parametrize("kind", nested(MAX_NESTING))
def test_the_parser_does_not_recurse(C3, kind):
    """With only 30 frames to spare above the caller, every kind of nesting
    parses at the cap and is refused one level past it, at the same token."""
    limit, past = sys.getrecursionlimit(), None
    sys.setrecursionlimit(_frames() + 30)
    try:
        at_cap = parse_formula(nested(MAX_NESTING)[kind], C3)
        try:
            parse_formula(nested(MAX_NESTING + 1)[kind], C3)
        except FormulaSyntaxError as exc:
            past = exc
    finally:
        sys.setrecursionlimit(limit)
    assert at_cap is parse_formula(nested(MAX_NESTING)[kind], C3)
    assert past is not None and str(past).startswith(f"nesting deeper than {MAX_NESTING} levels")
    assert past.position == PAST_THE_CAP[kind]


def _digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_structural_walks_on_random_formulas_pinned(C3):
    """subformulas (in first-visit order), action_atoms, variables and the
    printed form of 300 seeded random formulas and actions, pinned from the
    recursive walks and the per-operator printer the shared walk replaced."""
    rng = random.Random(20261018)
    formulas = [random_formula(rng, C3, depth=rng.randint(0, 6), variables=(0, 1, 2),
                               atoms=(0, 1, 2)) for _ in range(300)]
    actions = [random_action(rng, depth=rng.randint(0, 5), atoms=(0, 1, 2, 3))
               for _ in range(300)]
    subs = [[format_formula(g) for g in subformulas(f)] for f in formulas]
    assert sum(map(len, subs)) == 1800
    got = {"subformulas": subs,
           "action_atoms": [action_atoms(f) for f in formulas],
           "action_atoms of actions": [action_atoms(a) for a in actions],
           "variables": [variables(f) for f in formulas],
           "format_formula": [format_formula(f) for f in formulas]}
    assert {name: _digest(rows) for name, rows in got.items()} == {
        "subformulas": "c589ebec88cdde45cfcaa8ef6f2c39ad54af044c2f8ddd7e5e36ce5e3c40db18",
        "action_atoms": "c1c77bf24019be740555f60ceba1979bfd82129e560767b710d859bc1001a3d1",
        "action_atoms of actions": "d1bde0aa3a34ca6bf2d94159e507d4f7f973029a646ff43c8d55840ad74c058c",
        "variables": "c489b3aeedef72decbabafbf13b4add4a91f38e3fc329902b3850f6b9cb331aa",
        "format_formula": "30680f2682935fb2095176ad3dec752b726061e4447ddeb15269380708089109",
    }
