"""Axiom matching, finite-algebra consequence, and proof scripts."""

import dataclasses
import hashlib
import json
import random
from collections import Counter
from importlib import resources

import pytest

from flpdl.algebra_search import find_non_commutative, find_non_integral
from flpdl.errors import AtomBudgetExceeded
from flpdl.generators import random_action, random_formula
from flpdl.parser import parse_formula
from flpdl.proofs import (AXIOM_NAMES, ByAxiom, ByLog, ByRMon, ByRPlus,
                          ProofLine, ProofScript, canonical_axiom_name,
                          check_proof, load_proof, log_consequence,
                          match_axiom, matches_axiom, proof_to_json)
from flpdl.syntax import (And, Atom, Box, Choice, Const, Fuse, LDiv, Or, Plus,
                          RDiv, Seq, Var, format_formula)


def _corpus(kind):
    root = resources.files("flpdl") / "data" / kind
    return sorted(root.iterdir(), key=lambda p: p.name)


def test_axiom_instance_pins(C3):
    pins = [
        ("[a0]#one", "A-1"),
        ("[a0](p0 & p1) <-> ([a0]p0 & [a0]p1)", "A-reg"),
        ("[a0](#1 -> p0) <-> (#1 -> [a0]p0)", "A-const"),
        ("[a0 u a1]p0 <-> ([a0]p0 & [a1]p0)", "A-choice"),
        ("[a0 ; a1]p0 <-> [a0][a1]p0", "A-seq"),
        ("[a0+]p0 <-> [a0](p0 & [a0+]p0)", "A-plus"),
    ]
    for text, name in pins:
        f = parse_formula(text, C3)
        assert match_axiom(f, C3) == name
        assert matches_axiom(f, name, C3)


def test_axiom_schemes_accept_compound_instances(C3):
    f = parse_formula("[(a0 ; a1) u a2+](p0 * p1) <-> "
                      "([a0 ; a1](p0 * p1) & [a2+](p0 * p1))", C3)
    assert matches_axiom(f, "A-choice", C3)


def test_iff_orientation_does_not_matter(C3):
    f = parse_formula("([a0]p0 & [a1]p0) <-> [a0 u a1]p0", C3)
    assert matches_axiom(f, "A-choice", C3)


def test_wrong_shapes_rejected(C3):
    assert match_axiom(parse_formula("[a0 ; a1]p0 <-> [a1][a0]p0", C3), C3) is None
    assert match_axiom(parse_formula("[a0]p0 -> [a0]p0", C3), C3) is None
    assert not matches_axiom(parse_formula("[a0]#1", C3), "A-1", C3)


def test_a1_uses_the_designated_element(C3, B):
    assert matches_axiom(parse_formula("[a0]#one", C3), "A-1", C3)
    assert matches_axiom(parse_formula("[a0]#0", C3), "A-1", C3)
    assert matches_axiom(parse_formula("[a0]#1", B), "A-1", B)


def test_canonical_axiom_names():
    assert canonical_axiom_name("A-∪") == "A-choice"
    assert canonical_axiom_name("A-;") == "A-seq"
    assert canonical_axiom_name("A-+") == "A-plus"
    assert canonical_axiom_name("A-c̄") == "A-const"
    assert canonical_axiom_name("A-1") == "A-1"
    assert canonical_axiom_name("A-reg") == "A-reg"
    assert canonical_axiom_name("A-zzz") is None
    assert set(AXIOM_NAMES) == {"A-1", "A-reg", "A-const", "A-choice",
                                "A-seq", "A-plus"}


def test_log_consequence_pins(B, C3):
    em = "p0 | (p0 -> #bot)"
    assert log_consequence([], parse_formula(em, B), B)
    assert not log_consequence([], parse_formula(em, C3), C3)
    assert log_consequence([parse_formula("p0 -> p1", C3),
                            parse_formula("p0", C3)],
                           parse_formula("p1", C3), C3)
    assert not log_consequence([parse_formula("p0 | p1", C3)],
                               parse_formula("p0", C3), C3)


def test_log_consequence_treats_boxes_as_atoms(C3):
    assert log_consequence([parse_formula("[a0]p0", C3)],
                           parse_formula("[a0]p0 | p1", C3), C3)
    assert log_consequence([], parse_formula("[a0](p0 & p1) -> [a0](p0 & p1)", C3), C3)
    # distribution is a box law, not a propositional one
    assert not log_consequence([], parse_formula("[a0](p0 & p1) -> [a0]p0", C3), C3)


def test_log_consequence_budget(C3):
    # 9 box atoms at 3 values each would need 3^9 assignments
    premises = [parse_formula(f"[a{i}]p{i}", C3) for i in range(9)]
    conclusion = parse_formula("[a0]p0", C3)
    with pytest.raises(AtomBudgetExceeded):
        log_consequence(premises, conclusion, C3, atom_budget=100)
    assert log_consequence(premises, conclusion, C3, atom_budget=3 ** 10)
    for budget in (0, -3):
        with pytest.raises(ValueError):
            log_consequence([], conclusion, C3, atom_budget=budget)


def test_log_consequence_refuses_an_action_as_conclusion(B):
    with pytest.raises(TypeError, match="not a formula: Atom"):
        log_consequence([], Atom(0), B)


def test_log_consequence_refuses_an_action_as_premise(B):
    with pytest.raises(TypeError, match="not a formula: Atom"):
        log_consequence([Var(1), Atom(0)], Var(0), B)


def test_check_proof_refuses_a_budget_below_one_up_front(C3):
    # no line here is a log line, so only the up-front check can see the budget
    script = _script(C3, ("[a0]#one", ByAxiom("A-1")), ("[a0]p0", ByAxiom("A-2")))
    for budget in (0, -3):
        with pytest.raises(ValueError, match="atom budget must be positive"):
            check_proof(script, C3, atom_budget=budget)
    assert check_proof(script, C3, atom_budget=1).failed_line == 1


def _script(algebra, *lines):
    return ProofScript(tuple(ProofLine(parse_formula(t, algebra), by)
                             for t, by in lines))


def test_minimal_proof_accepted(C3):
    script = _script(
        C3,
        ("[a0+]p0 <-> [a0](p0 & [a0+]p0)", ByAxiom("A-plus")),
        ("[a0+]p0 -> [a0](p0 & [a0+]p0)", ByLog((0,))),
    )
    verdict = check_proof(script, C3)
    assert verdict.accepted
    assert verdict.warnings == ()


def test_monotonicity_rule(C3):
    script = _script(
        C3,
        ("(p0 & p1) -> p0", ByLog(())),
        ("[a0](p0 & p1) -> [a0]p0", ByRMon(0)),
    )
    assert check_proof(script, C3).accepted


def test_monotonicity_must_cite_an_implication(C3):
    script = _script(
        C3,
        ("p0 <-> p0", ByLog(())),
        ("[a0]p0 -> [a0]p0", ByRMon(0)),
    )
    verdict = check_proof(script, C3)
    assert not verdict.accepted
    assert verdict.failed_line == 1
    assert "implication" in verdict.reason


def test_monotonicity_action_must_match(C3):
    script = _script(
        C3,
        ("(p0 & p1) -> p0", ByLog(())),
        ("[a1](p0 & p1) -> [a0]p0", ByRMon(0)),
    )
    verdict = check_proof(script, C3)
    assert not verdict.accepted and verdict.failed_line == 1


def test_iteration_rule(C3):
    script = _script(
        C3,
        ("[a0]#one", ByAxiom("A-1")),
        ("#one -> [a0]#one", ByLog((0,))),
        ("#one -> [a0+]#one", ByRPlus(1)),
    )
    assert check_proof(script, C3).accepted


def test_iteration_needs_self_implication_shape(C3):
    # the cited line must read f -> [A]f with the same f on both sides
    script = _script(
        C3,
        ("#bot -> [a0]p1", ByLog(())),
        ("#bot -> [a0+]p1", ByRPlus(0)),
    )
    verdict = check_proof(script, C3)
    assert not verdict.accepted and verdict.failed_line == 1


def test_citations_must_point_backwards(C3):
    script = _script(
        C3,
        ("p0 -> p0", ByLog((0,))),
    )
    verdict = check_proof(script, C3)
    assert not verdict.accepted
    assert verdict.failed_line == 0
    assert "CircularCitation" in verdict.reason


def test_unknown_axiom_rejected(C3):
    script = _script(C3, ("[a0]p0", ByAxiom("A-2")))
    verdict = check_proof(script, C3)
    assert not verdict.accepted
    assert "unknown axiom" in verdict.reason


def test_non_instance_rejected(C3):
    script = _script(C3, ("[a0]p0 -> [a0]p0", ByAxiom("A-reg")))
    verdict = check_proof(script, C3)
    assert not verdict.accepted
    assert "not an instance" in verdict.reason


def test_warnings_on_boundary_algebras():
    nc = find_non_commutative(max_size=4)
    script = _script(nc, ("[a0]#one", ByAxiom("A-1")))
    verdict = check_proof(script, nc)
    assert verdict.accepted
    assert any("commutative" in w for w in verdict.warnings)
    assert any("integral" in w for w in verdict.warnings)

    ni = find_non_integral(max_size=3)
    script = _script(ni, ("[a0]#one", ByAxiom("A-1")))
    verdict = check_proof(script, ni)
    assert any("integral" in w for w in verdict.warnings)


def test_good_corpus_accepted_on_declared_algebra():
    from flpdl.algebra import load_algebra
    files = _corpus("proofs")
    assert len(files) >= 10
    for path in files:
        raw = json.loads(path.read_text())
        algebra = load_algebra(raw["algebra"])
        script = load_proof(raw, algebra)
        verdict = check_proof(script, algebra)
        assert verdict.accepted, (path.name, verdict.reason)


def test_bad_corpus_rejected_at_pinned_line():
    from flpdl.algebra import load_algebra
    files = _corpus("proofs_bad")
    assert len(files) >= 10
    for path in files:
        raw = json.loads(path.read_text())
        algebra = load_algebra(raw["algebra"])
        script = load_proof(raw, algebra)
        verdict = check_proof(script, algebra)
        assert not verdict.accepted, path.name
        assert verdict.failed_line == raw["corrupted_line"], (
            path.name, verdict.failed_line, verdict.reason)


def test_load_proof_round_trip(C3):
    path = resources.files("flpdl") / "data" / "proofs" / "box_plus_projection.json"
    raw = json.loads(path.read_text())
    script = load_proof(raw)
    lines = proof_to_json(script)
    again = load_proof({"algebra": raw["algebra"], "lines": lines})
    assert again.lines == script.lines
    from flpdl.algebra import load_algebra
    assert check_proof(again, load_algebra(raw["algebra"])).accepted


def test_load_proof_accepts_plain_list(C3):
    lines = [{"formula": "[a0]#one", "by": {"kind": "axiom", "axiom": "A-1"}}]
    script = load_proof(lines, C3)
    assert check_proof(script, C3).accepted


def test_load_proof_ref_aliases(C3):
    lines = [
        {"formula": "(p0 & p1) -> p0", "by": {"kind": "log", "refs": []}},
        {"formula": "[a0](p0 & p1) -> [a0]p0", "by": {"kind": "rmon", "ref": 0}},
    ]
    script = load_proof(lines, C3)
    assert check_proof(script, C3).accepted


def test_conclusion_is_last_line(C3):
    script = _script(
        C3,
        ("[a0]#one", ByAxiom("A-1")),
        ("#one -> [a0]#one", ByLog((0,))),
    )
    assert script.conclusion == parse_formula("#one -> [a0]#one", C3)


# -- pins on seeded instances and one-node mutants ---------------------------

def _digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _iff(x, y):
    return And(RDiv(x, y), RDiv(y, x))


def _instances(rng, algebra):
    """One seeded instance of each scheme, as {name: (x, y)}; A-1 as (box, None)."""
    a, b = random_action(rng, 2, (0, 1, 2)), random_action(rng, 2, (0, 1, 2))
    f, g = random_formula(rng, algebra, 2), random_formula(rng, algebra, 2)
    c = Const(rng.randrange(algebra.size))
    return {
        "A-1": (Box(a, Const(algebra.one)), None),
        "A-reg": (Box(a, And(f, g)), And(Box(a, f), Box(a, g))),
        "A-const": (Box(a, RDiv(c, f)), RDiv(c, Box(a, f))),
        "A-choice": (Box(Choice(a, b), f), And(Box(a, f), Box(b, f))),
        "A-seq": (Box(Seq(a, b), f), Box(a, Box(b, f))),
        "A-plus": (Box(Plus(a), f), Box(a, And(f, Box(Plus(a), f)))),
    }


def _paths(node, path=()):
    """Every subterm position of a tree, root first, as a path of field names."""
    yield path
    for fld in dataclasses.fields(node):
        kid = getattr(node, fld.name)
        if not isinstance(kid, int):
            yield from _paths(kid, path + (fld.name,))


def _at(node, path):
    for name in path:
        node = getattr(node, name)
    return node


def _put(node, path, new):
    if not path:
        return new
    return dataclasses.replace(node, **{path[0]: _put(getattr(node, path[0]), path[1:], new)})


def _mutant(root, rng, algebra):
    """root with one node changed: an index, an operator, an action or a body."""
    path = rng.choice(list(_paths(root)))
    node = _at(root, path)
    kind = type(node)
    if kind is Const:
        new = Const((node.index + 1) % algebra.size)
    elif kind in (Var, Atom):
        new = kind(node.index + 1)
    elif kind is Plus:
        new = node.body
    elif kind is Box:
        new = (Box(random_action(rng, 1), node.body) if rng.random() < 0.5
               else Box(node.action, random_formula(rng, algebra, 1)))
    elif rng.random() < 0.5:
        new = kind(node.right, node.left)
    else:
        swap = {Choice: Seq, Seq: Choice, And: Or, Or: And, Fuse: LDiv, LDiv: RDiv, RDiv: Fuse}
        new = swap[kind](node.left, node.right)
    return _put(root, path, new)


def test_axiom_matching_on_seeded_instances_pinned(C3, B, P6):
    """match_axiom and every matches_axiom name on seeded instances of the six
    schemes, both orientations, and three one-node mutants of each, pinned from
    the field-by-field matchers that checking by construction replaced."""
    rng = random.Random(20261018)
    rows, unmutated = [], 0
    for _ in range(12):
        for algebra in (C3, B, P6):
            for name, (x, y) in _instances(rng, algebra).items():
                for f in ([x] if y is None else [_iff(x, y), _iff(y, x)]):
                    assert match_axiom(f, algebra) == name
                    unmutated += 1
                    for g in [f] + [_mutant(f, rng, algebra) for _ in range(3)]:
                        rows.append([format_formula(g), match_axiom(g, algebra),
                                     [matches_axiom(g, n, algebra) for n in AXIOM_NAMES]])
    assert unmutated == 396 and len(rows) == 4 * 396
    # 107 mutants still instantiate a scheme, e.g. an iff with its halves swapped
    assert Counter(r[1] for r in rows) == {
        None: 1081, "A-1": 107, "A-reg": 74, "A-const": 82, "A-choice": 80, "A-seq": 81,
        "A-plus": 79}
    assert _digest(rows) == "919e453bc85d4c5b2870ca5c4bd5f5c4ca65f7019a43ecceed4c871edccd0984"


def test_rule_verdicts_on_mutated_conclusions_pinned(C3, B):
    """Verdicts and reasons of monotonicity and iteration lines whose
    conclusions (and, for iteration, cited lines) carry one-node mutations."""
    rng = random.Random(20261019)
    rows = []
    for k in range(40):
        algebra = (C3, B)[k % 2]
        a = random_action(rng, 2)
        f, g = random_formula(rng, algebra, 2), random_formula(rng, algebra, 2)
        cited = (RDiv(f, Or(f, g)), RDiv(And(f, g), f), _iff(f, f))[k % 3]
        good = RDiv(Box(a, cited.left), Box(a, cited.right)) if k % 3 < 2 else \
            RDiv(Box(a, f), Box(a, f))
        for want in [good] + [_mutant(good, rng, algebra) for _ in range(3)]:
            script = ProofScript((ProofLine(cited, ByLog(())), ProofLine(want, ByRMon(0))))
            v = check_proof(script, algebra)
            rows.append(["rmon", v.accepted, v.failed_line, v.reason])
        # [a+]g -> [a+][a+]g, by A-plus, rmon, log and rplus
        plus = Box(Plus(a), g)
        lines = [_iff(plus, Box(a, And(g, plus))), RDiv(And(g, plus), plus),
                 RDiv(Box(a, And(g, plus)), Box(a, plus)), RDiv(plus, Box(a, plus)),
                 RDiv(plus, Box(Plus(a), plus))]
        bys = [ByAxiom("A-plus"), ByLog(()), ByRMon(1), ByLog((0, 2)), ByRPlus(3)]
        variants = [(lines, bys)] + \
            [(lines[:4] + [_mutant(lines[4], rng, algebra)], bys) for _ in range(3)] + \
            [(lines[:3] + [_mutant(lines[3], rng, algebra), lines[4]], bys) for _ in range(2)] + \
            [(lines, bys[:4] + [ByRPlus(r)]) for r in (0, 2)]
        for variant, cites in variants:
            v = check_proof(ProofScript(tuple(map(ProofLine, variant, cites))), algebra)
            rows.append(["rplus", v.accepted, v.failed_line, v.reason])
    assert Counter((r[0], r[3]) for r in rows) == {
        ("rmon", None): 28,
        ("rmon", "monotonicity must cite an implication"): 52,
        ("rmon", "conclusion is not the boxed form of the cited implication"): 80,
        ("rplus", None): 42,
        ("rplus", "not a consequence of the cited lines over this algebra"): 79,
        ("rplus", "iteration must cite a line of shape f -> [A]f"): 80,
        ("rplus", "conclusion is not the iterated form of the cited implication"): 119}
    assert _digest(rows) == "0b3b66f896c994ba1053d7830f647218175319f9813516e5619b7b8a0e58b9c8"
