"""Axiom matching, finite-algebra consequence, and proof scripts."""

import json
from importlib import resources

import pytest

from flpdl.algebra_search import find_non_commutative, find_non_integral
from flpdl.errors import AtomBudgetExceeded
from flpdl.parser import parse_formula
from flpdl.proofs import (AXIOM_NAMES, ByAxiom, ByLog, ByRMon, ByRPlus,
                          ProofLine, ProofScript, canonical_axiom_name,
                          check_proof, load_proof, log_consequence,
                          match_axiom, matches_axiom, proof_to_json)


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
