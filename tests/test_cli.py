"""The fl-pdl command surface: exit codes, formats, pinned examples."""

import json
import time

import pytest

from flpdl.cli import main
from flpdl.parser import MAX_NESTING


@pytest.fixture()
def model_file(tmp_path):
    doc = {
        "algebra": "builtin:cost:3",
        "states": 3,
        "relations": {"a0": [[0, 1, 2], [2, 0, 1], [2, 2, 0]]},
        "valuation": {"p0": [0, 1, 2]},
    }
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_valid_pinned_example(capsys, model_file):
    code, out, err = run(capsys, [
        "valid", "--algebra", "builtin:cost:3", "--model", model_file,
        "--formula", "[a+](p) <-> [a](p & [a+]p)"])
    assert code == 0
    assert json.loads(out)["valid"] is True
    assert "valid" in err


def test_decide_pinned_example(capsys):
    code, out, err = run(capsys, [
        "decide", "--algebra", "builtin:bool2", "--max-states", "2",
        "--formula", "p -> [a]p"])
    assert code == 1
    doc = json.loads(out)
    assert doc["outcome"] == "countermodel"
    assert doc["models_checked"] == 14
    assert doc["model"]["relations"]["a0"] == [[0, 0], [1, 0]]
    assert doc["model"]["valuation"]["p0"] == [0, 1]
    assert doc["witness_state"] == 1


def test_filter_pinned_example(capsys, model_file):
    code, out, err = run(capsys, [
        "filter", "--model", model_file, "--seed-formula", "[a+]p", "--check"])
    assert code == 0
    doc = json.loads(out)
    assert doc["check"] == "passed"
    assert doc["classes"] <= 3 ** 4
    assert doc["bound"] == 3 ** 4
    assert doc["closure_size"] == 4


def test_invalid_formula_reports_witness(capsys, model_file):
    code, out, err = run(capsys, [
        "valid", "--model", model_file, "--formula", "p0"])
    assert code == 1
    doc = json.loads(out)
    assert doc == {"valid": False, "formula": "p0", "state": 1,
                   "value": 1, "element": "1"}


def test_eval_all_states_and_single(capsys, model_file):
    code, out, _ = run(capsys, [
        "eval", "--model", model_file, "--formula", "[a0]p0"])
    assert code == 0
    assert json.loads(out)["values"] == [0, 1, 2]
    code, out, _ = run(capsys, [
        "eval", "--model", model_file, "--formula", "[a0]p0", "--state", "2"])
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_algebra_check_valid(capsys):
    code, out, _ = run(capsys, ["algebra-check", "--algebra", "builtin:cost:5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] and doc["size"] == 5
    assert doc["commutative"] and doc["integral"]
    assert len(doc["properties"]) == 8
    assert all(p["holds"] for p in doc["properties"])


def test_algebra_check_invalid_tables(capsys, tmp_path):
    bad = {"size": 2, "meet": [0, 0, 0, 1], "join": [0, 1, 1, 1],
           "fusion": [0, 1, 1, 0], "one": 1, "zero": 0}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run(capsys, ["algebra-check", "--algebra", str(path)])
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_input_errors_exit_two(capsys, model_file):
    code, _, err = run(capsys, [
        "eval", "--model", model_file, "--formula", "p0 -> ("])
    assert code == 2 and "error" in err
    code, _, err = run(capsys, [
        "valid", "--model", "no-such.json", "--formula", "p0"])
    assert code == 2
    code, _, err = run(capsys, [
        "decide", "--algebra", "builtin:nope", "--max-states", "1",
        "--formula", "p0"])
    assert code == 2


def assert_input_error(code, out, err):
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def _cost3_inline():
    rng = range(3)
    return {"size": 3, "meet": [[max(a, b) for b in rng] for a in rng],
            "join": [[min(a, b) for b in rng] for a in rng],
            "fusion": [[min(a + b, 2) for b in rng] for a in rng], "one": 0, "zero": 0}


MALFORMED_MODELS = {
    "relation entry 1.5": {"relations": {"a0": [[0, 1.5], [1, 0]]}},
    "relation entry '1'": {"relations": {"a0": [[0, "1"], [1, 0]]}},
    "relation entry true": {"relations": {"a0": [[0, True], [1, 0]]}},
    "relation not a list": {"relations": {"a0": 5}},
    "relation row not a list": {"relations": {"a0": [5, 5]}},
    "relations not a map": {"relations": 5},
    "valuation entry 1.5": {"valuation": {"p0": [0, 1.5]}},
    "valuation entry '1'": {"valuation": {"p0": [0, "1"]}},
    "valuation entry true": {"valuation": {"p0": [0, True]}},
    "valuation not a list": {"valuation": {"p0": 5}},
    "states true": {"states": True, "relations": {}, "valuation": {}},
    "algebra table entry true": {"algebra": dict(_cost3_inline(),
                                                 meet=[[0, 1, 2], [1, True, 2], [2, 2, 2]])},
    "algebra zero false": {"algebra": dict(_cost3_inline(), zero=False)},
    "algebra names not a list": {"algebra": dict(_cost3_inline(), names=5)},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODELS))
def test_malformed_model_is_input_error(capsys, tmp_path, case):
    doc = {"algebra": "builtin:cost:3", "states": 2,
           "relations": {"a0": [[0, 1], [1, 0]]}, "valuation": {"p0": [0, 1]},
           **MALFORMED_MODELS[case]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert_input_error(*run(capsys, ["eval", "--model", str(path), "--formula", "[a0]p0"]))


MALFORMED_PROOF_LINES = {
    "lines not a list": 5,
    "axiom missing": [{"formula": "[a0]#one", "by": {"kind": "axiom"}}],
    "refs not a list": [{"formula": "p0 -> p0", "by": {"kind": "log", "refs": 5}}],
    "ref not a number": [{"formula": "p0 -> p0", "by": {"kind": "log", "refs": []}},
                         {"formula": "[a0]p0 -> [a0]p0", "by": {"kind": "rmon", "ref": [0]}}],
    "ref 0.0": [{"formula": "p0 -> p0", "by": {"kind": "log", "refs": []}},
                {"formula": "[a0]p0 -> [a0]p0", "by": {"kind": "rmon", "ref": 0.0}}],
    "axiom a list": [{"formula": "[a0]#one", "by": {"kind": "axiom", "axiom": ["A-1"]}}],
    "axiom null": [{"formula": "[a0]#one", "by": {"kind": "axiom", "axiom": None}}],
    "formula a number": [{"formula": 5, "by": {"kind": "log", "refs": []}}],
    "formula a list": [{"formula": ["[a0]#one"], "by": {"kind": "axiom", "axiom": "A-1"}}],
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PROOF_LINES))
def test_malformed_proof_is_input_error(capsys, tmp_path, case):
    path = tmp_path / "p.json"
    doc = {"algebra": "builtin:cost:3", "lines": MALFORMED_PROOF_LINES[case]}
    path.write_text(json.dumps(doc))
    assert_input_error(*run(capsys, ["prove-check", str(path)]))


@pytest.mark.parametrize("case", ["a string naming a proof file", "a string", "a number", "null"])
def test_proof_file_of_neither_object_nor_list_is_input_error(capsys, tmp_path, case):
    from importlib import resources
    other = str(resources.files("flpdl") / "data" / "proofs" / "box_one.json")
    content = {"a string naming a proof file": other, "a string": "lines", "a number": 5,
               "null": None}[case]
    path = tmp_path / "p.json"
    path.write_text(json.dumps(content))
    assert_input_error(*run(capsys, ["prove-check", str(path)]))


def test_unmapped_exception_is_internal_error(capsys, monkeypatch, model_file):
    import flpdl.cli

    def crash(args):
        raise RuntimeError("boom\non two lines")

    monkeypatch.setattr(flpdl.cli, "_cmd_eval", crash)
    code, out, err = run(capsys, ["eval", "--model", model_file, "--formula", "p0"])
    assert code == 4
    assert out == ""
    assert err.splitlines() == ["internal error: RuntimeError: boom on two lines"]


@pytest.mark.parametrize("state", ["3", "5", "-1"])
def test_eval_state_out_of_range_is_input_error(capsys, model_file, state):
    assert_input_error(*run(capsys, [
        "eval", "--model", model_file, "--formula", "p0", "--state", state]))


def test_eval_nesting_at_cap_and_past_it(capsys, model_file):
    code, out, _ = run(capsys, [
        "eval", "--model", model_file, "--formula", "!" * MAX_NESTING + "p0"])
    assert code == 0
    # negation is involutive on cost chains, so an even count gives p0 back
    assert json.loads(out)["values"] == [0, 1, 2]
    code, out, err = run(capsys, [
        "eval", "--model", model_file, "--formula", "!" * (MAX_NESTING + 1) + "p0"])
    assert_input_error(code, out, err)
    assert f"position {MAX_NESTING}" in err
    deep = "(" * (MAX_NESTING + 1) + "p0" + ")" * (MAX_NESTING + 1)
    assert_input_error(*run(capsys, ["eval", "--model", model_file, "--formula", deep]))
    assert_input_error(*run(capsys, [
        "eval", "--model", model_file, "--formula", "!" * 3000 + "p0"]))


def test_budget_exhaustion_exits_three(capsys):
    code, out, _ = run(capsys, [
        "decide", "--algebra", "builtin:cost:3", "--max-states", "3",
        "--formula", "[a0](p0 & p1) <-> ([a0]p0 & [a0]p1)",
        "--budget", "1000"])
    assert code == 3
    doc = json.loads(out)
    assert doc["outcome"] == "budget-exceeded"
    assert doc["frontier"]["models_checked"] == 1000


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FLPDL_BUDGET", "500")
    code, out, _ = run(capsys, [
        "decide", "--algebra", "builtin:cost:3", "--max-states", "3",
        "--formula", "[a0](p0 & p1) <-> ([a0]p0 & [a0]p1)"])
    assert code == 3
    assert json.loads(out)["frontier"]["models_checked"] == 500


@pytest.mark.parametrize("env, extra", [("0", []), ("-2", []), (None, ["--atom-budget", "-3"]),
                                        (None, ["--atom-budget", "0"])])
def test_prove_check_budget_below_one_is_input_error(capsys, monkeypatch, env, extra):
    from importlib import resources
    if env is not None:
        monkeypatch.setenv("FLPDL_BUDGET", env)
    # box_one.json has no log line, so no line of it ever reads the budget
    for name in ("box_plus_one.json", "box_one.json"):
        good = str(resources.files("flpdl") / "data" / "proofs" / name)
        assert_input_error(*run(capsys, ["prove-check", good, *extra]))


@pytest.mark.parametrize("uri", ["builtin:cost:99999999", "builtin:product(cost:16,cost:16)"])
def test_builtin_past_the_size_cap_is_input_error(capsys, uri):
    started = time.perf_counter()
    assert_input_error(*run(capsys, ["decide", "--algebra", uri, "--max-states", "1",
                                     "--formula", "p0"]))
    assert time.perf_counter() - started < 5


def test_decide_valid_by_exhaustion(capsys):
    code, out, _ = run(capsys, [
        "decide", "--algebra", "builtin:bool2", "--max-states", "2",
        "--formula", "#one"])
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "valid-by-exhaustion"
    assert doc["bound"] == 2


def test_decide_sample_deterministic(capsys):
    argv = ["decide", "--algebra", "builtin:bool2", "--max-states", "2",
            "--formula", "p -> [a]p", "--mode", "sample", "--seed", "7",
            "--budget", "200"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert (code1, out1) == (code2, out2)
    assert code1 == 1


def test_text_format_goes_to_stdout(capsys, model_file):
    code, out, err = run(capsys, [
        "--format", "text", "eval", "--model", model_file,
        "--formula", "p0", "--state", "0"])
    assert code == 0
    assert err == ""
    assert "state 0" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_format_flag_accepted_after_subcommand(capsys, model_file):
    code, out, err = run(capsys, [
        "eval", "--model", model_file, "--formula", "p0",
        "--state", "0", "--format", "text"])
    assert code == 0
    assert err == ""
    assert "state 0" in out
    code, out, err = run(capsys, [
        "decide", "--algebra", "builtin:bool2", "--max-states", "2",
        "--formula", "p -> [a]p", "--format", "json"])
    assert code == 1
    assert json.loads(out)["models_checked"] == 14


def test_filter_output_file_round_trips(capsys, model_file, tmp_path):
    out_path = tmp_path / "small.json"
    code, out, _ = run(capsys, [
        "filter", "--model", model_file, "--seed-formula", "[a+]p",
        "--output", str(out_path)])
    assert code == 0
    from flpdl.semantics import load_model
    small = load_model(str(out_path))
    assert small.frame.size == json.loads(out)["classes"]


def test_prove_check_good_and_bad(capsys):
    from importlib import resources
    good = str(resources.files("flpdl") / "data" / "proofs" / "box_plus_one.json")
    code, out, _ = run(capsys, ["prove-check", good])
    assert code == 0
    doc = json.loads(out)
    assert doc["accepted"] and doc["conclusion"] == "[a0+]#0"

    bad = str(resources.files("flpdl") / "data" / "proofs_bad" / "self_citation.json")
    code, out, _ = run(capsys, ["prove-check", bad])
    assert code == 1
    doc = json.loads(out)
    assert doc["failed_line"] == 0

    # a string naming no scheme is a rejected script, not malformed input
    bad = str(resources.files("flpdl") / "data" / "proofs_bad" / "unknown_axiom_name.json")
    code, out, _ = run(capsys, ["prove-check", bad])
    assert code == 1
    assert json.loads(out)["reason"] == "unknown axiom name 'A-2'"


def test_prove_check_algebra_override(capsys):
    from importlib import resources
    good = str(resources.files("flpdl") / "data" / "proofs" / "box_one.json")
    code, _, _ = run(capsys, ["prove-check", good, "--algebra", "builtin:bool2"])
    assert code == 0


def test_selftest_subset(capsys):
    code, out, err = run(capsys, ["selftest", "--only", "1,8"])
    assert code == 0
    lines = [l for l in err.splitlines() if l.startswith("criterion")]
    assert len(lines) == 2
    assert all("PASS" in l for l in lines)
    doc = json.loads(out)
    assert [entry["criterion"] for entry in doc] == [1, 8]
    assert all(entry["passed"] for entry in doc)


def test_selftest_text_format(capsys):
    code, out, err = run(capsys, ["--format", "text", "selftest", "--only", "8"])
    assert code == 0
    assert "criterion 8: PASS" in out
    assert out.strip().endswith("1/1 criteria passed")


@pytest.mark.parametrize("only", ["9", "0", "1,9", "", "x"])
def test_selftest_unknown_criterion_is_input_error(capsys, only):
    assert_input_error(*run(capsys, ["selftest", "--only", only]))
