"""Command line entry point.

One binary, subcommand style. Every subcommand reports through `_emit`: JSON
on stdout with a human summary on stderr, or --format text's summary alone on
stdout; `main` reports errors. Unset budgets come from `decision.default_budget`.
Exit codes: 0 success / valid / accepted, 1 countermodel / invalid /
rejected, 2 bad input, 3 budget exhausted, 4 internal error (a defect,
reported on one line so it never reads as a verdict).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import warnings

from .algebra import (check_algebra_properties, is_commutative, is_integral,
                      load_algebra)
from .decision import (Countermodel, ValidByExhaustion, decide_bounded,
                       default_budget, theoretical_bound)
from .errors import (AtomBudgetExceeded, BudgetExceeded, FLPDLError,
                     InvalidAlgebra)
from .filtration import filtrate, phi_partition
from .parser import parse_formula
from .proofs import DEFAULT_ATOM_BUDGET, check_proof, read_proof
from .semantics import evaluate, load_model, model_to_json, valid_in_model
from .syntax import closure_of, format_formula
from .selftest import run_selftest

_EXIT_OK = 0
_EXIT_NEGATIVE = 1
_EXIT_INPUT = 2
_EXIT_BUDGET = 3
_EXIT_INTERNAL = 4


@contextlib.contextmanager
def _all_digits():
    """Lift Python's cap on int-to-text digits (4,300) while the CLI writes its output.

    Never around input: parsing formulas and reading JSON rely on the cap.
    """
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(cap)


def _emit(args, payload, human: str) -> None:
    if args.format == "json":
        with _all_digits():
            report = json.dumps(payload, indent=2)
        print(report)
        if human:
            print(human, file=sys.stderr)
    else:
        print(human)


def _cmd_algebra_check(args) -> int:
    try:
        algebra = load_algebra(args.algebra)
    except InvalidAlgebra as exc:
        _emit(args, {"valid": False, "error": str(exc), "witness": getattr(exc, "witness", None)},
              f"invalid: {exc}")
        return _EXIT_NEGATIVE
    report = check_algebra_properties(algebra)
    payload = {
        "valid": report.all_passed,
        "size": algebra.size,
        "commutative": is_commutative(algebra),
        "integral": is_integral(algebra),
        "properties": [
            {"name": c.name, "holds": c.holds,
             **({"counterexample": list(c.counterexample)} if c.counterexample else {})}
            for c in report.checks
        ],
    }
    if report.all_passed:
        _emit(args, payload, f"valid FL-algebra with {algebra.size} elements; all 8 properties hold")
        return _EXIT_OK
    failed = report.failures()[0]
    _emit(args, payload, f"property failed: {failed.name} at {failed.counterexample}")
    return _EXIT_NEGATIVE


def _cmd_eval(args) -> int:
    model = load_model(args.model, args.algebra)
    formula = parse_formula(args.formula, model.algebra)
    if args.state is not None:
        value = evaluate(model, formula, args.state)
        payload = {"formula": format_formula(formula), "state": args.state,
                   "value": value, "element": model.algebra.element_name(value)}
        _emit(args, payload, f"value at state {args.state}: {payload['element']}")
        return _EXIT_OK
    values = list(model.values(formula))
    payload = {"formula": format_formula(formula), "values": values,
               "elements": [model.algebra.element_name(v) for v in values]}
    _emit(args, payload, "values: " + " ".join(payload["elements"]))
    return _EXIT_OK


def _cmd_valid(args) -> int:
    model = load_model(args.model, args.algebra)
    formula = parse_formula(args.formula, model.algebra)
    ok, state, value = valid_in_model(model, formula)
    if ok:
        _emit(args, {"valid": True, "formula": format_formula(formula)}, "valid in the model")
        return _EXIT_OK
    payload = {"valid": False, "formula": format_formula(formula),
               "state": state, "value": value,
               "element": model.algebra.element_name(value)}
    _emit(args, payload, f"not valid: value {payload['element']} at state {state}")
    return _EXIT_NEGATIVE


def _cmd_filter(args) -> int:
    model = load_model(args.model, args.algebra)
    algebra = model.algebra
    seed = parse_formula(args.seed_formula, algebra)
    phis = closure_of([seed])
    part = phi_partition(model, phis)
    small = filtrate(model, phis, part)
    payload = {
        "closure_size": len(phis),
        "closure": [format_formula(f) for f in phis],
        "classes": part.class_count,
        "bound": algebra.size ** len(phis),
        "class_of": list(part.class_of),
        "model": model_to_json(small),
    }
    if args.check:
        for f in phis:
            before = model.values(f)
            after = small.values(f)
            for s in range(model.frame.size):
                if before[s] != after[part.class_of[s]]:
                    payload["check"] = f"value of {format_formula(f)} not preserved at state {s}"
                    _emit(args, payload, payload["check"])
                    return _EXIT_NEGATIVE
        payload["check"] = "passed"
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(payload["model"], fh, indent=2)
            fh.write("\n")
    with _all_digits():     # the bound, |algebra| ** |closure|, can pass the cap
        human = (f"{model.frame.size} states -> {part.class_count} classes "
                 f"(closure size {len(phis)}, bound {payload['bound']})")
    _emit(args, payload, human)
    return _EXIT_OK


def _cmd_decide(args) -> int:
    algebra = load_algebra(args.algebra)
    formula = parse_formula(args.formula, algebra)
    try:
        outcome = decide_bounded(formula, algebra, args.max_states,
                                 budget=args.budget, mode=args.mode, seed=args.seed)
    except BudgetExceeded as exc:
        _emit(args, {"outcome": "budget-exceeded", "frontier": exc.frontier,
                     "models_evaluated": exc.models_evaluated},
              f"budget exhausted: {exc.frontier}")
        return _EXIT_BUDGET
    if isinstance(outcome, Countermodel):
        payload = {"outcome": "countermodel",
                   "model": model_to_json(outcome.model),
                   "witness_state": outcome.witness_state,
                   "value": outcome.value,
                   "models_checked": outcome.models_checked,
                   "models_evaluated": outcome.models_evaluated}
        _emit(args, payload,
              f"countermodel with {outcome.model.frame.size} states; "
              f"value {algebra.element_name(outcome.value)} at state {outcome.witness_state} "
              f"({outcome.models_checked} models checked)")
        return _EXIT_NEGATIVE
    if isinstance(outcome, ValidByExhaustion):
        payload = {"outcome": "valid-by-exhaustion", "bound": outcome.bound,
                   "models_checked": outcome.models_checked,
                   "models_evaluated": outcome.models_evaluated}
        _emit(args, payload,
              f"valid: every model up to the bound of {outcome.bound} states checked")
        return _EXIT_OK
    with _all_digits():
        bound = str(theoretical_bound(formula, algebra))
    payload = {"outcome": "no-countermodel", "max_states": outcome.max_states,
               "models_checked": outcome.models_checked,
               "models_evaluated": outcome.models_evaluated,
               "exhaustive": outcome.exhaustive, "theoretical_bound": bound}
    _emit(args, payload,
          f"no countermodel up to {outcome.max_states} states "
          f"({outcome.models_checked} models, "
          f"{'exhaustive' if outcome.exhaustive else 'sampled'})")
    return _EXIT_OK


def _cmd_prove_check(args) -> int:
    script, algebra = read_proof(args.proof, args.algebra)
    verdict = check_proof(script, algebra, default_budget(DEFAULT_ATOM_BUDGET)
                          if args.atom_budget is None else args.atom_budget)
    payload = {"accepted": verdict.accepted, "lines": len(script.lines),
               "conclusion": format_formula(script.conclusion),
               "warnings": list(verdict.warnings)}
    if verdict.accepted:
        human = f"accepted: {payload['conclusion']}"
        if verdict.warnings:
            human += " (warnings: " + "; ".join(verdict.warnings) + ")"
        _emit(args, payload, human)
        return _EXIT_OK
    payload.update({"failed_line": verdict.failed_line, "reason": verdict.reason})
    _emit(args, payload, f"rejected at line {verdict.failed_line}: {verdict.reason}")
    return _EXIT_NEGATIVE


def _cmd_selftest(args) -> int:
    only = None
    if args.only is not None:
        try:
            only = tuple(int(tok) for tok in args.only.split(","))
        except ValueError:
            raise ValueError(f"--only takes comma-separated criterion numbers, "
                             f"not {args.only!r}") from None
    results = run_selftest(only)
    payload = [{"criterion": r.index, "name": r.name, "passed": r.passed,
                "seconds": round(r.seconds, 2), "detail": r.detail} for r in results]
    summary = f"{sum(r.passed for r in results)}/{len(results)} criteria passed"
    _emit(args, payload, "\n".join([r.line() for r in results] + [summary]))
    return _EXIT_OK if all(r.passed for r in results) else _EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fl-pdl",
        description="Finitely-valued dynamic logic: evaluate, filtrate, decide, check proofs.")
    p.add_argument("--format", choices=("json", "text"), default="json",
                   help="json: report on stdout, summary on stderr; text: summary only")
    # SUPPRESS keeps the top-level value unless the flag reappears after the subcommand
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default=argparse.SUPPRESS,
                     help=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("algebra-check", parents=[fmt],
                       help="validate an algebra and its arithmetic laws")
    c.add_argument("--algebra", required=True, help="builtin: URI or JSON file")
    c.set_defaults(fn=_cmd_algebra_check)

    model = argparse.ArgumentParser(add_help=False, parents=[fmt])
    model.add_argument("--model", required=True, help="JSON model file")
    model.add_argument("--algebra", help="overrides the algebra named in the model file")

    c = sub.add_parser("eval", parents=[model], help="value of a formula at every state of a model")
    c.add_argument("--formula", required=True)
    c.add_argument("--state", type=int)
    c.set_defaults(fn=_cmd_eval)

    c = sub.add_parser("valid", parents=[model], help="is one below the formula's value at every state")
    c.add_argument("--formula", required=True)
    c.set_defaults(fn=_cmd_valid)

    c = sub.add_parser("filter", parents=[model], help="quotient a model through a formula's closure")
    c.add_argument("--seed-formula", required=True)
    c.add_argument("--check", action="store_true",
                   help="re-verify that closure values survive the quotient")
    c.add_argument("--output", help="write the filtrated model to this file")
    c.set_defaults(fn=_cmd_filter)

    c = sub.add_parser("decide", parents=[fmt], help="bounded countermodel search")
    c.add_argument("--formula", required=True)
    c.add_argument("--algebra", required=True)
    c.add_argument("--max-states", type=int, required=True)
    c.add_argument("--budget", type=int, help="candidate models to check (FLPDL_BUDGET, then 10^6)")
    c.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(fn=_cmd_decide)

    c = sub.add_parser("prove-check", parents=[fmt], help="check a proof script line by line")
    c.add_argument("proof", help="JSON proof file")
    c.add_argument("--algebra", help="overrides the algebra named in the proof file")
    c.add_argument("--atom-budget", type=int,
                   help="assignment budget for consequence checks (FLPDL_BUDGET, then 10^7)")
    c.set_defaults(fn=_cmd_prove_check)

    c = sub.add_parser("selftest", parents=[fmt], help="run the eight-criterion verification suite")
    c.add_argument("--only", help="comma-separated criterion numbers, e.g. 1,4,8")
    c.set_defaults(fn=_cmd_selftest)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # a library warning is one line, not Python's file:line and source excerpt
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.fn(args)
        except (AtomBudgetExceeded, BudgetExceeded) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _EXIT_BUDGET
        except (FLPDLError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return _EXIT_INPUT
        except Exception as exc:
            message = " ".join(str(exc).split())
            print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
            return _EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
