"""Cross-module verification suite: eight criteria, one pass/fail line each.

Each criterion function is self-contained, fixes its own seeds, enforces
its own runtime limit, and returns a CriterionResult. run_selftest drives
all of them and is what both the command line and the acceptance tests
call, so there is exactly one definition of "the repository works".
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .algebra import (FLAlgebra, bool2, build_algebra, check_algebra_properties,
                      cost_chain, is_commutative, is_integral, load_algebra,
                      product)
from .algebra_search import find_non_commutative, find_non_integral
from .decision import Countermodel, ValidByExhaustion, decide_bounded, theoretical_bound
from .errors import BudgetExceeded, InvalidAlgebra
from .filtration import filtrate, phi_partition
from .generators import random_action, random_formula, random_model
from .oracles import (ClassicalModel, all_relation_tables, classical_reachable,
                      classical_states, cost_walk_join_fast,
                      least_transitive_extension, transitive_mask)
from .parser import parse_formula
from .proofs import check_proof, load_proof, matches_axiom, read_proof
from .relations import (XRelation, identity_relation, refl_trans_closure,
                        rel_union, transitive_closure)
from .semantics import Frame, Model, evaluate, load_model, valid_in_model
from .syntax import And, Box, Choice, Plus, Seq, Var, closure_of


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"criterion {self.index}: {tag} {self.name} ({self.seconds:.1f}s) - {self.detail}"


def builtin_algebras() -> dict[str, FLAlgebra]:
    return {
        "bool2": bool2(),
        "cost:2": cost_chain(2),
        "cost:3": cost_chain(3),
        "cost:5": cost_chain(5),
        "cost:8": cost_chain(8),
        "product(bool2,cost:3)": product(bool2(), cost_chain(3)),
    }


def _result(index: int, name: str, started: float, limit: float,
            ok: bool, detail: str) -> CriterionResult:
    elapsed = time.perf_counter() - started
    if elapsed >= limit:
        ok = False
        detail += f"; over the {limit:.0f}s limit"
    return CriterionResult(index, name, ok, detail, elapsed)


def criterion_1() -> CriterionResult:
    """Builtins validate; perturbed fusion tables are caught."""
    started = time.perf_counter()
    problems = []
    for name, alg in builtin_algebras().items():
        report = check_algebra_properties(alg)
        if not report.all_passed:
            failed = report.failures()[0]
            problems.append(f"{name}: {failed.name}")

    base = cost_chain(5)
    fusion = [list(row) for row in base.fusion_table]
    rng = random.Random(0)
    caught = 0
    for _ in range(100):
        i, j = rng.randrange(5), rng.randrange(5)
        wrong = rng.choice([v for v in range(5) if v != fusion[i][j]])
        perturbed = [row[:] for row in fusion]
        perturbed[i][j] = wrong
        try:
            alg = build_algebra(5, base.meet_table, base.join_table, perturbed,
                                base.one, base.zero)
        except InvalidAlgebra:
            caught += 1
            continue
        if not check_algebra_properties(alg).all_passed:
            caught += 1
    ok = not problems and caught == 100
    detail = f"6 builtins clean; {caught}/100 perturbations rejected or flagged"
    if problems:
        detail += "; " + "; ".join(problems)
    return _result(1, "algebra validation", started, 5.0, ok, detail)


def criterion_2() -> CriterionResult:
    """Fixpoint closure matches brute-force least extension and walk joins."""
    started = time.perf_counter()
    A = cost_chain(3)
    cap = 2
    mismatches = 0

    tables2 = all_relation_tables(3, 2)
    trans2 = tables2[transitive_mask(A, tables2)]
    for tbl in tables2:
        rel = XRelation(A, tbl)
        plus = transitive_closure(rel).matrix
        least = least_transitive_extension(A, rel, trans2)
        if least is None or not (least == plus).all() \
                or not (cost_walk_join_fast(rel, cap) == plus).all():
            mismatches += 1

    tables3 = all_relation_tables(3, 3)
    trans3 = tables3[transitive_mask(A, tables3)]
    rng = random.Random(0)
    for _ in range(500):
        rel = XRelation(A, [[rng.randrange(3) for _ in range(3)] for _ in range(3)])
        plus = transitive_closure(rel).matrix
        least = least_transitive_extension(A, rel, trans3)
        if least is None or not (least == plus).all() \
                or not (cost_walk_join_fast(rel, cap) == plus).all():
            mismatches += 1

    detail = f"81 two-state relations exhaustively + 500 random three-state; {mismatches} mismatches"
    return _result(2, "closure minimality", started, 60.0, mismatches == 0, detail)


def criterion_3() -> CriterionResult:
    """Two-valued evaluation matches an independent classical checker."""
    started = time.perf_counter()
    A = bool2()
    rng = random.Random(0)
    mismatches = 0
    for _ in range(1000):
        n = rng.randrange(1, 5)
        model = random_model(A, n, rng, atoms=(0, 1), variables=(0, 1))
        cm = ClassicalModel.from_model(model)
        f = random_formula(rng, A, 5)
        truth = classical_states(cm, f)
        if any((evaluate(model, f, s) == 1) != (s in truth) for s in range(n)):
            mismatches += 1
            continue
        act = random_action(rng, 2)
        shaped = And(f, Box(Plus(act), f))
        for s in range(n):
            if (evaluate(model, shaped, s) == 1) != (classical_reachable(cm, act, s) <= truth):
                mismatches += 1
                break
    detail = f"1000 random Boolean models, formulas to depth 5, star shape included; {mismatches} mismatches"
    return _result(3, "classical reduction", started, 30.0, mismatches == 0, detail)


def criterion_4() -> CriterionResult:
    """The four box distribution schemes have state-wise equal sides."""
    started = time.perf_counter()
    mismatches = 0
    total = 0
    for name, A in builtin_algebras().items():
        rng = random.Random(0)
        for _ in range(500):
            n = rng.randrange(1, 6)
            model = random_model(A, n, rng, atoms=(0, 1), variables=(0, 1))
            alpha = random_action(rng, 2)
            beta = random_action(rng, 2)
            phi = random_formula(rng, A, 2)
            psi = random_formula(rng, A, 2)
            pairs = (
                (Box(alpha, And(phi, psi)), And(Box(alpha, phi), Box(alpha, psi))),
                (Box(Choice(alpha, beta), phi), And(Box(alpha, phi), Box(beta, phi))),
                (Box(Seq(alpha, beta), phi), Box(alpha, Box(beta, phi))),
                (Box(Plus(alpha), phi), Box(alpha, And(phi, Box(Plus(alpha), phi)))),
            )
            total += 1
            if any(model.values(l) != model.values(r) for l, r in pairs):
                mismatches += 1
    detail = f"{total} random models over 6 algebras, 4 schemes each; {mismatches} mismatches"
    return _result(4, "validity schemes", started, 30.0, mismatches == 0, detail)


def criterion_5() -> CriterionResult:
    """Filtration preserves closure values; class count within bound."""
    started = time.perf_counter()
    bad = 0
    total = 0
    for name, A in builtin_algebras().items():
        rng = random.Random(0)
        for _ in range(50):
            n = rng.randrange(1, 6)
            model = random_model(A, n, rng, atoms=(0, 1), variables=(0, 1))
            seed = random_formula(rng, A, 3)
            phis = closure_of([seed])
            part = phi_partition(model, phis)
            small = filtrate(model, phis, part)
            total += 1
            if part.class_count > A.size ** len(phis):
                bad += 1
                continue
            for f in phis:
                original = model.values(f)
                quotient = small.values(f)
                if any(original[s] != quotient[part.class_of[s]] for s in range(n)):
                    bad += 1
                    break
            else:
                if small.values(Var(761)) != (A.zero,) * small.frame.size:
                    bad += 1
    detail = f"{total} model/seed pairs over 6 algebras; {bad} violations"
    return _result(5, "filtration preservation", started, 60.0, bad == 0, detail)


def criterion_6() -> CriterionResult:
    """Bounded search: pinned countermodel, exhaustion, axiom instances clean."""
    started = time.perf_counter()
    A2, A3 = bool2(), cost_chain(3)
    problems = []

    t0 = time.perf_counter()
    out = decide_bounded(parse_formula("p0 -> [a0]p0", A2), A2, 2)
    t_first = time.perf_counter() - t0
    if not (isinstance(out, Countermodel)
            and out.model.frame.size == 2
            and out.model.frame.atomic[0].values == ((0, 0), (1, 0))
            and out.model.valuation[0] == (0, 1)
            and out.witness_state == 1
            and t_first < 1.0):
        problems.append(f"countermodel search gave {out!r} in {t_first:.2f}s")

    for A in (A2, A3):
        one = parse_formula("#one", A)
        bound = theoretical_bound(one, A)
        out = decide_bounded(one, A, bound)
        if not (isinstance(out, ValidByExhaustion) and out.bound == A.size):
            problems.append(f"exhaustion over {A.uri} gave {out!r}")

    instances = (
        "[a0]#one",
        "[a0](p0 & p1) <-> ([a0]p0 & [a0]p1)",
        "[a0](#1 -> p0) <-> (#1 -> [a0]p0)",
        "[a0 u a1]p0 <-> ([a0]p0 & [a1]p0)",
        "[a0 ; a1]p0 <-> [a0][a1]p0",
        "[a0+]p0 <-> [a0](p0 & [a0+]p0)",
    )
    skipped = []
    for A in (A2, A3):
        for src in instances:
            f = parse_formula(src, A)
            try:
                out = decide_bounded(f, A, 3, budget=10 ** 6)
            except BudgetExceeded:
                skipped.append(f"{src} over {A.uri}")
                continue
            if isinstance(out, Countermodel):
                problems.append(f"countermodel for {src} over {A.uri}")
    ok = not problems
    detail = ("pinned 2-state countermodel, exhaustion on both algebras, "
              f"{2 * len(instances) - len(skipped)} axiom instances countermodel-free "
              f"at 3 states, {len(skipped)} skipped over the budget")
    if skipped:
        detail += ": " + "; ".join(skipped)
    if problems:
        detail = "; ".join(problems)
    return _result(6, "decision procedure", started, 120.0, ok, detail)


def _proof_corpus(kind: str):
    root = resources.files("flpdl").joinpath("data", kind)
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            yield entry.name, json.loads(entry.read_text())


def criterion_7() -> CriterionResult:
    """Proof corpus: good scripts accepted and sound, corrupted ones pinned."""
    started = time.perf_counter()
    A2, A3 = bool2(), cost_chain(3)
    problems = []
    goods = 0
    for name, raw in _proof_corpus("proofs"):
        goods += 1
        for A in (A2, A3):
            script = load_proof(raw, A)
            verdict = check_proof(script, A)
            if not verdict.accepted:
                problems.append(f"{name} rejected over {A.uri}: {verdict.reason}")
                continue
            conclusion = script.conclusion
            rng = random.Random(0)
            for _ in range(200):
                model = random_model(A, rng.randrange(1, 6), rng,
                                     atoms=(0, 1), variables=(0, 1))
                ok, state, value = valid_in_model(model, conclusion)
                if not ok:
                    problems.append(f"{name} conclusion fails over {A.uri} at state {state}")
                    break
    bads = 0
    for name, raw in _proof_corpus("proofs_bad"):
        bads += 1
        verdict = check_proof(*read_proof(raw))
        if verdict.accepted or verdict.failed_line != raw["corrupted_line"]:
            problems.append(f"{name}: expected rejection at line {raw['corrupted_line']}, got {verdict}")
    ok = not problems and goods >= 10 and bads >= 10
    detail = f"{goods} scripts accepted and harness-valid, {bads} corrupted scripts pinned"
    if problems:
        detail = "; ".join(problems[:4])
    return _result(7, "proof checker", started, 60.0, ok, detail)


def criterion_8() -> CriterionResult:
    """Searched boundary algebras reproduce their stored witnesses."""
    started = time.perf_counter()
    problems = []

    raw = json.loads(resources.files("flpdl").joinpath(
        "data", "witnesses", "non_integral_star.json").read_text())
    NI = load_algebra(raw["algebra"])
    searched = find_non_integral()
    if not searched.same_tables(NI):
        problems.append("non-integral search drifted from the stored algebra")
    if is_integral(NI):
        problems.append("stored algebra is integral")
    rel = XRelation.from_rows(NI, raw["relation"])
    star = refl_trans_closure(rel)
    union = rel_union(identity_relation(NI, rel.size), transitive_closure(rel))
    if star.matrix.tolist() != raw["refl_trans_closure"] \
            or union.matrix.tolist() != raw["id_union_plus"] \
            or np.array_equal(star.matrix, union.matrix):
        problems.append("star/identity-union witness did not reproduce")

    raw = json.loads(resources.files("flpdl").joinpath(
        "data", "witnesses", "non_commutative_const_shift.json").read_text())
    NC = load_algebra(raw["algebra"])
    searched = find_non_commutative()
    if not searched.same_tables(NC):
        problems.append("non-commutative search drifted from the stored algebra")
    if is_commutative(NC):
        problems.append("stored algebra is commutative")
    formula = parse_formula(raw["formula"], NC)
    if not matches_axiom(formula, "A-const", NC):
        problems.append("stored formula is not a constant-shift instance")
    model = load_model(dict(raw["model"], algebra=raw["algebra"]))
    ok_valid, state, value = valid_in_model(model, formula)
    if ok_valid or state != raw["witness_state"] or value != raw["value"]:
        problems.append(f"constant-shift countermodel did not reproduce: {state}, {value}")

    ok = not problems
    detail = ("non-integral star boundary and non-commutative constant-shift "
              "countermodel both reproduced from fixtures")
    if problems:
        detail = "; ".join(problems)
    return _result(8, "integrality boundary", started, 60.0, ok, detail)


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4,
            criterion_5, criterion_6, criterion_7, criterion_8)


def run_selftest(only: tuple[int, ...] | None = None) -> list[CriterionResult]:
    """Run every criterion, or those numbered in `only`, in order."""
    if only is not None and not (only and set(only) <= set(range(1, len(CRITERIA) + 1))):
        raise ValueError(f"criteria are numbered 1..{len(CRITERIA)}; cannot run {list(only)}")
    return [fn() for idx, fn in enumerate(CRITERIA, start=1) if only is None or idx in only]
