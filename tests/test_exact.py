"""Exact validity by type elimination: `decide_exact` against independent references.

The references here share no code with the kernel: the type model of a
verdict is built as a dense `Model` and read by `oracles.reference_values`
(the truth lemma), and a dense elimination over m x m weights per atom
decides small cases over relations, through numpy and the algebra's tables.
"""

import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flpdl
from flpdl.algebra import bool2, cost_chain, product
from flpdl.algebra_search import find_non_commutative, find_non_integral
from flpdl.decision import (Countermodel, ExactVerdict, ValidByExhaustion, _distinct,
                            decide_bounded, decide_exact)
from flpdl.errors import BudgetExceeded
from flpdl.generators import random_formula, random_model
from flpdl.oracles import reference_values
from flpdl.parser import parse_formula
from flpdl.relations import XRelation
from flpdl.semantics import Frame, Model
from flpdl.syntax import (And, Atom, Box, Choice, Const, Fuse, LDiv, Or, Plus, RDiv, Seq, Var,
                          closure_of)

INSTANCES = (
    "[a0]#one",
    "[a0](p0 & p1) <-> ([a0]p0 & [a0]p1)",
    "[a0](#1 -> p0) <-> (#1 -> [a0]p0)",
    "[a0 u a1]p0 <-> ([a0]p0 & [a1]p0)",
    "[a0 ; a1]p0 <-> [a0][a1]p0",
    "[a0+]p0 <-> [a0](p0 & [a0+]p0)",
)


def _base(f):
    return type(f) is Var or (type(f) is Box and type(f.action) in (Atom, Plus))


def type_model(verdict: ExactVerdict, algebra) -> Model:
    """The surviving types as a model: atom a weighs t -> u by the meet, over the closure's
    boxes [a]h, of ldiv[t([a]h), u(h)], and each variable reads its own row."""
    row = dict(zip(verdict.closure, verdict.types.astype(np.int64)))
    X = algebra.arrays
    weights = {}
    for f in verdict.closure:
        if type(f) is Box and type(f.action) is Atom:
            w = X.ldiv[row[f][:, None], row[f.body][None, :]]
            a = f.action.index
            weights[a] = w if a not in weights else X.meet[weights[a], w]
    frame = Frame(algebra, verdict.types.shape[1],
                  {a: XRelation(algebra, w) for a, w in weights.items()})
    return Model(frame, {f.index: tuple(row[f].tolist()) for f in verdict.closure
                         if type(f) is Var})


def assert_truth_lemma(verdict, algebra):
    model = type_model(verdict, algebra)
    for f, values in zip(verdict.closure, verdict.types.tolist()):
        assert list(reference_values(model, f)) == values, f


def survivors(verdict):
    """The surviving types as the set of their base-coordinate vectors."""
    rows = [r for f, r in zip(verdict.closure, verdict.types.tolist()) if _base(f)]
    return set(zip(*rows)) if rows else {()}


def dense_eliminate(formula, algebra):
    """(valid, survivors, rounds) by elimination over relations: every type of the base
    coordinates, derived by the algebra's tables, the local `+` law, then rounds on the type
    model whose atom relations are the m x m weights, boxes read off those relations."""
    X, size = algebra.arrays, algebra.size
    closure = closure_of([formula])
    base = [f for f in closure if _base(f)]
    types = np.array(list(itertools.product(range(size), repeat=len(base))),
                     np.int64).reshape(size ** len(base), len(base))
    ops = {And: X.meet, Or: X.join, Fuse: X.fuse, LDiv: X.ldiv, RDiv: X.imp}

    @functools.cache
    def value(f):
        if f in base:
            return types[:, base.index(f)]
        if type(f) is Const:
            return np.full(len(types), f.index)
        if type(f) in ops:
            return ops[type(f)][value(f.left), value(f.right)]
        a = f.action
        if type(a) is Choice:
            return X.meet[value(Box(a.left, f.body)), value(Box(a.right, f.body))]
        return value(Box(a.left, Box(a.right, f.body)))

    values = {f: value(f) for f in closure}
    keep = np.ones(len(types), bool)
    for f in base:
        if type(f) is Box and type(f.action) is Plus:
            step = f.action.body
            keep &= values[f] == X.meet[values[Box(step, f.body)], values[Box(step, f)]]
    alive, rounds = np.flatnonzero(keep), 0

    def compose(r, q):
        out = np.full(r.shape, algebra.bottom)
        for x in range(len(r)):
            out = X.join[out, X.fuse[r[:, x, None], q[None, x, :]]]
        return out

    while True:
        rounds += 1
        v = {f: values[f][alive] for f in closure}
        weights = {}
        for f in closure:
            if type(f) is Box and type(f.action) is Atom:
                w = X.ldiv[v[f][:, None], v[f.body][None, :]]
                a = f.action
                weights[a] = w if a not in weights else X.meet[weights[a], w]

        @functools.cache
        def relation(a):
            if type(a) is Atom:
                return weights[a]
            if type(a) is Choice:
                return X.join[relation(a.left), relation(a.right)]
            if type(a) is Seq:
                return compose(relation(a.left), relation(a.right))
            r = t = relation(a.body)
            while not np.array_equal(nxt := X.join[r, compose(t, r)], t):
                t = nxt
            return t

        agree = np.ones(len(alive), bool)
        for f in base:
            if type(f) is Box:
                computed = np.full(len(alive), algebra.top)
                imp = X.imp[relation(f.action), v[f.body][None, :]]
                for u in range(len(alive)):
                    computed = X.meet[computed, imp[:, u]]
                agree &= computed == v[f]
        if agree.all():
            break
        alive = alive[agree]
    valid = bool(X.leq[algebra.one, values[formula][alive]].all())
    return valid, {tuple(t) for t in types[alive].tolist()}, rounds


@functools.cache
def odd():
    return {"nc": find_non_commutative(), "ni": find_non_integral()}


@functools.cache
def algebras():
    return [bool2(), cost_chain(3), cost_chain(4), product(bool2(), cost_chain(3)),
            odd()["nc"], odd()["ni"]]


@functools.cache
def random_set():
    """Seeded random formulas, depth 2-4, over six algebras, with their verdicts; those
    past a budget of 2 * 10 ** 5 are left out."""
    rng, out = random.Random(2026), []
    for i in range(600):
        algebra = algebras()[i % len(algebras())]
        formula = random_formula(rng, algebra, rng.randrange(2, 5))
        try:
            out.append((algebra, formula, decide_exact(formula, algebra, budget=2 * 10 ** 5)))
        except BudgetExceeded:
            pass
    return out


@pytest.mark.parametrize("uri", ["bool2", "cost:3"])
def test_criterion_6_instances_are_valid(uri):
    algebra = bool2() if uri == "bool2" else cost_chain(3)
    for src in INSTANCES:
        verdict = decide_exact(parse_formula(src, algebra), algebra)
        assert verdict.valid, src
        assert verdict.types.shape[1] <= 81
        if verdict.types.shape[1] <= 40:
            assert_truth_lemma(verdict, algebra)


@pytest.mark.parametrize("key, src, count", [
    ("nc", "[a0]#one", 3),
    ("nc", "[a0](#1 -> p0) <-> (#1 -> [a0]p0)", 20),
    ("ni", "[a0]#one", 3)])
def test_odd_algebras_refute_with_their_type_models(key, src, count):
    """A-1 fails where integrality does and A-const where commutativity does; the
    surviving types are a countermodel the reference evaluator confirms."""
    algebra = odd()[key]
    formula = parse_formula(src, algebra)
    verdict = decide_exact(formula, algebra)
    assert not verdict.valid
    assert verdict.types.shape[1] == count
    assert_truth_lemma(verdict, algebra)
    values = reference_values(type_model(verdict, algebra), formula)
    assert not all(algebra.leq(algebra.one, v) for v in values)


def test_the_random_set_decides_most_formulas_both_ways():
    verdicts = [v.valid for _, _, v in random_set()]
    assert len(verdicts) > 550
    assert 20 < sum(verdicts) < len(verdicts) - 20


def test_truth_lemma_on_every_small_type_model():
    small = [(a, v) for a, _, v in random_set() if v.types.shape[1] <= 40]
    assert len(small) > 450
    for algebra, verdict in small:
        assert_truth_lemma(verdict, algebra)


def test_bounded_countermodels_agree(scan_only):
    """Every countermodel the bounded search finds within two states, every exact attempt
    given up, is matched by an invalid verdict, and every exhaustion by a valid one."""
    refuted = 0
    for algebra, formula, verdict in random_set():
        try:
            out = decide_bounded(formula, algebra, 2, budget=2 * 10 ** 4)
        except BudgetExceeded:
            continue
        if isinstance(out, Countermodel):
            refuted += 1
            assert not verdict.valid
        elif isinstance(out, ValidByExhaustion):
            assert verdict.valid
    assert refuted > 300


def test_no_random_model_refutes_a_valid_verdict():
    rng = random.Random(7)
    for algebra, formula, verdict in random_set():
        if not verdict.valid:
            continue
        for _ in range(6):
            model = random_model(algebra, rng.randrange(1, 5), rng, atoms=(0, 1), variables=(0, 1))
            assert all(algebra.leq(algebra.one, v) for v in reference_values(model, formula))


def test_factored_matches_dense_on_small_cases():
    compared = 0
    for algebra, formula, verdict in random_set():
        if sum(map(_base, closure_of([formula]))) > 4 or algebra.size ** 4 > 256:
            continue
        valid, types, rounds = dense_eliminate(formula, algebra)
        assert (verdict.valid, survivors(verdict), verdict.rounds) == (valid, types, rounds)
        compared += 1
    assert compared > 250


def test_a_plus_over_a_sequence_past_a_dense_weight():
    """[(a0;a1)+]p0 -> [a0;a1;a0;a1]p0 over cost:4: 65,536 types of 8 base coordinates,
    whose one dense int64 weight would take 32 GiB, settle at 6,400 in three rounds."""
    algebra = cost_chain(4)
    verdict = decide_exact(parse_formula("[(a0;a1)+]p0 -> [a0;a1;a0;a1]p0", algebra), algebra)
    assert verdict.valid
    assert (verdict.types.shape[1], verdict.rounds) == (6400, 3)


def test_budget_frontier_names_the_types_and_the_round():
    algebra = cost_chain(3)
    formula = parse_formula("[a0](p0 & p1) <-> ([a0]p0 & [a0]p1)", algebra)
    # the closure's first three base coordinates ask for 27 types of 3 cells: more than 30
    with pytest.raises(BudgetExceeded) as exc:
        decide_exact(formula, algebra, budget=30)
    assert exc.value.frontier == {"types": 27, "round": 0}
    assert exc.value.models_evaluated == 0
    # growing budgets give up later, then decide: never before a smaller budget did
    rounds = []
    for budget in range(1, 20000, 53):
        try:
            verdict = decide_exact(formula, algebra, budget=budget)
        except BudgetExceeded as cut:
            rounds.append(cut.frontier["round"])
        else:
            rounds.append("decided")
            assert verdict.valid and verdict.rounds == 2
    assert [r for r in rounds if r != "decided"] == sorted(r for r in rounds if r != "decided")
    assert rounds.index("decided") == len(rounds) - rounds[::-1].count("decided")
    assert set(rounds) == {0, 1, 2, "decided"}


def test_a_fresh_process_decides_without_importing_masked_arrays():
    """numpy.ma, which a plain np.unique imports on first use, costs tens of ms in each
    fresh process, as every `fl-pdl decide` is; exact attempts, valid and refuted, and
    settled sampling import nothing past flpdl's own imports."""
    script = """if True:
        import sys
        from flpdl.algebra import bool2, cost_chain
        from flpdl.decision import decide_bounded
        from flpdl.parser import parse_formula
        before = set(sys.modules)
        for A, src, mode in ((bool2(), "p0 -> [a0]p0", "exhaustive"),
                             (cost_chain(3), "[a0+]p0 <-> [a0](p0 & [a0+]p0)", "exhaustive"),
                             (cost_chain(3), "[a0 u a1]p0 <-> ([a0]p0 & [a1]p0)", "sample")):
            decide_bounded(parse_formula(src, A), A, 2, budget=3000, mode=mode)
        print(sorted(set(sys.modules) - before))
    """
    env = dict(os.environ, PYTHONPATH=str(Path(flpdl.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip() == "[]"


def test_deep_formula_is_decided_without_recursion():
    algebra = bool2()
    premise = Var(0)
    for _ in range(2999):
        premise = And(premise, Var(0))
    action = Atom(0)
    for _ in range(2999):
        action = Choice(action, Atom(0))
    assert not decide_exact(RDiv(premise, Box(Atom(0), Var(0))), algebra).valid
    assert decide_exact(RDiv(Box(action, Var(0)), Box(action, Var(0))), algebra).valid


@pytest.mark.parametrize("size, rows", [(2, 16), (3, 50), (17, 40), (256, 9), (3, 1), (3, 0)])
def test_distinct_columns_match_numpy_unique(size, rows):
    """Past 2 ** 62 (50 digits of 3, 40 of 17, 9 of 256) the keys are re-numbered; either
    way the columns, their order and each column's number are np.unique's along axis 1."""
    rng = np.random.default_rng(size * 100 + rows)
    x = rng.integers(0, size, (rows, 3000)).astype(np.min_scalar_type(size - 1))
    x[:, 1500:] = x[:, rng.integers(0, 1500, 1500)]     # every column repeats
    x[:, :300] = x[:, :1]                               # one of them 300 times
    columns, number = np.unique(x, axis=1, return_inverse=True)
    got_columns, got_number = _distinct(x, size)
    assert np.array_equal(got_columns, columns)
    assert np.array_equal(got_number, number.reshape(-1))


def test_argument_validation():
    algebra = bool2()
    with pytest.raises(TypeError):
        decide_exact(Atom(0), algebra)
    with pytest.raises(ValueError):
        decide_exact(Var(0), algebra, budget=0)
