"""Bounded countermodel search: order, counts, outcomes, budgets."""

import collections
import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import give_up, godel_chain
from flpdl import decision, kernel, syntax
from flpdl.algebra import bool2, cost_chain, is_commutative, is_integral
from flpdl.algebra_search import find_non_commutative, find_non_integral, iter_algebras
from flpdl.decision import (CLOSURE_CAP, Countermodel, NoCountermodelUpTo,
                            ValidByExhaustion, decide_bounded, decide_exact,
                            default_budget, theoretical_bound)
from flpdl.errors import BudgetExceeded
from flpdl.generators import random_formula
from flpdl.oracles import reference_values
from flpdl.parser import parse_formula
from flpdl.relations import XRelation
from flpdl.semantics import MAX_STATES, Frame, Model, evaluate
from flpdl.syntax import (And, Atom, Box, Choice, Const, Fuse, LDiv, Or, Plus,
                          RDiv, Seq, Var, action_atoms, variables)


def slow_first_countermodel(formula, algebra, max_states, limit=None):
    """Reference enumerator in the documented candidate order.

    States ascending; per state count, relation matrices vary
    lexicographically row-major with the first atom most significant,
    then valuation rows with the first variable most significant and
    state 0 the most significant digit. Returns (model, state, value,
    candidates seen including the hit) or (None, count), stopping after
    `limit` candidates if one is given. Candidates are judged by the
    reference evaluator, which shares no code with the kernel that
    decide_bounded runs.
    """
    atoms = sorted(action_atoms(formula))
    vars_ = sorted(variables(formula))
    seen = 0
    for n in range(1, max_states + 1):
        elements = range(algebra.size)
        for rel_digits in itertools.product(elements, repeat=len(atoms) * n * n):
            for val_digits in itertools.product(elements, repeat=len(vars_) * n):
                if seen == limit:
                    return None, seen
                seen += 1
                rels = {a: XRelation.from_rows(algebra, [
                    list(rel_digits[(i * n + s) * n:(i * n + s + 1) * n]) for s in range(n)])
                    for i, a in enumerate(atoms)}
                vals = {v: val_digits[i * n:(i + 1) * n] for i, v in enumerate(vars_)}
                m = Model(Frame(algebra, n, rels), vals)
                for state, value in enumerate(reference_values(m, formula)):
                    if not algebra.leq(algebra.one, value):
                        return m, state, value, seen
    return None, seen


def swapped(n, atoms, i, j):
    """Position p of the frame with states i and j swapped holds the digit at image[p]:
    digits are (atom, row, column), most significant first."""
    cells = list(itertools.product(range(atoms), range(n), range(n)))
    tau = {i: j, j: i}
    return [cells.index((a, tau.get(s, s), tau.get(t, t))) for a, s, t in cells]


def least_frame(frame, n, atoms):
    """Whether no swap of two states maps the frame with these digits to a smaller frame
    index, comparing digit tuples, one frame at a time."""
    return all(tuple(frame) <= tuple(frame[q] for q in swapped(n, atoms, i, j))
               for i, j in itertools.combinations(range(n), 2))


def evaluated_below(size, atoms, vars_, limit):
    """Candidates among the first `limit` in canonical order whose frame no swap of two
    states maps to a smaller frame index: the count decide_bounded reports as
    `models_evaluated`, read off the frame digits one frame at a time."""
    count = seen = 0
    for n in itertools.count(1):
        images = [swapped(n, atoms, i, j) for i, j in itertools.combinations(range(n), 2)]
        width = size ** (vars_ * n)
        for frame in itertools.product(range(size), repeat=atoms * n * n):
            least = all(frame <= tuple(frame[q] for q in image) for image in images)
            take = min(width, limit - seen)
            seen, count = seen + take, count + take * least
            if seen == limit:
                return count


def test_pinned_first_countermodel(B):
    f = parse_formula("p -> [a]p", B)
    out = decide_bounded(f, B, 2)
    assert isinstance(out, Countermodel)
    assert out.models_checked == 14
    assert out.witness_state == 1
    assert out.value == 0
    assert out.model.frame.atomic[0].values == ((0, 0), (1, 0))
    assert out.model.var_row(0) == (0, 1)
    # the witness really refutes under the plain evaluator
    assert evaluate(out.model, f, out.witness_state) == 0


def test_matches_reference_enumeration_order(B, scan_only):
    f = parse_formula("p -> [a]p", B)
    m, state, value, seen = slow_first_countermodel(f, B, 2)
    out = decide_bounded(f, B, 2)
    assert (seen, state, value) == (out.models_checked, out.witness_state, out.value)
    assert m.frame.atomic[0].values == out.model.frame.atomic[0].values
    assert m.var_row(0) == out.model.var_row(0)


@pytest.mark.parametrize("text,uri,max_states", [
    ("[a0]p0 -> p0", "builtin:bool2", 2),
    ("p0 -> (p1 -> p0)", "builtin:cost:3", 1),
    ("[a0](p0 & p1) -> [a0]p1", "builtin:bool2", 2),
    ("p0 * p0 -> p0", "builtin:cost:3", 1),
    ("<a0>p0 -> [a0]p0", "builtin:bool2", 2),
    ("!(!p1 & <a0>(p1 & p0) & <a0>(p1 & !p0))", "builtin:bool2", 3),
])
def test_agrees_with_reference_on_varied_formulas(builtins, text, uri, max_states, scan_only):
    algebra = builtins[uri]
    f = parse_formula(text, algebra)
    ref = slow_first_countermodel(f, algebra, max_states)
    out = decide_bounded(f, algebra, max_states)
    if ref[0] is None:
        assert not isinstance(out, Countermodel)
        assert out.models_checked == ref[1]
    else:
        assert isinstance(out, Countermodel)
        assert out.models_checked == ref[3]
        assert out.witness_state == ref[1]
        assert out.value == ref[2]


def test_valid_by_exhaustion_for_designated_constant(B):
    f = parse_formula("#one", B)
    assert theoretical_bound(f, B) == 2
    out = decide_bounded(f, B, 2)
    assert isinstance(out, ValidByExhaustion)
    assert out.bound == 2
    assert out.models_checked == 2
    below = decide_bounded(f, B, 1)
    assert isinstance(below, NoCountermodelUpTo)
    assert below.max_states == 1 and below.exhaustive


def test_exhaustive_search_stops_at_the_class_count_bound(B, scan_only):
    """Every frame up to the bound (4) proves validity; max_states past it adds nothing."""
    f = parse_formula("[a0]#one", B)
    want = ValidByExhaustion(bound=4, models_checked=66066, models_evaluated=3973)
    assert decide_bounded(f, B, 4) == want
    assert decide_bounded(f, B, 5) == want


def test_hit_on_a_deep_formula_built_in_code_is_verified(B):
    """The reference check of a hit on a 3,000-conjunct premise does not recurse."""
    premise = Var(0)
    for _ in range(2999):
        premise = And(premise, Var(0))
    deep = decide_bounded(RDiv(premise, Box(Atom(0), Var(0))), B, 2)
    shallow = decide_bounded(parse_formula("p0 -> [a0]p0", B), B, 2)
    for out in (deep, shallow):
        assert isinstance(out, Countermodel)
        assert (out.models_checked, out.witness_state, out.value) == (14, 1, 0)
        assert out.model.frame.atomic[0].values == ((0, 0), (1, 0))
        assert out.model.var_row(0) == (0, 1)


def test_search_under_nested_plus_enumerates_only_the_closure_it_needs(B, monkeypatch):
    """[a0 + 40 x '+']p0 has 2 ** 41 closure formulas; one state needs size ** 1 > 1 of them,
    the class-count bound at most CLOSURE_CAP + 1, and a scan over one element at most
    max_states.bit_length() + 1."""
    taken = []

    def counted(formulas):
        for f in syntax.iter_closure(formulas):
            taken.append(f)
            yield f

    monkeypatch.setattr(decision, "iter_closure", counted)
    text = "[a0" + "+" * 40 + "]p0"
    out = decide_bounded(parse_formula(text, B), B, 1, budget=10)
    assert isinstance(out, Countermodel)
    assert (out.model.frame.size, out.models_checked, out.value) == (1, 3, 0)
    assert 0 < len(taken) < 100
    # the class-count bound stops at CLOSURE_CAP, in the typed error
    taken.clear()
    with pytest.raises(BudgetExceeded) as raised:
        theoretical_bound(parse_formula(text, B), B)
    assert raised.value.frontier == {"closure": CLOSURE_CAP + 1}
    assert 0 < len(taken) <= CLOSURE_CAP + 1
    # over one element the bound is 1 at any closure size, and the scan counts the closure
    # only to max_states.bit_length() formulas
    C1 = cost_chain(1)
    for max_states in (1, 3, 1000):
        taken.clear()
        out = decide_bounded(parse_formula(text, C1), C1, max_states, budget=10)
        assert out == ValidByExhaustion(bound=1, models_checked=1, models_evaluated=1)
        assert 0 < len(taken) <= max_states.bit_length() + 1


def test_decide_bounded_refuses_an_action_before_searching(B, monkeypatch):
    def no_plan(*args):
        raise AssertionError("an action was compiled as a formula")

    monkeypatch.setattr(kernel, "plan", no_plan)
    with pytest.raises(TypeError, match="not a formula: Atom"):
        decide_bounded(Atom(0), B, 2)


def test_theoretical_bound_pins(B):
    assert theoretical_bound(parse_formula("p -> [a]p", B), B) == 8
    assert theoretical_bound(parse_formula("[a](p & p1) -> [a]p", B), B) == 64


def test_candidate_count_pins(B, C3, scan_only):
    out = decide_bounded(parse_formula("[a](p & p1) -> [a]p", B), B, 2)
    assert isinstance(out, NoCountermodelUpTo)
    assert out.models_checked == 264  # 2^3 + 2^8
    out = decide_bounded(parse_formula("[a0+]p <-> [a0](p & [a0+]p)", C3), C3, 2)
    assert isinstance(out, NoCountermodelUpTo)
    assert out.models_checked == 738  # 3^2 + 3^6


def test_budget_exhaustion_frontier(B):
    f = parse_formula("p -> [a]p", B)
    with pytest.raises(BudgetExceeded) as exc:
        decide_bounded(f, B, 2, budget=1)
    assert exc.value.frontier == {
        "states": 1, "next_index": 1, "models_checked": 1, "max_states": 2}


def test_budget_counts_before_the_hit_do_not_raise(B):
    # hit at candidate 14 fits a budget of exactly 14
    f = parse_formula("p -> [a]p", B)
    out = decide_bounded(f, B, 2, budget=14)
    assert isinstance(out, Countermodel)
    with pytest.raises(BudgetExceeded):
        decide_bounded(f, B, 2, budget=13)


def test_budget_frontier_mid_space(C3, scan_only):
    f = parse_formula("[a0](p0 & p1) <-> ([a0]p0 & [a0]p1)", C3)
    with pytest.raises(BudgetExceeded) as exc:
        decide_bounded(f, C3, 3, budget=1000)
    frontier = exc.value.frontier
    assert frontier["models_checked"] == 1000
    assert frontier["states"] == 2
    assert frontier["max_states"] == 3


def test_sample_mode_is_deterministic(B):
    f = parse_formula("p -> [a]p", B)
    a = decide_bounded(f, B, 2, budget=200, mode="sample", seed=7)
    b = decide_bounded(f, B, 2, budget=200, mode="sample", seed=7)
    assert isinstance(a, Countermodel) and isinstance(b, Countermodel)
    assert a.model.frame.atomic[0].values == b.model.frame.atomic[0].values
    assert a.model.var_row(0) == b.model.var_row(0)
    assert a.models_checked == b.models_checked


def test_sample_mode_caps_at_budget(C3, scan_only):
    f = parse_formula("p0 -> p0", C3)
    out = decide_bounded(f, C3, 3, budget=500, mode="sample", seed=1)
    assert isinstance(out, NoCountermodelUpTo)
    assert not out.exhaustive
    assert out.models_checked == 500


def test_sample_hits_are_real_countermodels(C3):
    f = parse_formula("p0 -> [a0]p0", C3)
    out = decide_bounded(f, C3, 3, budget=400, mode="sample", seed=3)
    assert isinstance(out, Countermodel)
    assert evaluate(out.model, f, out.witness_state) == out.value
    assert not C3.leq(C3.one, out.value)



# outcomes of seeded 20,000-candidate sample searches, as sampling drew and reported them
# when it evaluated every group as it was drawn: (models checked, models evaluated,
# witness state, value, relation matrices, valuation rows). At 4 states a block's groups
# are now evaluated largest first, at 5 still as drawn.
SAMPLED = [
    ("bool2", "(p0 & p1 & p2 & p3 & p4 & p5 & p6) -> [a0](p0 | p1 | p2)", 4, 11,
     (762, 762, 2, 0, {0: [[0, 0, 0, 1], [0, 0, 1, 0], [1, 1, 1, 1], [0, 0, 1, 1]]},
      {0: [0, 0, 1, 1], 1: [0, 0, 1, 0], 2: [0, 1, 1, 0], 3: [1, 0, 1, 0], 4: [1, 1, 1, 1],
       5: [1, 0, 1, 1], 6: [0, 0, 1, 1]})),
    ("bool2", "(p0 & p1 & p2 & p3 & p4 & p5 & p6) -> [a0 ; a1](p0 | p1 | p2)", 5, 3,
     (168, 168, 1, 0, {0: [[0, 0, 0, 1, 1], [1, 0, 1, 1, 1], [1, 0, 0, 1, 0], [1, 1, 1, 0, 1],
                           [0, 1, 0, 0, 0]],
                       1: [[0, 0, 0, 1, 0], [0, 0, 1, 0, 1], [1, 0, 0, 0, 1], [0, 1, 1, 1, 1],
                           [1, 1, 1, 1, 0]]},
      {0: [1, 1, 0, 0, 1], 1: [0, 1, 1, 0, 0], 2: [1, 1, 0, 0, 1], 3: [0, 1, 1, 1, 1],
       4: [0, 1, 1, 1, 1], 5: [1, 1, 0, 0, 1], 6: [1, 1, 1, 0, 1]})),
    ("cost:3", "(p0 & p1 & p2 & p3 & p4) -> [a0](p0 | p1 | p2)", 5, 5,
     (32, 32, 4, 1, {0: [[1, 0, 2, 0, 0], [1, 1, 0, 2, 0], [0, 0, 1, 0, 1], [0, 0, 2, 1, 2],
                         [0, 1, 1, 2, 1]]},
      {0: [2, 2, 0, 1, 0], 1: [2, 0, 1, 2, 0], 2: [2, 2, 2, 2, 0], 3: [0, 2, 1, 1, 0],
       4: [0, 1, 1, 2, 1]})),
    ("cost:3", "[a0 u a1]p0 <-> ([a0]p0 & [a1]p0)", 4, 2,
     NoCountermodelUpTo(max_states=4, models_checked=20000, models_evaluated=20000,
                        exhaustive=False)),
]


@pytest.mark.parametrize("key, text, max_states, seed, want", SAMPLED,
                         ids=["bool2-box", "bool2-seq", "cost3-box", "cost3-choice"])
def test_sampled_outcomes_are_pinned(key, text, max_states, seed, want, scan_only):
    algebra = {"bool2": bool2(), "cost:3": cost_chain(3)}[key]
    out = decide_bounded(parse_formula(text, algebra), algebra, max_states, budget=20000,
                         mode="sample", seed=seed)
    if isinstance(out, Countermodel):
        m = out.model
        out = (out.models_checked, out.models_evaluated, out.witness_state, out.value,
               {a: r.matrix.tolist() for a, r in sorted(m.frame.atomic.items())},
               {p: list(row) for p, row in sorted(m.valuation.items())})
    assert out == want


def test_sample_groups_share_the_first_groups_workspace(C3, monkeypatch):
    """One block's state-count groups all evaluate in the buffers of the first one run."""
    give_up(monkeypatch)    # the formula is valid: settled, it would draw nothing
    roots = []
    run = kernel.Plan.run

    def recording(self, *args):
        out = run(self, *args)
        roots.append(out[0])
        return out

    monkeypatch.setattr(kernel.Plan, "run", recording)
    f = parse_formula("[a0 u a1]p0 <-> ([a0]p0 & [a1]p0)", C3)
    out = decide_bounded(f, C3, 4, budget=2000, mode="sample", seed=2)
    assert isinstance(out, NoCountermodelUpTo)
    assert len(roots) == 4
    assert all(np.shares_memory(root, roots[0]) for root in roots[1:])


def test_sample_block_holds_one_group_at_a_time(C3, monkeypatch):
    """At 64 states a block draws and evaluates each state-count group before the next.

    Held together, one block's relation draws would come to about 19 times
    its largest group's, too many to keep for evaluating the largest first;
    one group at a time, the block's traced peak stays a few of the largest
    group's relations.
    """
    budget, max_states, seed = 2000, 64, 2
    ns = np.random.default_rng(seed).integers(1, max_states + 1, size=budget)
    states, members = np.unique(ns, return_counts=True)
    largest = int((states * states * members).max()) * 8    # bytes of one atom's draws
    bound = 12 * largest
    assert 2 * int((states * states * members).sum()) * 8 > bound  # both atoms, every group
    f = parse_formula("[a0 u a1]p0 <-> ([a0]p0 & [a1]p0)", C3)
    give_up(monkeypatch)    # the formula is valid: settled, it would draw nothing
    tracemalloc.start()
    try:
        out = decide_bounded(f, C3, max_states, budget=budget, mode="sample", seed=seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(out, NoCountermodelUpTo)
    assert peak < bound


def test_sample_mode_caps_the_state_count(B):
    f = parse_formula("[a0]p0", B)
    with pytest.raises(ValueError, match=f"at most {MAX_STATES} states"):
        decide_bounded(f, B, MAX_STATES + 1, budget=1, mode="sample")
    assert isinstance(decide_bounded(f, B, MAX_STATES, budget=1, mode="sample"), Countermodel)
    # exhaustive mode reaches only the state counts its budget allows
    with pytest.raises(BudgetExceeded) as exc:
        decide_bounded(f, B, 10 ** 9, budget=1)
    assert exc.value.frontier["states"] == 1


def test_argument_validation(B):
    f = parse_formula("p0", B)
    with pytest.raises(ValueError):
        decide_bounded(f, B, 0)
    with pytest.raises(ValueError):
        decide_bounded(f, B, 2, mode="guess")
    with pytest.raises(ValueError):
        decide_bounded(f, B, 2, budget=0)


def test_default_budget_env(monkeypatch):
    monkeypatch.delenv("FLPDL_BUDGET", raising=False)
    assert default_budget() == 10 ** 6
    monkeypatch.setenv("FLPDL_BUDGET", "1234")
    assert default_budget() == 1234
    monkeypatch.setenv("FLPDL_BUDGET", "zero")
    with pytest.raises(ValueError):
        default_budget()


def test_default_budget_fallback_yields_to_the_environment(monkeypatch):
    monkeypatch.delenv("FLPDL_BUDGET", raising=False)
    assert default_budget(10 ** 7) == 10 ** 7
    monkeypatch.setenv("FLPDL_BUDGET", "1234")
    assert default_budget(10 ** 7) == 1234


def test_formula_without_atoms_or_vars(C3):
    f = parse_formula("#1 -> #1", C3)
    out = decide_bounded(f, C3, 3)
    # one candidate per state count: the empty model
    assert isinstance(out, (NoCountermodelUpTo, ValidByExhaustion))
    assert out.models_checked == 3


def test_invalid_constant_refuted_immediately(C3):
    f = parse_formula("#2", C3)
    out = decide_bounded(f, C3, 2)
    assert isinstance(out, Countermodel)
    assert out.models_checked == 1
    assert out.model.frame.size == 1


def test_budget_cut_frontier_counts_pruned_frames(C3):
    # candidates are counted at their canonical positions, pruned frames
    # included, so the frontier is that of a scan of every candidate
    f = parse_formula("[a0;a1]p0 <-> [a0][a1]p0", C3)
    with pytest.raises(BudgetExceeded) as exc:
        decide_bounded(f, C3, 3, budget=10 ** 5)
    assert exc.value.frontier == {
        "states": 3, "next_index": 40924, "models_checked": 10 ** 5, "max_states": 3}
    assert exc.value.models_evaluated == 57718
    assert exc.value.models_evaluated < exc.value.frontier["models_checked"]


@pytest.mark.parametrize("algebra, src, next_index, evaluated", [
    (bool2(), "[a0 u a1]p0 <-> ([a0]p0 & [a1]p0)", 998968, 324360),
    (bool2(), "[a0 ; a1]p0 <-> [a0][a1]p0", 998968, 324360),
    (cost_chain(3), "[a0](p0 & p1) <-> ([a0]p0 & [a0]p1)", 993412, 686530),
    (cost_chain(3), "[a0 u a1]p0 <-> ([a0]p0 & [a1]p0)", 940924, 382833),
    (cost_chain(3), "[a0 ; a1]p0 <-> [a0][a1]p0", 940924, 382833)],
    ids=["bool2-choice", "bool2-seq", "cost3-and", "cost3-choice", "cost3-seq"])
def test_budget_cut_axiom_instances_are_pinned(algebra, src, next_index, evaluated):
    """The selftest's five axiom instances that run out of 10 ** 6 candidates at 3 states,
    each through grouped box (and compose) tables: where the scan stops and how many of
    its candidates the kernel evaluated."""
    with pytest.raises(BudgetExceeded) as exc:
        decide_bounded(parse_formula(src, algebra), algebra, 3, budget=10 ** 6)
    assert exc.value.frontier == {"states": 3, "next_index": next_index,
                                  "models_checked": 10 ** 6, "max_states": 3}
    assert exc.value.models_evaluated == evaluated


@pytest.mark.parametrize("chunk", [-1, 0, 1, "3w+1"], ids=["w-1", "w", "w+1", "3w+1"])
def test_budget_cuts_frames_at_every_block_boundary(B, monkeypatch, chunk):
    # at two states: 16 frames of 16 valuations each. Blocks of one run of 15, of one frame,
    # one frame again (16 < 17 < 2 frames) and three frames; every budget ends some block
    # inside a frame, at its start or on a later frame of the block
    f = parse_formula("[a0](p0 & p1) <-> ([a0]p0 & [a0]p1)", B)
    width = 2 ** 4
    monkeypatch.setattr(decision, "_CHUNK", 3 * width + 1 if chunk == "3w+1" else width + chunk)
    totals = [2 ** 1 * 2 ** 2, 2 ** 4 * width]     # candidates at one and at two states
    for budget in range(1, sum(totals) + 1):
        want = evaluated_below(B.size, 1, 2, budget)
        if budget == sum(totals):
            out = decide_bounded(f, B, 2, budget=budget)
            assert out == NoCountermodelUpTo(2, budget, want, exhaustive=True)
            continue
        with pytest.raises(BudgetExceeded) as exc:
            decide_bounded(f, B, 2, budget=budget)
        states = 1 if budget < totals[0] else 2
        assert exc.value.frontier == {"states": states, "models_checked": budget, "max_states": 2,
                                      "next_index": budget - sum(totals[:states - 1])}, budget
        assert exc.value.models_evaluated == want, budget


def test_models_evaluated_counts_surviving_frames(B):
    # one atom, one variable: 4 + 64 candidates. At two states there are 16
    # frames of 4 valuations; the swap fixes the 4 with r00 = r11 and r01 = r10
    # and pairs off the other 12, skipping the larger frame of each pair
    out = decide_bounded(parse_formula("[a0]p0 -> [a0]p0", B), B, 2)
    assert isinstance(out, NoCountermodelUpTo)
    assert (out.models_checked, out.models_evaluated) == (68, 4 + 10 * 4)
    hit = decide_bounded(parse_formula("p -> [a]p", B), B, 2)
    assert hit.models_evaluated <= hit.models_checked == 14


# -- the pruned search against the reference enumeration ----------------------

@functools.cache
def _search_algebras():
    return bool2(), cost_chain(3), find_non_commutative(), find_non_integral()


actions = st.recursive(
    st.builds(Atom, st.integers(0, 1)),
    lambda inner: st.one_of(st.builds(Choice, inner, inner), st.builds(Seq, inner, inner),
                            st.builds(Plus, inner)),
    max_leaves=3)


def formulas(size):
    """Random formulas, half of them shaped to hold on every one-state model
    more often: g -> [A]g and [A]g -> [B]g."""
    leaves = st.one_of(st.builds(Var, st.integers(0, 1)),
                       st.builds(Const, st.integers(0, size - 1)))
    any_ = st.recursive(leaves, lambda inner: st.one_of(
        [st.builds(cls, inner, inner) for cls in (And, Or, Fuse, LDiv, RDiv)]
        + [st.builds(Box, actions, inner)]), max_leaves=5)
    small = st.recursive(leaves, lambda inner: st.one_of(
        [st.builds(cls, inner, inner) for cls in (And, Or, Fuse)]), max_leaves=3)
    shaped = st.one_of(
        st.builds(lambda g, a: RDiv(g, Box(a, g)), small, actions),
        st.builds(lambda g, a, b: RDiv(Box(a, g), Box(b, g)), small, actions, actions))
    return st.one_of(any_, shaped)


def permuted(model, perm):
    """The model with state s renamed perm[s], relations and valuation alike."""
    n = model.frame.size
    rels = {a: XRelation.from_rows(model.algebra, [
        [r.values[perm.index(s)][perm.index(t)] for t in range(n)] for s in range(n)])
        for a, r in model.frame.atomic.items()}
    vals = {p: tuple(row[perm.index(s)] for s in range(n))
            for p, row in model.valuation.items()}
    return Model(Frame(model.algebra, n, rels), vals)


def assert_orbit_refuted(out, formula):
    """Every renaming of the states refutes the formula at the renamed witness."""
    A = out.model.algebra
    assert not A.leq(A.one, out.value)
    for perm in itertools.permutations(range(out.model.frame.size)):
        values = reference_values(permuted(out.model, list(perm)), formula)
        assert values[perm[out.witness_state]] == out.value


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_pruned_search_matches_reference_enumeration(data):
    # pruning acts from two states on, so every search here reaches them
    algebra = data.draw(st.sampled_from(_search_algebras()))
    f = data.draw(formulas(algebra.size))
    max_states = data.draw(st.integers(2, 3))
    limit = 1500
    ref = slow_first_countermodel(f, algebra, max_states, limit)
    try:
        with pytest.MonkeyPatch.context() as patch:
            give_up(patch)
            out = decide_bounded(f, algebra, max_states, budget=limit)
    except BudgetExceeded as exc:
        assert ref == (None, limit)
        assert exc.frontier["models_checked"] == limit
        assert exc.models_evaluated == evaluated_below(
            algebra.size, len(action_atoms(f)), len(variables(f)), limit)
        return
    assert out.models_evaluated <= out.models_checked
    if ref[0] is None:
        assert not isinstance(out, Countermodel)
        assert out.models_checked == ref[1]
        return
    model, state, value, seen = ref
    assert isinstance(out, Countermodel)
    assert (out.models_checked, out.witness_state, out.value) == (seen, state, value)
    assert out.model.frame.size == model.frame.size
    assert ({a: r.values for a, r in out.model.frame.atomic.items()}
            == {a: r.values for a, r in model.frame.atomic.items()})
    assert out.model.valuation == model.valuation
    assert_orbit_refuted(out, f)


@pytest.mark.parametrize("algebra", _search_algebras(), ids=["bool2", "cost:3", "nc", "ni"])
@pytest.mark.parametrize("text", [
    "p0 -> [a0]p0", "[a0]p0 -> [a0][a0]p0", "[a0]p0 -> [a0+]p0",
    "[a0;a1]p0 -> [a1;a0]p0",
    # three states over bool2 and the non-integral algebra: a root and two successors
    "!(!p1 & <a0>(p1 & p0) & <a0>(p1 & !p0))"])
def test_countermodels_are_refuted_under_every_renaming_of_states(algebra, text):
    f = parse_formula(text, algebra)
    out = decide_bounded(f, algebra, 3)
    assert isinstance(out, Countermodel)
    assert_orbit_refuted(out, f)


# -- pruning as one integer product, over one word of digits or several ---------

# (size, states, atoms, words): size ** g <= 2 ** 61 fixes g digits a word
_WORDS = [(3, 3, 2, 1), (2, 4, 1, 1), (17, 3, 2, 2), (256, 2, 2, 2), (257, 3, 1, 2),
          (2 ** 20, 2, 2, 3)]


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_least_frames_matches_the_digit_by_digit_reference(data):
    size, n, atoms, words = data.draw(st.sampled_from(_WORDS), label="case")
    cells, pairs = atoms * n * n, list(itertools.combinations(range(n), 2))
    weights = decision._swaps(n, atoms, size)
    assert weights.shape == (words, len(pairs), cells)
    # digits at both ends of the range, so frame indices near the top of it too
    digit = st.one_of(st.integers(0, size - 1), st.sampled_from([0, 1, size - 2, size - 1]))
    frames = data.draw(st.lists(st.lists(digit, min_size=cells, max_size=cells),
                                min_size=1, max_size=30), label="frames")
    frames += [[0] * cells, [size - 1] * cells]
    # ties: a frame that one swap fixes, then one digit changed, so that a later digit
    # (for some cases a later word) decides
    for frame in list(frames):
        pair = data.draw(st.sampled_from(pairs), label="swap")
        tied = list(frame)
        for p, q in enumerate(swapped(n, atoms, *pair)):
            if q > p:
                tied[q] = tied[p]
        frames.append(tied)
        changed = list(tied)
        changed[data.draw(st.integers(0, cells - 1), label="cell")] = data.draw(digit)
        frames.append(changed)
    rows = np.array(frames, dtype=np.int64).T
    assert decision._least_frames(rows, weights).tolist() == [
        least_frame(frame, n, atoms) for frame in frames]


def test_search_prunes_with_weights_of_two_words():
    # the Gödel chain of 256 with two atoms: 65,536 frames at one state, then 256 ** 8 =
    # 2 ** 64 at two, weighed in two words; the budget ends 3,000 frames into them
    algebra = godel_chain(256)
    assert decision._swaps(2, 2, 256).shape[0] == 2
    f = parse_formula("[a0;a1]#255 & [a1 u a0]#255", algebra)    # one is the top
    budget = 256 ** 2 + 3000
    with pytest.raises(BudgetExceeded) as exc:
        decide_bounded(f, algebra, 2, budget=budget)
    assert exc.value.frontier == {"states": 2, "next_index": 3000, "models_checked": budget,
                                  "max_states": 2}
    assert exc.value.models_evaluated == evaluated_below(256, 2, 0, budget)


def test_search_over_seventeen_elements_counts_every_surviving_frame():
    # 17 elements: flat indices in uint16 beside uint8 slots. 289 candidates at one state,
    # then frames of 289 valuations each, cut by the budget
    algebra = godel_chain(17)
    assert kernel._narrow(algebra)["index"] == np.uint16
    f = parse_formula("[a0](p0 & #16) -> ([a0;a0]p0 | [a0]p0)", algebra)
    budget = 10 ** 5
    with pytest.raises(BudgetExceeded) as exc:
        decide_bounded(f, algebra, 2, budget=budget)
    assert exc.value.frontier == {"states": 2, "next_index": budget - 289,
                                  "models_checked": budget, "max_states": 2}
    assert exc.value.models_evaluated == evaluated_below(17, 1, 1, budget)


# -- the exact verdict first: outcomes as without it ---------------------------

AXIOMS = ("[a0]#one", "[a0](p0 & p1) <-> ([a0]p0 & [a0]p1)", "[a0](#1 -> p0) <-> (#1 -> [a0]p0)",
          "[a0 u a1]p0 <-> ([a0]p0 & [a1]p0)", "[a0 ; a1]p0 <-> [a0][a1]p0",
          "[a0+]p0 <-> [a0](p0 & [a0+]p0)")


def outcome(formula, algebra, max_states, **kwargs):
    """decide_bounded's outcome, or its BudgetExceeded, in plain values: the countermodel as
    its relation matrices and valuation rows."""
    try:
        out = decide_bounded(formula, algebra, max_states, **kwargs)
    except BudgetExceeded as exc:
        return "budget", exc.frontier, exc.models_evaluated
    if isinstance(out, Countermodel):
        m = out.model
        return (out.models_checked, out.models_evaluated, out.witness_state, out.value,
                {a: r.values for a, r in m.frame.atomic.items()}, m.valuation)
    return out


def assert_same_without_the_attempt(monkeypatch, cases):
    """Each case's outcome with the exact attempt equals its outcome with the attempt
    giving up; returns, per case, whether the attempt settled it as valid."""
    settled = []
    for formula, algebra, max_states, kwargs in cases:
        with monkeypatch.context() as m:
            give_up(m)
            scanned = outcome(formula, algebra, max_states, **kwargs)
        assert outcome(formula, algebra, max_states, **kwargs) == scanned, (formula, kwargs)
        try:
            settled.append(decision.decide_exact(formula, algebra, kwargs["budget"]).valid)
        except BudgetExceeded:
            settled.append(False)
    return settled


def test_axiom_instances_scan_alike_settled_or_not(B, C3, monkeypatch):
    """Budgets cut at one state, mid-block and mid-frame at two and three states, and at
    the 10 ** 6 of the selftest; settled instances count every candidate as the scan does."""
    budgets = (7, 777, 12345, 98765, 10 ** 6)
    cases = [(parse_formula(src, A), A, 3, {"budget": budget})
             for A in (B, C3) for src in AXIOMS for budget in budgets]
    settled = assert_same_without_the_attempt(monkeypatch, cases)
    # 7 units run out before the closure is made; from 12,345 on every instance settles
    per_budget = [settled[i::len(budgets)] for i in range(len(budgets))]
    assert not any(per_budget[0]) and all(map(all, per_budget[2:]))


def test_random_formulas_scan_alike_settled_or_not(monkeypatch):
    rng = random.Random(33)
    algebras = list(iter_algebras())
    cases = []
    for i in range(120):
        A = algebras[i % len(algebras)]
        formula = random_formula(rng, A, rng.randrange(1, 4))
        cases.append((formula, A, 2, {"budget": rng.choice([50, 3000, 2 * 10 ** 4])}))
    assert sum(assert_same_without_the_attempt(monkeypatch, cases)) > 10


def test_sampling_reports_alike_settled_or_not(B, C3, monkeypatch):
    rng = random.Random(34)
    cases = [(parse_formula(src, A), A, 4, {"budget": 1500, "mode": "sample", "seed": seed})
             for A in (B, C3) for src in AXIOMS + ("p0 -> [a0]p0", "[a0+]p0 -> [a0]p0")
             for seed in (rng.randrange(10 ** 6),)]
    cases += [(random_formula(rng, A, 2), A, 3, {"budget": 500, "mode": "sample", "seed": i})
              for i, A in enumerate([B, C3] * 10)]
    assert sum(assert_same_without_the_attempt(monkeypatch, cases)) >= 2 * len(AXIOMS)


# -- the axiom atlas: each scheme's generic instance over every catalog algebra ---

_SCHEMES = {
    "A-1": "[a0]#one",
    "A-reg": "[a0](p0 & p1) <-> ([a0]p0 & [a0]p1)",
    "A-choice": "[a0 u a1]p0 <-> ([a0]p0 & [a1]p0)",
    "A-seq": "[a0 ; a1]p0 <-> [a0][a1]p0",
    "A-plus": "[a0+]p0 <-> [a0](p0 & [a0+]p0)",
}


@functools.cache
def _atlas():
    """Per catalog algebra, per cell, (verdict, search): each scheme's generic instance (fresh
    atoms and variables; validity is closed under uniform substitution), A-const once per
    constant. The search runs at <= 2 states within 2 * 10**5 candidates, with every
    exact attempt given up so that it evaluates them, and a countermodel
    is checked by the reference evaluator before it counts; `decide_exact` decides every cell.
    The verdict is "refuted" where both refute, "valid" where neither does."""
    rows = []
    for algebra in iter_algebras():
        cells = dict(_SCHEMES, **{f"A-const #{c}": f"[a0](#{c} -> p0) <-> (#{c} -> [a0]p0)"
                                  for c in range(algebra.size)})
        row = {}
        for cell, src in cells.items():
            formula = parse_formula(src, algebra)
            valid = decide_exact(formula, algebra).valid
            try:
                with pytest.MonkeyPatch.context() as patch:
                    give_up(patch)     # the search evaluates, whatever the verdict
                    out = decide_bounded(formula, algebra, 2, budget=2 * 10 ** 5)
            except BudgetExceeded:
                out = None
            if isinstance(out, Countermodel):
                value = reference_values(out.model, formula)[out.witness_state]
                assert value == out.value and not algebra.arrays.leq[algebra.one, value]
                verdict = "valid, yet refuted" if valid else "refuted"
            else:
                verdict = "valid" if valid else "invalid, yet not refuted"
            search = ("over the budget" if out is None else "countermodel"
                      if isinstance(out, Countermodel) else "exhausted"
                      if isinstance(out, ValidByExhaustion) else "no countermodel at <= 2 states")
            row[cell] = verdict, search
        rows.append((algebra, row))
    return rows


def _cells(verdict, column=0):
    return {(i, cell.split(" #")[0]) for i, (_, row) in enumerate(_atlas())
            for cell, v in row.items() if v[column] == verdict}


def test_atlas_refutes_a1_on_exactly_the_non_integral_and_aconst_the_non_commutative():
    non_integral = {i for i, (a, _) in enumerate(_atlas()) if not is_integral(a)}
    non_commutative = {i for i, (a, _) in enumerate(_atlas()) if not is_commutative(a)}
    assert (len(non_integral), len(non_commutative)) == (16, 4)
    assert _cells("refuted") == ({(i, "A-1") for i in non_integral}
                                 | {(i, "A-const") for i in non_commutative})


def test_atlas_cells_without_a_refutation():
    # every cell the search does not refute is valid exactly, and every exact refutation is
    # one the search finds; the one-element algebra's cells are also valid by exhaustion
    verdicts = collections.Counter(v for _, row in _atlas() for v, _ in row.values())
    assert verdicts == {"refuted": 24, "valid": 229}
    searches = collections.Counter(s for _, row in _atlas() for _, s in row.values())
    assert searches == {"countermodel": 24, "over the budget": 48, "exhausted": 6,
                        "no countermodel at <= 2 states": 175}
    assert _cells("exhausted", 1) == {(0, scheme) for scheme in [*_SCHEMES, "A-const"]}


def test_atlas_cells_over_the_budget_are_valid_exactly():
    four = {i for i, (a, _) in enumerate(_atlas()) if a.size == 4}
    over = _cells("over the budget", 1)
    assert over == {(i, s) for i in four for s in ("A-choice", "A-seq")}
    assert over <= _cells("valid")
