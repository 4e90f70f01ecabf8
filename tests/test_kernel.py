"""The evaluation kernel against the independent reference evaluator."""

import ast
import functools
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flpdl import kernel, oracles
from flpdl.algebra import FLAlgebra, bool2, cost_chain, product
from flpdl.algebra_search import find_non_commutative, find_non_integral
from flpdl.oracles import reference_values
from flpdl.proofs import _BLOCK, log_consequence
from flpdl.relations import XRelation
from flpdl.semantics import Frame, Model
from flpdl.syntax import (And, Atom, Box, Choice, Const, Fuse, LDiv, Or, Plus,
                          RDiv, Seq, Var, neg)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@functools.cache
def _algebras():
    ordinary = (bool2(), cost_chain(2), cost_chain(3), cost_chain(5),
                product(bool2(), cost_chain(3)), product(cost_chain(2), cost_chain(2)))
    return ordinary, (find_non_commutative(), find_non_integral())


def algebras():
    """Builtins and products half the time, the two searched-for oddities the other half."""
    ordinary, odd = _algebras()
    return st.one_of(st.sampled_from(ordinary), st.sampled_from(odd))


actions = st.recursive(
    st.builds(Atom, st.integers(0, 1)),
    lambda inner: st.one_of(st.builds(Choice, inner, inner), st.builds(Seq, inner, inner),
                            st.builds(Plus, inner)),
    max_leaves=4)


def formulas(size, boxes=True):
    leaves = st.one_of(st.builds(Var, st.integers(0, 2)),
                       st.builds(Const, st.integers(0, size - 1)))

    def extend(inner):
        nodes = [st.builds(cls, inner, inner) for cls in (And, Or, Fuse, LDiv, RDiv)]
        if boxes:
            nodes.append(st.builds(Box, actions, inner))
        return st.one_of(nodes)

    return st.recursive(leaves, extend, max_leaves=8)


@st.composite
def models(draw, algebra, n):
    entry = st.integers(0, algebra.size - 1)
    # atom 1 and variable 2 are sometimes unmapped: bottom relation, zero element
    relations = {a: XRelation.from_rows(algebra, draw(st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
        for a in (0, 1) if a == 0 or draw(st.booleans())}
    valuation = {p: draw(st.lists(entry, min_size=n, max_size=n))
                 for p in (0, 1, 2) if p < 2 or draw(st.booleans())}
    return Model(Frame(algebra, n, relations), valuation)


@PROPERTY
@given(st.data())
def test_kernel_matches_reference_evaluator(data):
    algebra = data.draw(algebras())
    n = data.draw(st.integers(1, 3))
    f = data.draw(formulas(algebra.size))
    batch = data.draw(st.lists(models(algebra, n), min_size=1, max_size=4))
    want = [reference_values(m, f) for m in batch]
    # one model at a time: Model.values is the kernel on a batch of one
    assert [m.values(f) for m in batch] == want
    # all at once, seeded the way decide_bounded seeds its candidate blocks
    relations = {Atom(a): np.stack([m.frame.relation(Atom(a)).matrix for m in batch])
                 for a in (0, 1)}
    memo = {Var(p): np.array([m.var_row(p) for m in batch]) for p in (0, 1, 2)}
    got = kernel.evaluate(f, algebra, memo, relations, len(batch), n)
    assert got.tolist() == [list(row) for row in want]


class _Unlisted(dict):
    """A memo that may be looked up and stored into, but never listed or copied."""

    def _refuse(self, *args):
        raise AssertionError("a memo was listed")

    __iter__ = keys = items = values = _refuse


def test_evaluation_never_lists_or_copies_its_memos():
    algebra, rows = cost_chain(3), [[0, 1], [2, 0]]
    f = Box(Plus(Atom(0)), Var(0))
    memo, relations = _Unlisted({Var(0): np.array([[1, 2]])}), _Unlisted({Atom(0): np.array([rows])})
    got = kernel.evaluate(f, algebra, memo, relations, 1, 2)
    model = Model(Frame(algebra, 2, {0: XRelation.from_rows(algebra, rows)}), {0: (1, 2)})
    assert got.tolist() == [list(reference_values(model, f))]
    assert memo[f] is got and Plus(Atom(0)) in relations


# a box over every kind of action, several variables, a constant and each connective
_REUSED = And(Box(Choice(Seq(Atom(0), Atom(1)), Plus(Atom(0))), RDiv(Var(0), Var(1))),
              Or(Fuse(Box(Atom(1), Var(0)), Const(1)), LDiv(Var(1), Box(Atom(0), Var(0)))))


_FIVE = pytest.mark.parametrize(
    "algebra", [bool2(), cost_chain(3), product(bool2(), cost_chain(3)),
                find_non_commutative(), find_non_integral()],
    ids=["bool2", "cost3", "product", "non-commutative", "non-integral"])


@_FIVE
def test_plan_reuses_its_workspace_across_blocks(algebra):
    """Blocks of new content through one plan, the last one shorter, as decide_bounded runs them."""
    rng = np.random.default_rng(algebra.size)
    n, frames = 3, 5
    atoms, vars_ = (Atom(0), Atom(1)), (Var(0), Var(1))
    plan = kernel.plan((_REUSED,), algebra, set(atoms + vars_).__contains__)
    roots = []
    for batch in (40, 40, 17):
        rels = {a: rng.integers(0, algebra.size, (frames, n, n)) for a in atoms}
        vals = {p: rng.integers(0, algebra.size, (n, batch)) for p in vars_}
        frame_of = rng.integers(0, frames, batch)
        views = plan.bind(n, batch)
        for p in vars_:
            views[plan.inputs[p]][...] = vals[p]
        (root,) = plan.run(rels, frame_of)
        roots.append(root)
        got = root.copy()
        fresh = kernel.plan((_REUSED,), algebra, set(atoms + vars_).__contains__)
        fresh_views = fresh.bind(n, batch)
        for p in vars_:
            fresh_views[fresh.inputs[p]][...] = vals[p]
        assert (fresh.run(rels, frame_of)[0] == got).all()
        for i in (0, batch // 2, batch - 1):
            frame = Frame(algebra, n, {a.index: XRelation(algebra, rels[a][frame_of[i]])
                                       for a in atoms})
            model = Model(frame, {p.index: vals[p][:, i].tolist() for p in vars_})
            assert reference_values(model, _REUSED) == tuple(got[:, i].tolist())
    # every block's root is written into the first block's buffer, not a new one
    assert np.shares_memory(roots[1], roots[0]) and np.shares_memory(roots[2], roots[0])



def _seeded_block(algebra, rng, n, frames, batch):
    """Random atom relations per frame and variable rows per batch member, as decide_bounded seeds them."""
    rels = {Atom(a): rng.integers(0, algebra.size, (frames, n, n)) for a in (0, 1)}
    vals = {Var(p): rng.integers(0, algebra.size, (n, batch)) for p in (0, 1)}
    return rels, vals


def _run(plan, n, rels, vals, frame_of=None):
    batch = len(next(iter(vals.values()))[0])
    views = plan.bind(n, batch)
    for p, v in vals.items():
        views[plan.inputs[p]][...] = v
    return plan.run(rels, frame_of)[0]


def _reference(algebra, n, rels, vals, frame, member):
    model = Model(Frame(algebra, n, {a.index: XRelation(algebra, r[frame]) for a, r in rels.items()}),
                  {p.index: v[:, member].tolist() for p, v in vals.items()})
    return reference_values(model, _REUSED)


def _member_relations(rels, frame_of, i):
    """Member i's relation of each atom as one frame: the only one, frame_of's, or its own."""
    return {a: r[[0 if len(r) == 1 else i if frame_of is None else frame_of[i]]]
            for a, r in rels.items()}


@_FIVE
def test_blocked_box_fold_matches_reference_across_block_boundaries(algebra):
    """Box blocks of 1, 2, 3, 6 and 7 targets over 7 states: short last blocks, odd fold levels."""
    rng = np.random.default_rng(algebra.size + 1)
    n, frames, batch = 7, 3, 6
    frame_of = np.array([0, 0, 1, 2, 2, 1])    # several members share a frame
    atoms, vars_ = (Atom(0), Atom(1)), (Var(0), Var(1))
    one_rels, one_vals = _seeded_block(algebra, rng, n, 1, 1)
    rels, vals = _seeded_block(algebra, rng, n, frames, batch)
    own = rng.integers(0, algebra.size, (batch, n, n))
    # boxes read through frame_of, over 1 frame against 3 in `Seq(Atom(0), Atom(1))`; then
    # without it, over a frame per member against 1 frame
    cases = [(rels, frame_of), ({Atom(0): rels[Atom(0)][:1], Atom(1): rels[Atom(1)]}, frame_of),
             ({Atom(0): own, Atom(1): rels[Atom(1)][:1]}, None)]
    want_one = _reference(algebra, n, one_rels, one_vals, 0, 0)
    want = [[_reference(algebra, n, _member_relations(case, of, i), vals, 0, i)
             for i in range(batch)] for case, of in cases]
    for targets in (1, 2, 3, 6, 7):
        with pytest.MonkeyPatch.context() as patch:
            # batch one, the Model.values path: blocks of `targets` targets of n entries
            patch.setattr(kernel, "_BLOCK", targets * n)
            model = Model(Frame(algebra, n, {a.index: XRelation(algebra, one_rels[a][0])
                                             for a in atoms}),
                          {p.index: one_vals[p][:, 0].tolist() for p in vars_})
            assert model.values(_REUSED) == want_one, targets
            # a batch over shared frames, the decide_bounded path
            patch.setattr(kernel, "_BLOCK", targets * n * batch)
            plan = kernel.plan((_REUSED,), algebra, set(atoms + vars_).__contains__)
            got = [_run(plan, n, case, vals, of).copy() for case, of in cases]
            assert (plan._fold is None) == (targets == 1)
        assert [[tuple(g[:, i].tolist()) for i in range(batch)] for g in got] == want, targets


@_FIVE
def test_box_fold_scratch_is_reused_and_made_only_when_needed(algebra):
    rng = np.random.default_rng(algebra.size + 2)
    n = 5
    atoms, vars_ = (Atom(0), Atom(1)), (Var(0), Var(1))
    plan = kernel.plan((_REUSED,), algebra, set(atoms + vars_).__contains__)
    first = None
    for _ in range(2):
        rels, vals = _seeded_block(algebra, rng, n, 1, 1)
        got = _run(plan, n, rels, vals)
        assert tuple(got[:, 0].tolist()) == _reference(algebra, n, rels, vals, 0, 0)
        first = first or plan._fold
        # the second model's box blocks are folded in the first model's scratch
        assert all(np.shares_memory(buf, old) for buf, old in zip(plan._fold, first))
    # a block of more than _BLOCK / 2 entries per target gives one target per box block
    batch = kernel._BLOCK // n + 1
    wide = kernel.plan((_REUSED,), algebra, set(atoms + vars_).__contains__)
    rels, vals = _seeded_block(algebra, rng, n, 3, batch)
    frame_of = rng.integers(0, 3, batch)
    got = _run(wide, n, rels, vals, frame_of)
    assert wide._fold is None
    for i in (0, batch - 1):
        assert tuple(got[:, i].tolist()) == _reference(algebra, n, rels, vals, frame_of[i], i)

def godel_chain(size):
    """The Gödel chain 0 < 1 < ... < size-1: meet and fusion min, join max, a => c
    top if a <= c and c otherwise, one the top."""
    x, y = np.indices((size, size))
    top = size - 1
    imp = np.where(x <= y, top, y)
    return FLAlgebra(size, np.minimum(x, y), np.maximum(x, y), np.minimum(x, y), imp, imp,
                     x <= y, one=top, zero=0, bottom=0, top=top)


@pytest.mark.parametrize("size, dtype", [(256, np.uint8), (300, np.uint16)])
def test_wide_algebras_evaluate_in_wider_slots(size, dtype):
    algebra = godel_chain(size)
    assert kernel.plan((Var(0),), algebra).dtype == dtype

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 3))
        f = data.draw(formulas(size))
        model = data.draw(models(algebra, n))
        assert model.values(f) == reference_values(model, f)

    check()


@PROPERTY
@given(st.data())
def test_log_consequence_matches_one_state_models(data):
    algebra = data.draw(algebras())
    premises = data.draw(st.lists(formulas(algebra.size, boxes=False), max_size=2))
    conclusion = data.draw(formulas(algebra.size, boxes=False))
    one = algebra.one

    def holds(model, f):
        return algebra.leq(one, reference_values(model, f)[0])

    want = True
    for row in itertools.product(range(algebra.size), repeat=3):
        model = Model(Frame(algebra, 1), {p: (v,) for p, v in enumerate(row)})
        if all(holds(model, g) for g in premises) and not holds(model, conclusion):
            want = False
            break
    assert log_consequence(premises, conclusion, algebra) is want


def test_refutation_in_the_last_assignment_block_is_found():
    B = bool2()
    atoms = [Var(i) for i in range(13)]
    assert 2 ** 13 > 4 * _BLOCK  # several blocks
    everything = functools.reduce(And, atoms)
    # refuted only when every atom is one, the very last assignment
    assert not log_consequence([], neg(everything, B), B)
    # refuted only at p0..p11 one and p12 zero, index 8190, also in the last block
    assert not log_consequence(atoms[:12], atoms[12], B)
    assert log_consequence(atoms[:12], functools.reduce(And, atoms[:12]), B)


def linear_closure(algebra: FLAlgebra, r):
    """T <- r u T;r from r to its fixpoint, one scalar lookup at a time."""
    n = len(r)
    t = r
    while True:
        nxt = [[algebra.join(r[s][u], functools.reduce(
            algebra.join, (algebra.fuse(t[s][x], r[x][u]) for x in range(n)), algebra.bottom))
            for u in range(n)] for s in range(n)]
        if nxt == t:
            return t
        t = nxt


@PROPERTY
@given(st.data())
def test_closure_matches_linear_fixpoint(data):
    algebra = data.draw(algebras())
    n = data.draw(st.integers(1, 8))
    entry = st.integers(0, algebra.size - 1)
    matrix = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    batch = data.draw(st.lists(matrix, min_size=1, max_size=4))
    got = kernel.closure(algebra, np.array(batch, dtype=np.int64))
    assert got.tolist() == [linear_closure(algebra, r) for r in batch]


def test_closure_makes_no_compose_call(monkeypatch):
    """n pivots, each one term joined in: nothing is composed or folded."""
    n = 64

    def refuse(*args):
        raise AssertionError("closure composed")

    monkeypatch.setattr(kernel, "compose", refuse)
    monkeypatch.setattr(kernel, "_contract", refuse)
    algebra = cost_chain(n + 2)
    # a path: one edge of cost 1 from each state to the next, bottom elsewhere
    path = np.full((1, n, n), algebra.bottom, dtype=np.int64)
    path[0, np.arange(n - 1), np.arange(1, n)] = 1
    got = kernel.closure(algebra, path)[0]
    # the walk from s to t > s costs t - s, and bottom (the cap) is all there is otherwise
    s, t = np.indices((n, n))
    assert (got == np.where(t > s, t - s, algebra.bottom)).all()


def test_closure_loops_through_the_pivot_by_its_star():
    """Over find_non_integral(), one < 2 and 2 * 2 = 2, so 2* = 2: the walk 0 -> 1 -> 1 -> 2
    is worth 1 * 2 * 1 = 2, more than the 1 * 1 = 1 of 0 -> 1 -> 2. A pivot that took the
    star of a loop to be one would miss it: no pivot after state 1 reaches (0, 2) again."""
    algebra = find_non_integral()
    assert (algebra.one, algebra.bottom, algebra.fuse(2, 2)) == (1, 0, 2)
    r = np.array([[[0, 1, 0], [0, 2, 1], [0, 0, 0]]])
    assert kernel.closure(algebra, r).tolist() == [[[0, 2, 2], [0, 2, 2], [0, 0, 0]]]
    assert linear_closure(algebra, r[0].tolist()) == [[0, 2, 2], [0, 2, 2], [0, 0, 0]]


@pytest.mark.parametrize("frames, n", [(4096, 3), (1, 64)])
def test_closure_peak_memory_stays_near_its_result(frames, n):
    """T, the outer term and its index: a few buffers of the result's size, whatever n is."""
    algebra = cost_chain(3)
    r = np.random.default_rng(7).integers(0, algebra.size, (frames, n, n))
    want = kernel.closure(algebra, r)   # the algebra's flat tables are made before tracing
    tracemalloc.start()
    try:
        got = kernel.closure(algebra, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got == want).all()
    assert peak / got.nbytes <= 6


@PROPERTY
@given(st.data())
def test_lookup_matches_two_dimensional_indexing(data):
    algebra = data.draw(algebras())
    table = data.draw(st.sampled_from(list(vars(algebra.arrays).values())))
    shape = data.draw(st.lists(st.integers(1, 3), max_size=3))

    def operand():
        # any trailing part of the shape, with some axes squeezed to one: they broadcast
        dims = shape[data.draw(st.integers(0, len(shape))):]
        dims = [d if data.draw(st.booleans()) else 1 for d in dims]
        count = math.prod(dims)
        flat = data.draw(st.lists(st.integers(0, algebra.size - 1), min_size=count, max_size=count))
        return np.array(flat, dtype=np.int64).reshape(dims)

    a, b = operand(), operand()
    got = kernel.lookup(table, a, b)
    want = table[a, b]
    assert got.shape == want.shape and (got == want).all()


@PROPERTY
@given(st.data())
def test_blocked_compose_matches_scalar_join_over_middle_states(data):
    algebra = data.draw(algebras())
    n = data.draw(st.integers(1, 7))
    entry = st.integers(0, algebra.size - 1)
    matrix = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    batch = data.draw(st.integers(1, 4))
    # as many frames each, or 1 frame against `batch` in either order: the one broadcasts
    frames = data.draw(st.sampled_from([(batch, batch), (1, batch), (batch, 1)]))
    r, q = (data.draw(st.lists(matrix, min_size=count, max_size=count)) for count in frames)
    want = [[[functools.reduce(algebra.join, (algebra.fuse(rb[s][x], qb[x][t]) for x in range(n)),
                               algebra.bottom) for t in range(n)] for s in range(n)]
            for rb, qb in zip(r * (batch // len(r)), q * (batch // len(q)))]
    terms_per_middle_state = batch * n * n
    # blocks of 1, 2 and 3 middle states: odd widths, and several blocks when n exceeds them
    for block in (terms_per_middle_state, 2 * terms_per_middle_state,
                  3 * terms_per_middle_state, kernel._BLOCK):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "_BLOCK", block)
            got = kernel.compose(algebra, np.array(r), np.array(q))
        assert got.tolist() == want, block


@pytest.mark.parametrize("frames, limit", [((4096, 4096), 4.25), ((1, 4096), 5)])
def test_compose_peak_memory_stays_near_its_result(frames, limit):
    """Scratch in blocks of the result's size, however the frames split between r and q."""
    algebra = cost_chain(3)
    rng = np.random.default_rng(7)
    r, q = (rng.integers(0, algebra.size, (count, 3, 3)) for count in frames)
    want = kernel.compose(algebra, r, q)    # the algebra's flat tables are made before tracing
    tracemalloc.start()
    try:
        got = kernel.compose(algebra, r, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got == want).all()
    assert peak / got.nbytes < limit


def test_oracles_do_not_use_the_kernel():
    """The cross-check stays independent: no kernel import, and none of its helpers."""
    helpers = {"kernel", "lookup", "compose", "closure"}
    tree = ast.parse(Path(oracles.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {*(node.module or "").split("."), *(a.name for a in node.names)}
        elif isinstance(node, ast.Import):
            imported |= {part for a in node.names for part in a.name.split(".")}
    assert not imported & helpers
    # nor reached as a module attribute, as in flpdl.kernel.lookup or relations.compose
    assert not {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} & helpers
    assert "kernel" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _classical_truth(model, f):
    """The states where the kernel gives f the value 1, over bool2."""
    return {s for s, value in enumerate(model.values(f)) if value == 1}


def test_classical_checker_takes_formulas_thousands_of_levels_deep():
    B = bool2()
    model = Model(Frame(B, 3, {0: XRelation(B, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])}),
                  {0: (1, 0, 1)})
    f = Var(0)
    for _ in range(3000):
        f = And(Var(0), f)
    truth = oracles.classical_states(oracles.ClassicalModel.from_model(model), f)
    assert truth == _classical_truth(model, f) == {0, 2}


class _CountingGets(dict):
    """A valuation that counts how often it is read."""

    gets = 0

    def get(self, *args):
        self.gets += 1
        return super().get(*args)


def test_classical_checker_evaluates_a_shared_subterm_once():
    """f_k = f_{k-1} & [a0+]f_{k-1} holds 2^k occurrences of p0 and k + 1 distinct formulas."""
    B = bool2()
    model = Model(Frame(B, 3, {0: XRelation(B, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])}),
                  {0: (1, 1, 0)})
    f = Var(0)
    for _ in range(12):
        f = And(f, Box(Plus(Atom(0)), f))
    cm = oracles.ClassicalModel.from_model(model)
    cm.valuation = _CountingGets(cm.valuation)
    assert oracles.classical_states(cm, f) == _classical_truth(model, f) == {0, 1}
    assert cm.valuation.gets == 1
