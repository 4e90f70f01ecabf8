"""The evaluation kernel against the independent reference evaluator."""

import ast
import functools
import itertools
import math
import random
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import godel_chain
from flpdl import kernel, oracles
from flpdl.algebra import (FLAlgebra, bool2, cost_chain, is_commutative, is_integral,
                           product)
from flpdl.algebra_search import find_non_commutative, find_non_integral, iter_algebras
from flpdl.errors import DimensionMismatch
from flpdl.oracles import reference_values
from flpdl.proofs import _BLOCK, log_consequence
from flpdl.relations import XRelation
from flpdl.semantics import Frame, Model
from flpdl.syntax import (And, Atom, Box, Choice, Const, Fuse, LDiv, Or, Plus,
                          RDiv, Seq, Var, children, closure_of, neg)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@functools.cache
def _algebras():
    ordinary = (bool2(), cost_chain(2), cost_chain(3), cost_chain(5),
                product(bool2(), cost_chain(3)), product(cost_chain(2), cost_chain(2)))
    odd = tuple(a for a in iter_algebras() if not (is_commutative(a) and is_integral(a)))
    return ordinary, odd


def algebras():
    """Builtins and products half the time, the other half one of the 18 catalog
    algebras that are non-commutative or non-integral."""
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
    atoms, vars_ = (Atom(0), Atom(1)), (Var(0), Var(1), Var(2))
    relations = {a: np.stack([m.frame.relation(a).matrix for m in batch]) for a in atoms}
    plan = kernel.plan((f,), algebra, set(atoms + vars_).__contains__)
    views = plan.bind(n, len(batch))
    for p, slot in plan.inputs.items():
        views[slot][...] = np.array([m.var_row(p.index) for m in batch]).T
    (got,) = plan.run(relations)
    assert got.T.tolist() == [list(row) for row in want]


class _Unlisted(dict):
    """A memo that may be looked up and stored into, but never listed or copied."""

    def _refuse(self, *args):
        raise AssertionError("a memo was listed")

    __iter__ = keys = items = values = _refuse


def test_evaluation_never_lists_or_copies_its_memos():
    algebra, rows = cost_chain(3), [[0, 1], [2, 0]]
    f = Box(Plus(Atom(0)), Var(0))
    frame = Frame(algebra, 2, {0: XRelation.from_rows(algebra, rows)})
    frame._relations = _Unlisted(frame._relations)
    model = Model(frame, {0: (1, 2)})
    assert model.values(f) == reference_values(model, f)
    assert Plus(Atom(0)) in frame._relations
    # the atom's relation is the XRelation the frame was given, its matrix read where it lies
    assert frame._relations[Atom(0)] is frame.atomic[0]
    assert np.shares_memory(frame._plan.relations[frame._plan.ids[Atom(0)]],
                            frame.atomic[0].matrix)


def _subterms(formulas):
    """The distinct formula subterms and the distinct actions under boxes, and every action
    subterm, of the formulas."""
    formulas_, boxed, actions = set(), set(), set()
    stack = list(formulas)
    while stack:
        node = stack.pop()
        if type(node) in (Atom, Choice, Seq, Plus):
            actions.add(node)
        else:
            formulas_.add(node)
            if type(node) is Box:
                boxed.add(node.action)
        stack.extend(children(node))
    return formulas_, boxed, actions


@PROPERTY
@given(st.data())
def test_model_plan_computes_each_subterm_once_in_any_order(data):
    """Closure formulas asked for forward or reversed agree with the reference, and the
    model's and the frame's plans hold one number and at most one step per subterm."""
    algebra = data.draw(algebras())
    n = data.draw(st.integers(1, 3))
    phis = closure_of([data.draw(formulas(algebra.size))])
    model = data.draw(models(algebra, n))
    order = phis if data.draw(st.booleans()) else phis[::-1]
    for f in order:
        assert model.values(f) == reference_values(model, f)
    # a second pass finds every value where the first left it
    fresh = Model(model.frame, {p: model.var_row(p) for p in model.valuation})
    for f in order[::-1]:
        assert fresh.values(f) == reference_values(model, f)
    formulas_, boxed, _ = _subterms(phis)
    plan = model._plan
    # a valuation variable that no formula reaches is not numbered
    assert set(plan.ids) == formulas_ | boxed
    # a step per subterm, a variable's or a constant's filling its slot, an input step per
    # boxed action
    assert len(plan.steps) == len(formulas_) + len(boxed)
    # the frame derives only what its atoms' seeded relations do not give
    frame = model.frame
    derived = [a for a in boxed if not (type(a) is Atom and a.index in frame.atomic)]
    if derived:
        assert set(frame._plan.ids) == _subterms([Box(a, Var(0)) for a in derived])[2]
        assert len(frame._plan.steps) == len(frame._plan.ids)
    else:
        assert not frame._plan.ids


def test_concurrent_values_on_one_model_agree():
    algebra = cost_chain(5)
    rng = np.random.default_rng(5)
    n = 12
    frame = Frame(algebra, n, {a: XRelation(algebra, rng.integers(0, algebra.size, (n, n)))
                               for a in (0, 1)})
    valuation = {p: rng.integers(0, algebra.size, n).tolist() for p in (0, 1, 2)}
    phis = closure_of([And(Box(Plus(Seq(Atom(0), Atom(1))), LDiv(Var(0), Var(1))),
                           Box(Choice(Atom(1), Plus(Atom(0))), Or(Fuse(Var(2), Const(3)), Var(0))))])
    reference = Model(frame, valuation)
    want = {f: reference_values(reference, f) for f in phis}
    for _ in range(3):
        model = Model(Frame(algebra, n, frame.atomic), valuation)
        barrier = threading.Barrier(8)

        def work(seed):
            order = list(phis)
            random.Random(seed).shuffle(order)
            barrier.wait()
            return {f: model.values(f) for f in order}

        with ThreadPoolExecutor(8) as pool:
            results = list(pool.map(work, range(8)))
        assert all(got == want for got in results)


def test_model_keeps_no_relation_sized_scratch():
    """A model's plan keeps its values between evaluations, not the scaled relation buffer."""
    algebra, n = cost_chain(8), 256
    rng = np.random.default_rng(8)
    model = Model(Frame(algebra, n, {0: XRelation(algebra, rng.integers(0, algebra.size, (n, n)))}),
                  {0: rng.integers(0, algebra.size, n).tolist()})
    model.values(Var(0))
    f = Box(Atom(0), Var(0))
    tracemalloc.start()
    try:
        got = model.values(f)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert got == reference_values(model, f)
    # the scaled relation alone would be n * n intp entries; box fold scratch stays
    assert retained < n * n * 8 // 2


def test_bad_constant_is_refused_every_time():
    algebra = cost_chain(3)
    model = Model(Frame(algebra, 2), {0: (0, 1)})
    for _ in range(2):
        with pytest.raises(DimensionMismatch, match="constant #7 is no element index"):
            model.values(And(Var(0), Const(7)))
    assert model.values(And(Var(0), Const(2))) == reference_values(model, And(Var(0), Const(2)))


def test_subterms_numbered_before_a_refused_constant_are_computed_when_asked():
    """A refused formula leaves the subterms numbered before its bad constant in the plan,
    with no value yet: asking for one runs what the refused call did not."""
    algebra = cost_chain(3)
    model = Model(Frame(algebra, 2, {0: XRelation(algebra, [[0, 1], [2, 0]])}), {0: (1, 2)})
    left = Box(Atom(0), Or(Var(0), Var(5)))
    with pytest.raises(DimensionMismatch, match="constant #7 is no element index"):
        model.values(And(left, Const(7)))
    for f in (Var(5), left, Or(Var(0), Var(5))):
        assert model.values(f) == reference_values(model, f)


def _reused(constant=1):
    """A box over every kind of action, several variables, a constant and each connective."""
    return And(Box(Choice(Seq(Atom(0), Atom(1)), Plus(Atom(0))), RDiv(Var(0), Var(1))),
               Or(Fuse(Box(Atom(1), Var(0)), Const(constant)),
                  LDiv(Var(1), Box(Atom(0), Var(0)))))


_REUSED = _reused()


_FIVE = pytest.mark.parametrize(
    "algebra", [bool2(), cost_chain(3), product(bool2(), cost_chain(3)),
                find_non_commutative(), find_non_integral()],
    ids=["bool2", "cost3", "product", "non-commutative", "non-integral"])


@_FIVE
def test_plan_reuses_its_workspace_across_blocks(algebra):
    """Frame-major blocks of new content through one plan, the last one shorter, as
    decide_bounded runs them: member i of a block of F frames is in frame i // per."""
    rng = np.random.default_rng(algebra.size)
    n = 3
    atoms, vars_ = (Atom(0), Atom(1)), (Var(0), Var(1))
    plan = kernel.plan((_REUSED,), algebra, set(atoms + vars_).__contains__)
    roots = []
    for frames, per in ((5, 8), (5, 8), (3, 5)):
        batch = frames * per
        rels = {a: rng.integers(0, algebra.size, (frames, n, n)) for a in atoms}
        vals = {p: rng.integers(0, algebra.size, (n, batch)) for p in vars_}
        views = plan.bind(n, batch)
        for p in vars_:
            views[plan.inputs[p]][...] = vals[p]
        (root,) = plan.run(rels)
        roots.append(root)
        got = root.copy()
        fresh = kernel.plan((_REUSED,), algebra, set(atoms + vars_).__contains__)
        fresh_views = fresh.bind(n, batch)
        for p in vars_:
            fresh_views[fresh.inputs[p]][...] = vals[p]
        assert (fresh.run(rels)[0] == got).all()
        for i in (0, batch // 2, batch - 1):
            frame = Frame(algebra, n, {a.index: XRelation(algebra, rels[a][i // per])
                                       for a in atoms})
            model = Model(frame, {p.index: vals[p][:, i].tolist() for p in vars_})
            assert reference_values(model, _REUSED) == tuple(got[:, i].tolist())
    # every block's root is written into the first block's buffer, not a new one
    assert np.shares_memory(roots[1], roots[0]) and np.shares_memory(roots[2], roots[0])


@_FIVE
def test_fill_steps_refill_a_workspace_made_again(algebra):
    """A constant and a variable without a value fill their slots on every block, also in a
    workspace just made for a larger block; and a model plan whose rows at least double
    between two `Model.values` calls keeps its valuation rows and constants."""
    const = algebra.size - 1
    plan = kernel.plan((Const(const), Var(0), Or(Var(0), Const(const))), algebra)
    junk = np.iinfo(plan.dtype).max     # what a new workspace may hold before `run`
    first = plan.bind(2, 3)
    for n, batch in ((2, 3), (3, 4), (2, 3)):
        views = plan.bind(n, batch)
        views[...] = junk
        got = plan.run({})
        assert [set(root.ravel().tolist()) for root in got] == [
            {const}, {algebra.zero}, {algebra.arrays.join[algebra.zero, const]}], (n, batch)
    assert not np.shares_memory(views, first)
    model = Model(Frame(algebra, 2, {}), {0: [const, algebra.zero]})
    assert model.values(Var(0)) == (const, algebra.zero)
    rows = len(model._plan._ws)
    f = And(Fuse(Var(0), Const(const)), Or(Var(1), LDiv(Const(0), Var(0))))
    assert model.values(f) == reference_values(model, f)
    assert len(model._plan._ws) >= 2 * rows
    assert model.values(Var(0)) == (const, algebra.zero)
    assert model.values(Var(1)) == (algebra.zero, algebra.zero)



def _seeded_block(algebra, rng, n, frames, batch):
    """Random atom relations per frame and variable rows per batch member, as decide_bounded seeds them."""
    rels = {Atom(a): rng.integers(0, algebra.size, (frames, n, n)) for a in (0, 1)}
    vals = {Var(p): rng.integers(0, algebra.size, (n, batch)) for p in (0, 1)}
    return rels, vals


def _run(plan, n, rels, vals):
    batch = len(next(iter(vals.values()))[0])
    views = plan.bind(n, batch)
    for p, v in vals.items():
        views[plan.inputs[p]][...] = v
    return plan.run(rels)[0]


def _reference(algebra, n, rels, vals, frame, member, formula=_REUSED):
    model = Model(Frame(algebra, n, {a.index: XRelation(algebra, r[frame]) for a, r in rels.items()}),
                  {p.index: v[:, member].tolist() for p, v in vals.items()})
    return reference_values(model, formula)


def _member_relations(rels, i, batch):
    """Member i's relation of each atom as one frame, read frame-major: of F frames over the
    batch, member i is in frame i // (batch / F), so i * F // batch."""
    return {a: r[[i * len(r) // batch]] for a, r in rels.items()}


@_FIVE
def test_blocked_box_fold_matches_reference_across_block_boundaries(algebra):
    """Box blocks of 1, 2, 3, 6 and 7 targets over 7 states: short last blocks, odd fold levels."""
    rng = np.random.default_rng(algebra.size + 1)
    n, frames, batch = 7, 3, 6
    atoms, vars_ = (Atom(0), Atom(1)), (Var(0), Var(1))
    one_rels, one_vals = _seeded_block(algebra, rng, n, 1, 1)
    rels, vals = _seeded_block(algebra, rng, n, frames, batch)
    own = rng.integers(0, algebra.size, (batch, n, n))
    # two members per frame, over 3 frames in every box and then over 1 frame against 3 in
    # `Seq(Atom(0), Atom(1))`; one frame for the whole batch; a frame per member against 1 frame
    cases = [rels, {Atom(0): rels[Atom(0)][:1], Atom(1): rels[Atom(1)]},
             {a: r[:1] for a, r in rels.items()}, {Atom(0): own, Atom(1): rels[Atom(1)][:1]}]
    want_one = _reference(algebra, n, one_rels, one_vals, 0, 0)
    want = [[_reference(algebra, n, _member_relations(case, i, batch), vals, 0, i)
             for i in range(batch)] for case in cases]
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
            got = [_run(plan, n, case, vals).copy() for case in cases]
        assert [[tuple(g[:, i].tolist()) for i in range(batch)] for g in got] == want, targets


@_FIVE
def test_a_rerun_plan_and_one_target_box_blocks_match_the_reference(algebra):
    rng = np.random.default_rng(algebra.size + 2)
    n = 5
    atoms, vars_ = (Atom(0), Atom(1)), (Var(0), Var(1))
    plan = kernel.plan((_REUSED,), algebra, set(atoms + vars_).__contains__)
    for _ in range(2):      # the second model runs in the workspace the first one left
        rels, vals = _seeded_block(algebra, rng, n, 1, 1)
        got = _run(plan, n, rels, vals)
        assert tuple(got[:, 0].tolist()) == _reference(algebra, n, rels, vals, 0, 0)
    # a block of more than _BLOCK / 2 entries per target gives one target per box block
    per = kernel._BLOCK // n // 3 + 1
    wide = kernel.plan((_REUSED,), algebra, set(atoms + vars_).__contains__)
    rels, vals = _seeded_block(algebra, rng, n, 3, 3 * per)
    got = _run(wide, n, rels, vals)
    for i in (0, per, 3 * per - 1):
        assert tuple(got[:, i].tolist()) == _reference(algebra, n, rels, vals, i // per, i)


def test_a_frame_major_block_runs_in_scratch_of_one_box_block():
    """One run of 16,384 members on 4 states in 4 frames, over cost:3, so slots and flat
    indices are bytes. Each box groups its 4 targets in 2 groups of 2 and makes scratch
    for one block of _BLOCK entries, one group here: its codes, two accumulator rows and
    the gather's intp cast of the codes come to 11 slots, the body's codes, a byte per
    group and member, to half a slot more. Scratch for both groups at once would pass 20."""
    algebra, n, batch = cost_chain(3), 4, 2 ** 14
    atoms, vars_ = (Atom(0), Atom(1)), (Var(0), Var(1))
    plan = kernel.plan((_REUSED,), algebra, set(atoms + vars_).__contains__)
    rels, vals = _seeded_block(algebra, np.random.default_rng(4), n, 4, batch)
    for _ in range(2):  # the second run, after the first made the tables and workspace
        views = plan.bind(n, batch)
        for p, v in vals.items():
            views[plan.inputs[p]][...] = v
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = plan.run(rels)[0]
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert peak <= 14 * views[0].nbytes, peak / views[0].nbytes
    per = batch // 4
    for i in (0, per, batch - 1):
        assert tuple(got[:, i].tolist()) == _reference(algebra, n, rels, vals, i // per, i)


@pytest.mark.parametrize("size, slot, index, grouped", [
    (2, np.uint8, np.uint8, (3, np.uint8)), (3, np.uint8, np.uint8, (3, np.uint16)),
    (8, np.uint8, np.uint8, (2, np.uint16)), (9, np.uint8, np.uint8, (1, np.uint8)),
    (16, np.uint8, np.uint8, (1, np.uint8)), (17, np.uint8, np.uint16, (1, np.uint16)),
    (256, np.uint8, np.uint16, (1, np.uint16)), (257, np.uint16, np.uint32, (1, np.uint32)),
    (300, np.uint16, np.uint32, (1, np.uint32))],
    ids=lambda case: case.__name__ if isinstance(case, type) else
    f"w{case[0]}-{case[1].__name__}" if isinstance(case, tuple) else str(case))
def test_slots_and_flat_indices_take_the_narrowest_dtypes(size, slot, index, grouped,
                                                          monkeypatch):
    """Both sides of each boundary: flat indices widen past 16 and 256 elements, slots
    past 256, and a group's codes, below (size ** 2) ** width, past 256 of them. Model
    values and one frame-major block, as is and with every contraction grouped, against
    the reference evaluator. Each binary table read gathers at flat indices of the index
    dtype; a box's contraction of one state a group does too and `compose`'s at int64;
    grouped over 3 states, 3 states a group at 2 and 3 elements, 2 at 8 and 1 from 9 up,
    both gather at the group codes' dtype, `compose`'s at int64 where a group is one state."""
    algebra = godel_chain(size)
    tables = kernel._narrow(algebra)
    assert (kernel.plan((Var(0),), algebra).dtype, tables["index"], tables["size"].dtype) == (
        slot, index, index)
    formed, made_for = set(), {}    # (what gathered, index dtype); table -> (op, width)
    table, contract = kernel._table, kernel._contract

    def gathered(array, key):
        """The array as one whose `take` records the dtype of each index it gathers at."""
        class Gathered(np.ndarray):
            def take(self, idx, *args, **kwargs):
                formed.add((key, idx.dtype))
                return np.asarray(self).take(idx, *args, **kwargs)

        return array.view(Gathered)

    def spied(tables_, op, width, single):
        made = table(tables_, op, width, single)
        made_for[id(made)] = op, width
        return made

    def recording(made, lefts, rights, out):
        masks, decode = made
        key = made_for[id(made)]
        contract((tuple(gathered(m, key) for m in masks), decode), lefts, rights, out)

    monkeypatch.setattr(kernel, "_table", spied)
    monkeypatch.setattr(kernel, "_contract", recording)
    # the flattened tables `_read` gathers from, which every plan over the algebra reads
    for name in set(kernel._TABLES.values()):
        monkeypatch.setitem(tables, name, gathered(tables[name], "read"))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.data())
    def check(data):
        n = data.draw(st.integers(2, 3))
        f = data.draw(formulas(size))
        model = data.draw(models(algebra, n))
        assert model.values(f) == reference_values(model, f)

    check()
    assert ("read", np.dtype(index)) in formed
    assert formed <= {("read", np.dtype(index)), (("box", 1), np.dtype(index)),
                      (("seq", 1), np.dtype(np.int64))}
    # one frame-major block: 3 frames over 6 members, each frame broadcast over 2
    n, rng = 3, np.random.default_rng(size)
    atoms, vars_ = (Atom(0), Atom(1)), (Var(0), Var(1))
    plan = kernel.plan((_REUSED,), algebra, set(atoms + vars_).__contains__)
    rels, vals = _seeded_block(algebra, rng, n, 3, 6)
    width, codes = grouped
    for block, box, seq in ((kernel._BLOCK, ("box", 1, index), ("seq", 1, np.int64)),
                            (1, ("box", width, codes),
                             ("seq", width, codes if width > 1 else np.int64))):
        formed.clear()
        monkeypatch.setattr(kernel, "_BLOCK", block)   # 1: every contraction is grouped
        got = _run(plan, n, rels, vals)
        for i in range(6):
            assert tuple(got[:, i].tolist()) == _reference(algebra, n, rels, vals, i // 2, i), i
        assert formed == {("read", np.dtype(index)), (box[:2], np.dtype(box[2])),
                          (seq[:2], np.dtype(seq[2]))}


def _asked(monkeypatch) -> list:
    """Every (op, width, single) that a contraction asks `_table` for, in order, from now on."""
    asked, table = [], kernel._table

    def spied(tables, op, width, single):
        asked.append((op, width, single))
        return table(tables, op, width, single)

    monkeypatch.setattr(kernel, "_table", spied)
    return asked


_CATALOG = [*iter_algebras(), cost_chain(16), cost_chain(17)]


@pytest.mark.parametrize("algebra", _CATALOG,
                         ids=[f"catalog{i}" for i in range(len(_CATALOG) - 2)] + ["cost16",
                                                                                  "cost17"])
def test_grouped_boxes_and_composes_match_the_reference(algebra, monkeypatch):
    """Every contraction grouped, at most 2 states a group, on every catalog algebra, the
    one-element one included, and on the cost chains either side of the 16/17-element
    multiword masks, whose bottom is no element 0: one state (a table of elements), one
    group of 2 (elements again) and 2 groups, the last padded with the bottom, in a block
    of 3 frames over 6 members against the reference evaluator."""
    monkeypatch.setattr(kernel, "_BLOCK", 1)
    monkeypatch.setitem(kernel._narrow(algebra), "widest", 2)
    asked = _asked(monkeypatch)
    rng = np.random.default_rng(algebra.size + 5)
    atoms, vars_ = (Atom(0), Atom(1)), (Var(0), Var(1))
    formula = _reused(min(1, algebra.size - 1))
    for n in (1, 2, 3):
        plan = kernel.plan((formula,), algebra, set(atoms + vars_).__contains__)
        rels, vals = _seeded_block(algebra, rng, n, 3, 6)
        got = _run(plan, n, rels, vals)
        for i in range(6):
            want = _reference(algebra, n, rels, vals, i // 2, i, formula)
            assert tuple(got[:, i].tolist()) == want, (n, i)
    assert set(asked) == {(op, width, single) for op in ("box", "seq")
                          for width, single in ((1, True), (2, True), (2, False))}


@pytest.mark.parametrize("algebra", [cost_chain(3), find_non_commutative()],
                         ids=["cost3", "non-commutative"])
def test_boxes_and_composes_group_every_state_count(algebra, monkeypatch):
    """n from 1 to 2c + 1, c the algebra's widest group (3 at 3 and 4 elements): grouped,
    every contraction asks for width ceil(n / ceil(n / c)), never above n, and one group's
    table of elements exactly when n fits one group. One frame for the batch, a frame per
    member and 3 frames over runs of 2, against the reference evaluator, in blocks of one
    group and, past 2 states, of two."""
    widest = kernel._narrow(algebra)["widest"]
    assert widest == 3
    asked = _asked(monkeypatch)
    rng = np.random.default_rng(algebra.size + 6)
    atoms, vars_, batch = (Atom(0), Atom(1)), (Var(0), Var(1)), 6
    for n in range(1, 2 * widest + 2):
        rels, vals = _seeded_block(algebra, rng, n, batch, batch)
        cases = [{a: r[:1] for a, r in rels.items()}, rels, {a: r[:3] for a, r in rels.items()}]
        want = [[_reference(algebra, n, _member_relations(case, i, batch), vals, 0, i)
                 for i in range(batch)] for case in cases]
        groups = -(-n // widest)
        width = -(-n // groups)
        assert width <= n
        for block in (1, 2 * n * batch):     # the box's out holds n * batch entries
            asked.clear()
            monkeypatch.setattr(kernel, "_BLOCK", block)
            plan = kernel.plan((_REUSED,), algebra, set(atoms + vars_).__contains__)
            got = [_run(plan, n, case, vals).copy() for case in cases]
            assert [[tuple(g[:, i].tolist()) for i in range(batch)] for g in got] == want, (
                n, block)
            if block == 1:
                assert set(asked) == {("box", width, groups == 1), ("seq", width, groups == 1)}


def test_grouped_compose_keeps_the_operand_order(monkeypatch):
    """On a non-commutative algebra (r;q)(s,t) joins r(s,x) * q(x,t), never q(x,t) * r(s,x):
    one group, two groups of 2, two of 3 with the last padded, and ungrouped, against a
    fold of the algebra's tables that the swapped product would not match."""
    algebra = find_non_commutative()
    fuse, join = algebra.arrays.fuse, algebra.arrays.join
    rng = np.random.default_rng(11)
    asked = _asked(monkeypatch)

    def folded(products):
        return functools.reduce(lambda x, y: join[x, y], products)

    for n in (3, 4, 5):
        r, q = rng.integers(0, algebra.size, (2, 64, n, n))
        want = folded([fuse[r[:, :, x, None], q[:, None, x, :]] for x in range(n)])
        swapped = folded([fuse[q[:, None, x, :], r[:, :, x, None]] for x in range(n)])
        assert (want != swapped).any()
        for block in (1, kernel._BLOCK):
            monkeypatch.setattr(kernel, "_BLOCK", block)
            assert (kernel.compose(algebra, r, q) == want).all(), (n, block)
    assert asked == [("seq", 3, True), ("seq", 1, False), ("seq", 2, False), ("seq", 1, False),
                     ("seq", 3, False), ("seq", 1, False)]


@pytest.mark.parametrize("size", [1, 2, 3, 255, 256, 70000])
def test_digits_match_divmod(size):
    """Twelve digits of indices up to 2 ** 62, into int64 rows and into rows of the
    narrowest dtype holding a digit, against repeated np.divmod."""
    count = 12
    for start in (0, size - 1, size ** 3 + 7, 2 ** 40 + 3, 2 ** 62 - 50, 2 ** 62):
        indices = np.arange(start, start + 50, dtype=np.int64)
        rest, want = indices.copy(), []
        for _ in range(count):
            rest, digit = np.divmod(rest, size)
            want.insert(0, digit)
        wide = kernel.digits(indices.copy(), size, np.empty((count, 50), np.int64))
        narrow = kernel.digits(indices.copy(), size,
                               [np.empty(50, np.min_scalar_type(size - 1)) for _ in range(count)])
        assert (wide == want).all(), start
        assert all((row == digit).all() for row, digit in zip(narrow, want)), start


_MASKED = {"bool2": bool2, "cost2": lambda: cost_chain(2), "cost3": lambda: cost_chain(3),
           "cost5": lambda: cost_chain(5), "cost8": lambda: cost_chain(8),
           "cost70": lambda: cost_chain(70), "product": lambda: product(bool2(), cost_chain(3)),
           "product-cost2": lambda: product(cost_chain(2), cost_chain(2)),
           "non-commutative": find_non_commutative, "non-integral": find_non_integral,
           "godel256": lambda: godel_chain(256), "godel300": lambda: godel_chain(300)}


@pytest.mark.parametrize("name", list(_MASKED))
def test_anded_masks_decode_to_the_meet_and_the_join(name):
    """`_contract` ANDs down-set (up-set) masks into the meet (join): each element alone,
    every pair, comparable or not, and random lists, against a fold of the table. Meets
    read the box table at one => x, which is x; joins read each element's own mask."""
    algebra = _MASKED[name]()
    tables, size, arrs = kernel._narrow(algebra), algebra.size, algebra.arrays
    assert (arrs.imp[algebra.one] == np.arange(size)).all()
    cases = [(tables["box"], algebra.one * size, arrs.meet, tables["meet"].dtype),
             (tables["up"], 0, arrs.join, np.int64)]

    def contracted(case, terms):
        masks, left, _, dtype = case
        out = np.empty(terms.shape[1:], dtype)
        lefts = np.full((len(terms),) + (1,) * (terms.ndim - 1), left, np.intp)
        kernel._contract(masks, lefts, terms, out)
        return out

    for case in cases:
        assert (contracted(case, np.arange(size)[None]) == np.arange(size)).all()
        assert (contracted(case, np.indices((size, size))) == case[2]).all()

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, size - 1), min_size=1, max_size=9))
    def check(elements):
        for case in cases:
            want = functools.reduce(lambda x, y: case[2][x, y], elements)
            assert contracted(case, np.array(elements)[:, None])[0] == want

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


def _count_pivots(monkeypatch, algebra):
    """A list that grows by one per closure pivot over `algebra`: each pivot reads the
    star table once, so that table is swapped for a view that records its gathers."""
    pivots = []

    class Star(np.ndarray):
        def take(self, *args, **kwargs):
            pivots.append(None)
            return self.view(np.ndarray).take(*args, **kwargs)

    star, *rest = kernel._narrow(algebra)["plus"]
    monkeypatch.setitem(kernel._narrow(algebra), "plus", (star.view(Star), *rest))
    return pivots


def test_closure_makes_no_compose_call(monkeypatch):
    """n pivots, each one term joined in: nothing is composed or folded, and a path,
    never at top off its diagonal, is not cut short by the saturation test."""
    n = 64

    def refuse(*args):
        raise AssertionError("closure composed")

    monkeypatch.setattr(kernel, "compose", refuse)
    monkeypatch.setattr(kernel, "_contract", refuse)
    algebra = cost_chain(n + 2)
    pivots = _count_pivots(monkeypatch, algebra)
    # a path: one edge of cost 1 from each state to the next, bottom elsewhere
    path = np.full((1, n, n), algebra.bottom, dtype=np.int64)
    path[0, np.arange(n - 1), np.arange(1, n)] = 1
    got = kernel.closure(algebra, path)[0]
    # the walk from s to t > s costs t - s, and bottom (the cap) is all there is otherwise
    s, t = np.indices((n, n))
    assert (got == np.where(t > s, t - s, algebra.bottom)).all()
    assert len(pivots) == n


def test_closure_loops_through_the_pivot_by_its_star():
    """Over find_non_integral(), one < 2 and 2 * 2 = 2, so 2* = 2: the walk 0 -> 1 -> 1 -> 2
    is worth 1 * 2 * 1 = 2, more than the 1 * 1 = 1 of 0 -> 1 -> 2. A pivot that took the
    star of a loop to be one would miss it: no pivot after state 1 reaches (0, 2) again."""
    algebra = find_non_integral()
    assert (algebra.one, algebra.bottom, algebra.fuse(2, 2)) == (1, 0, 2)
    r = np.array([[[0, 1, 0], [0, 2, 1], [0, 0, 0]]])
    assert kernel.closure(algebra, r).tolist() == [[[0, 2, 2], [0, 2, 2], [0, 0, 0]]]
    assert linear_closure(algebra, r[0].tolist()) == [[0, 2, 2], [0, 2, 2], [0, 0, 0]]


_SATURATING = {"cost1": lambda: cost_chain(1), **_MASKED}   # cost1: bottom = top, all top at once


def _hub(algebra, n, hub):
    """Top on every edge into or out of `hub`, bottom elsewhere. No walk avoiding hub
    is worth more than bottom, so T first reaches top everywhere at pivot hub."""
    r = np.full((n, n), algebra.bottom, dtype=np.int64)
    r[hub], r[:, hub] = algebra.top, algebra.top
    return r


def _unreachable(algebra, rng, n):
    """Random entries, but no edge into state 0: its column stays at bottom, x * bottom
    being bottom, so the closure never saturates."""
    r = rng.integers(0, algebra.size, (n, n))
    r[:, 0] = algebra.bottom
    return r


@pytest.mark.parametrize("name", list(_SATURATING))
def test_closure_that_saturates_matches_linear_fixpoint(name, monkeypatch):
    """The early return at top is exact, and taken at the first power of two >= 4 where T
    is top everywhere. Since top * top = top, a relation with one entry below top on three
    or more states closes to top; a state no edge enters keeps its column off top."""
    algebra = _SATURATING[name]()
    rng = np.random.default_rng(algebra.size)
    pivots = _count_pivots(monkeypatch, algebra)
    # one with probability 1/2, as in the model-check workload's dense relations
    dense = np.where(rng.random((3, 20, 20)) < 0.5, algebra.one,
                     rng.integers(0, algebra.size, (3, 20, 20)))
    almost = np.full((20, 20), algebra.top)
    almost[rng.integers(20), rng.integers(20)] = rng.integers(algebra.size)
    cases = [dense, almost[None], _unreachable(algebra, rng, 20)[None]]
    for r in cases:
        for n in (5, 9, 20):
            frames = r[:, :n, :n]
            got = kernel.closure(algebra, frames)
            assert got.tolist() == [linear_closure(algebra, m) for m in frames.tolist()]
    for k in (4, 8, 16):
        n = min(20, k + 1 + int(rng.integers(4)))
        r, top = _hub(algebra, n, k - 1), np.full((n, n), algebra.top).tolist()
        pivots.clear()
        assert kernel.closure(algebra, r[None]).tolist() == [top]
        assert linear_closure(algebra, r.tolist()) == top
        assert len(pivots) == (4 if algebra.size == 1 else k)
    # one frame saturates at pivot 4, the other never: the batch runs every pivot
    n = int(rng.integers(5, 21))
    batch = np.stack([_hub(algebra, n, 3), _unreachable(algebra, rng, n)])
    pivots.clear()
    got = kernel.closure(algebra, batch)
    assert got.tolist() == [linear_closure(algebra, m) for m in batch.tolist()]
    assert len(pivots) == (4 if algebra.size == 1 else n)


def test_closure_stops_within_a_power_of_two_of_saturation(monkeypatch):
    """A dense 48-state cost:8 relation is top everywhere after 7 pivots and stops at 8;
    the test runs before pivots 4, 8, 16, ... below n, so n <= 4 never runs it."""
    algebra = cost_chain(8)
    pivots = _count_pivots(monkeypatch, algebra)
    tests = []
    not_equal = np.not_equal
    monkeypatch.setattr(kernel.np, "not_equal",
                        lambda *args, **kwargs: tests.append(None) or not_equal(*args, **kwargs))
    rng = np.random.default_rng(0)
    r = np.where(rng.random((1, 48, 48)) < 0.5, algebra.one, rng.integers(0, 8, (1, 48, 48)))
    assert (kernel.closure(algebra, r) == algebra.top).all()
    assert (len(pivots), len(tests)) == (8, 2)
    for n in (1, 2, 3, 4, 5):
        pivots.clear()
        tests.clear()
        assert (kernel.closure(algebra, np.full((2, n, n), algebra.top)) == algebra.top).all()
        assert (len(pivots), len(tests)) == ((4, 1) if n == 5 else (n, 0))


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
