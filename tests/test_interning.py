"""Hash-consed syntax nodes: one object per formula, under threads, at depth,
through pickle and copy, and held weakly."""

import copy
import dataclasses
import gc
import json
import pickle
import random
import sys
import threading
from importlib import resources

import numpy as np
import pytest

from flpdl import syntax
from flpdl.algebra import load_algebra
from flpdl.generators import random_action, random_formula
from flpdl.oracles import reference_values
from flpdl.parser import MAX_NESTING, parse_formula
from flpdl.proofs import check_proof, load_proof
from flpdl.relations import XRelation
from flpdl.semantics import Frame, Model
from flpdl.syntax import (And, Atom, Box, Choice, Const, Fuse, LDiv, Or, Plus,
                          RDiv, Seq, Var, children, closure_of, format_action,
                          format_formula)

NODE_TYPES = (Atom, Choice, Seq, Plus, Var, Const, And, Or, Fuse, LDiv, RDiv, Box)
THREADS = 4
ROUNDS = 10


def _recipe(node):
    """The constructor calls that rebuild node, as nested (type, *fields) tuples."""
    if isinstance(node, (Var, Const, Atom)):
        return type(node), node.index
    return (type(node), *map(_recipe, children(node)))


def _build(recipe):
    kind, *fields = recipe
    return kind(*(f if isinstance(f, int) else _build(f) for f in fields))


def _corpus_verdicts(files):
    out = []
    for name, raw, algebra in files:
        verdict = check_proof(load_proof(raw, algebra), algebra)
        out.append((name, verdict.accepted, verdict.failed_line, verdict.reason))
    return out


def test_threads_building_equal_formulas_get_one_node(C3):
    rng = random.Random(20261019)
    texts = [format_formula(random_formula(rng, C3, depth=rng.randint(0, 6), variables=(0, 1, 2),
                                           atoms=(0, 1, 2))) for _ in range(300)]
    recipes = [_recipe(parse_formula(t, C3)) for t in texts]
    files = []
    for kind in ("proofs", "proofs_bad"):
        for path in sorted((resources.files("flpdl") / "data" / kind).iterdir(),
                           key=lambda p: p.name):
            raw = json.loads(path.read_text())
            files.append((f"{kind}/{path.name}", raw, load_algebra(raw["algebra"])))
    serial = _corpus_verdicts(files)
    assert any(not accepted for _, accepted, _, _ in serial)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # switch threads as often as the interpreter can
    try:
        # each round starts with none of the formulas alive: the threads race to make them
        for round_no in range(ROUNDS):
            gc.collect()
            start = threading.Barrier(THREADS)
            results = [None] * THREADS

            def work(i):
                start.wait(timeout=60)
                parsed = [parse_formula(t, C3) for t in texts]
                built = [_build(r) for r in recipes]
                results[i] = parsed, built, _corpus_verdicts(files) if round_no == 0 else serial

            threads = [threading.Thread(target=work, args=(i,)) for i in range(THREADS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert None not in results, "a thread raised"
            first = results[0][0]
            for parsed, built, verdicts in results:
                assert all(a is b for a, b in zip(parsed, first))
                assert all(a is b for a, b in zip(built, first))
                assert verdicts == serial
            assert [format_formula(f) for f in first] == texts
            del results, first, parsed, built
    finally:
        sys.setswitchinterval(interval)


def _deep(depth):
    """p0 & [a0]p0 grown to `depth` meets, alternately on the left and the right."""
    p0 = Var(0)
    f = p0
    for i in range(depth):
        f = And(p0, f) if i % 2 == 0 else And(f, Box(Atom(0), p0))
    return f


def test_deep_formulas_hash_compare_close_and_evaluate(C3):
    f = _deep(5000)
    assert _deep(5000) is f and hash(_deep(5000)) == hash(f)
    assert f == _deep(5000) and f != _deep(4999)
    phis = closure_of([f])
    assert len(phis) == 5002 and phis[0] is f    # the 5,000 meets, [a0]p0 and p0
    model = Model(Frame(C3, 3, {0: XRelation.from_rows(C3, [[2, 1, 0], [0, 2, 2], [1, 0, 1]])}),
                  {0: (2, 1, 0)})
    assert model.values(f) == model.values(parse_formula("p0 & [a0]p0", C3))
    assert reference_values(model, f) == model.values(f)
    # the reference evaluator no longer recurses either; the parser's cap stays
    # because the pinned parse digest and the bench's cli inputs are built around it
    assert MAX_NESTING == 64


def test_interning_survives_copies_and_holds_nodes_weakly():
    f = Box(Plus(Choice(Atom(0), Seq(Atom(1), Atom(2)))), RDiv(Fuse(Var(0), Const(1)),
                                                               LDiv(Or(Var(1), Var(2)), Var(0))))
    assert pickle.loads(pickle.dumps(f)) is f
    assert copy.deepcopy(f) is f and copy.copy(f) is f
    assert dataclasses.replace(f, body=f.body) is f
    assert dataclasses.replace(f.body, left=Var(3)) is RDiv(Var(3), f.body.right)
    assert Var(np.int64(1)) is Var(1) and Atom(index=np.uint8(2)) is Atom(2)
    for kind in (Var, Const, Atom):
        with pytest.raises(TypeError):
            kind(1.0)
    with pytest.raises(TypeError):
        And(Var(0))
    with pytest.raises(TypeError):
        And(Var(0), Var(1), right=Var(1))
    with pytest.raises(dataclasses.FrozenInstanceError):
        f.body = Var(0)
    # equality and hashing are object's: neither runs Python code per node
    for kind in NODE_TYPES:
        assert kind.__eq__ is object.__eq__ and kind.__hash__ is object.__hash__
    gc.collect()
    before = len(syntax._NODES)
    made = [And(Var(i), Box(Atom(i % 7), Const(i))) for i in range(10_000)]
    assert len(syntax._NODES) >= 4 * len(made)     # each And, Box, Var and Const
    del made
    gc.collect()
    assert len(syntax._NODES) <= before + 8


def _dataclass_repr(node):
    """repr as a dataclass writes it, recursing: the reference for shallow nodes."""
    if not isinstance(node, syntax._Interned):
        return repr(node)
    fields = ", ".join(f"{name}={_dataclass_repr(getattr(node, name))}" for name in node._fields)
    return f"{type(node).__qualname__}({fields})"


def test_repr_is_the_dataclass_repr_and_does_not_recurse(C3):
    assert repr(And(Var(0), Box(Atom(0), Var(0)))) == (
        "And(left=Var(index=0), right=Box(action=Atom(index=0), body=Var(index=0)))")
    rng = random.Random(20261019)
    for _ in range(300):
        f = random_formula(rng, C3, depth=rng.randint(0, 6), variables=(0, 1, 2), atoms=(0, 1, 2))
        a = random_action(rng, depth=rng.randint(0, 5), atoms=(0, 1, 2, 3))
        assert repr(f) == _dataclass_repr(f) and repr(a) == _dataclass_repr(a)
    text = repr(_deep(5000))
    # 5,000 meets, 2,500 boxes over a0, and 5,001 occurrences of p0
    assert len(text) == 5000 * len("And(left=, right=)") + 2500 * len(
        "Box(action=Atom(index=0), body=)") + 5001 * len("Var(index=0)")
    assert text.startswith("And(left=And(left=Var(index=0), right=And(left=And(left=Var(")
    assert text.endswith("right=Box(action=Atom(index=0), body=Var(index=0)))")


def test_deep_formulas_print():
    text = format_formula(_deep(5000))
    # p0 & p0, then 2,499 more "p0 & (...)" and 2,500 "... & [a0]p0"
    assert len(text) == len("p0 & p0") + 2499 * len("p0 & ()") + 2500 * len(" & [a0]p0")
    assert text.startswith("p0 & (p0 & (p0 & (")
    assert text.count("(p0 & p0 & [a0]p0)") == 1
    assert text.endswith("[a0]p0) & [a0]p0) & [a0]p0")
    assert format_action(Seq(Plus(Atom(0)), Choice(Atom(1), Atom(2)))) == "a0+ ; (a1 u a2)"


def _live(nodes):
    return sum(ref() is not None for ref in nodes.values())


def test_the_table_stays_small_without_a_callback_per_node(C3):
    """Dead nodes leave the table at the latest when it doubles, with no
    collection to help, and every one of them after a full collection."""
    gc.collect()
    live = _live(syntax._NODES)
    gc.disable()
    try:
        peak = 0
        for i in range(20_000):
            f = parse_formula(f"[a{i % 3}](p{i} -> #1) & p{i + 1} * p{i}", C3)
            assert f is not None
            del f
            peak = max(peak, len(syntax._NODES))
    finally:
        gc.enable()
    # each formula is 7 nodes: the table never grew past twice the live
    # nodes and the purge floor, whatever died in between
    assert peak <= 2 * live + syntax._PURGE_FLOOR + 8
    assert all(ref.__callback__ is None for ref in syntax._NODES.values())
    gc.collect()
    before = len(syntax._NODES)
    assert before == _live(syntax._NODES)
    deep = _deep(5000)
    assert len(syntax._NODES) > before + 4990   # the 5,000 meets, bar any alive before
    del deep
    gc.collect()    # a parent's key holds its children: the whole chain goes
    assert len(syntax._NODES) <= before
