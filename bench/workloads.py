"""Seeded inputs and independent expectations for the four workloads.

Each generator returns a Workload: the job specs the workload process runs
(plain JSON), the algebra sources it builds during set-up, and one
expectation per job computed here, outside the code under test. Formulas are
built as pairs of text and syntax tree, so the parser's output is checked
against the tree the generator meant and the oracle never reads a tree back
from the library.

Sizes are fixed per job slot; the seed only draws relation entries,
valuations, variable and atom names and which pinned formulas fill a slot, so
the cost of a round barely moves between seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from flpdl.syntax import (And, Atom, Box, Choice, Const, Fuse, Or, Plus, RDiv,
                          Seq, Var)

import oracle
from worker import canon

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "flpdl" / "data"

NC_ALGEBRA = json.loads((DATA / "witnesses" / "non_commutative_const_shift.json").read_text())["algebra"]
NI_ALGEBRA = json.loads((DATA / "witnesses" / "non_integral_star.json").read_text())["algebra"]

SOURCES = {
    "bool2": "builtin:bool2",
    "cost:3": "builtin:cost:3",
    "cost:5": "builtin:cost:5",
    "cost:8": "builtin:cost:8",
    "bool2xcost:3": "builtin:product(bool2,cost:3)",
    "cost:3xcost:3": "builtin:product(cost:3,cost:3)",
    "nc": NC_ALGEBRA,
    "ni": NI_ALGEBRA,
}

_TABLES: dict[str, oracle.Tables] = {}


def tables(key: str) -> oracle.Tables:
    if key not in _TABLES:
        _TABLES[key] = oracle.from_source(SOURCES[key])
    return _TABLES[key]


@dataclass
class Workload:
    name: str
    algebras: dict = field(default_factory=dict)   # key -> source, built in set-up
    jobs: list = field(default_factory=list)       # specs sent to the workload process
    expect: list = field(default_factory=list)     # one expectation per job

    def add(self, spec: dict, expectation: dict) -> None:
        if "alg" in spec:
            self.algebras[spec["alg"]] = SOURCES[spec["alg"]]
        self.jobs.append(spec)
        self.expect.append(expectation)

    def spec(self) -> dict:
        return {"workload": self.name, "algebras": self.algebras, "jobs": self.jobs}


# -- formulas as (text, tree) pairs ---------------------------------------------

@dataclass(frozen=True)
class F:
    text: str
    tree: object


def var(i):
    return F(f"p{i}", Var(i))


def act(i):
    return F(f"a{i}", Atom(i))


def const(i):
    return F(f"#{i}", Const(i))


def choice(a, b):
    return F(f"({a.text} u {b.text})", Choice(a.tree, b.tree))


def seq(a, b):
    return F(f"({a.text} ; {b.text})", Seq(a.tree, b.tree))


def plus(a):
    return F(f"{a.text}+", Plus(a.tree))


def box(a, f):
    return F(f"[{a.text}]{f.text}", Box(a.tree, f.tree))


def dia(a, f, bot):
    return F(f"<{a.text}>{f.text}", RDiv(Box(a.tree, RDiv(f.tree, Const(bot))), Const(bot)))


def _bin(op, cls):
    return lambda f, g: F(f"({f.text} {op} {g.text})", cls(f.tree, g.tree))


conj, disj, fuse, imp = _bin("&", And), _bin("|", Or), _bin("*", Fuse), _bin("->", RDiv)


def iff(f, g):
    return F(f"({f.text} <-> {g.text})", And(RDiv(f.tree, g.tree), RDiv(g.tree, f.tree)))


def names(rng):
    """Atom and variable names for one slot: a0/a1 and p0/p1 in a seeded order."""
    x, y = (act(0), act(1)) if rng.random() < 0.5 else (act(1), act(0))
    p, q = (var(0), var(1)) if rng.random() < 0.5 else (var(1), var(0))
    return x, y, p, q


# model-check formulas: nested +, ;, u and diamonds, two closures each
def _mc1(x, y, p, q, bot):
    return box(plus(choice(x, seq(y, x))), imp(p, dia(plus(y), q, bot)))


def _mc2(x, y, p, q, bot):
    return imp(dia(plus(seq(x, y)), p, bot), box(plus(x), disj(q, p)))


def _mc3(x, y, p, q, bot):
    return disj(box(plus(y), conj(p, box(seq(x, y), q))), dia(plus(choice(x, y)), fuse(q, p), bot))


def _mc4(x, y, p, q, bot):
    return imp(box(plus(choice(x, y)), p), conj(box(plus(x), q), dia(y, p, bot)))


MC_TEMPLATES = (_mc1, _mc2, _mc3, _mc4)

# the six axiom schemes of criterion 6, one instance each
AXIOMS = (
    lambda x, y, p, q, T: box(x, const(T.one)),
    lambda x, y, p, q, T: iff(box(x, conj(p, q)), conj(box(x, p), box(x, q))),
    lambda x, y, p, q, T: iff(box(x, imp(const(1), p)), imp(const(1), box(x, p))),
    lambda x, y, p, q, T: iff(box(choice(x, y), p), conj(box(x, p), box(y, p))),
    lambda x, y, p, q, T: iff(box(seq(x, y), p), box(x, box(y, p))),
    lambda x, y, p, q, T: iff(box(plus(x), p), box(x, conj(p, box(plus(x), p)))),
)

# refutable at two states over bool2 and cost:3
REFUTABLE = (
    lambda x, y, p, q, T: imp(p, box(x, p)),
    lambda x, y, p, q, T: imp(box(x, p), p),
    lambda x, y, p, q, T: imp(dia(x, p, T.bottom), box(x, p)),
    lambda x, y, p, q, T: imp(box(x, p), box(x, box(x, p))),
    lambda x, y, p, q, T: imp(p, box(plus(x), p)),
    lambda x, y, p, q, T: imp(box(choice(x, y), p), box(x, q)),
)


# -- models ----------------------------------------------------------------------

def random_matrix(rng, T, n, shape):
    """Dense: every entry is one with probability 1/2, else uniform. Two steps
    then reach one almost everywhere, so closure stops after the same few rounds
    whatever the seed. Chain: a path s -> s+1 of entries at or above one, bottom
    elsewhere. Every walk along the path stays at or above one, so closure needs
    n rounds whatever the seed."""
    if shape == "dense":
        return [[T.one if rng.random() < 0.5 else rng.randrange(T.size) for _ in range(n)]
                for _ in range(n)]
    good = [v for v in range(T.size) if T.leq[T.one, v]]
    rows = [[T.bottom] * n for _ in range(n)]
    for s in range(n - 1):
        rows[s][s + 1] = rng.choice(good)
    return rows


def random_model(rng, key, n, shape):
    T = tables(key)
    return {"states": n,
            "relations": {f"a{a}": random_matrix(rng, T, n, shape) for a in (0, 1)},
            "valuation": {f"p{p}": [rng.randrange(T.size) for _ in range(n)] for p in (0, 1)}}


def model_expectation(key, model, formula: F) -> dict:
    """Closure values, quotient values, classes and the validity verdict."""
    T = tables(key)
    n = model["states"]
    rels = {int(k[1:]): m for k, m in model["relations"].items()}
    vals = {int(k[1:]): row for k, row in model["valuation"].items()}
    ev = oracle.single(T, n, rels, vals)
    phis = oracle.closure(formula.tree)
    values = {oracle.fmt(f): ev.values(f)[0].tolist() for f in phis}
    if key == "bool2":
        for f in phis:
            if oracle.classical_values(rels, vals, n, f) != values[oracle.fmt(f)]:
                raise RuntimeError(f"oracles disagree on {oracle.fmt(f)}")
    if key.startswith("cost:"):
        for a in oracle.actions_bottom_up(phis):
            if oracle.kind(a) == "Plus":
                walks = oracle.cheapest_walks(ev.relation(a.body)[0], T.size - 1)
                if not np.array_equal(walks, ev.relation(a)[0]):
                    raise RuntimeError(f"oracles disagree on {oracle.fmt_action(a)}")
    keys = sorted(values)
    seen: dict = {}
    class_of = [seen.setdefault(tuple(values[k][s] for k in keys), len(seen)) for s in range(n)]
    fail = oracle.first_failure(T, values[oracle.fmt(formula.tree)])
    return {"closure": values, "quotient": values, "class_of": class_of,
            "valid": [True, None, None] if fail is None else [False, fail[0], fail[1]],
            "classes": len(seen), "closure_size": len(phis)}


# -- model-check ------------------------------------------------------------------

MC_SLOTS = (
    # (algebra, states, relation shape); every slot gets a template in turn
    [("cost:8", n, "dense") for n in (16, 24, 32, 40, 48, 16, 24, 32, 40, 48)]
    + [("bool2xcost:3", n, "dense") for n in (16, 24, 32, 40, 48)]
    + [("nc", n, "dense") for n in (16, 24, 32, 40)]
    + [("bool2", n, "dense") for n in (16, 20, 24)]
    # the six chain slots are the slowest jobs: the p90 falls among them
    + [("cost:8", 32, "chain"), ("bool2xcost:3", 32, "chain"), ("nc", 32, "chain"),
       ("bool2", 40, "chain"), ("cost:8", 24, "chain"), ("bool2xcost:3", 24, "chain")]
)
MC_SMOKE = (("cost:8", 8, "dense"), ("bool2", 6, "dense"), ("nc", 6, "chain"),
            ("bool2xcost:3", 8, "chain"))


def model_check(seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"model-check/{seed}")
    w = Workload("model-check")
    for i, (key, n, shape) in enumerate(MC_SMOKE if smoke else MC_SLOTS):
        T = tables(key)
        formula = MC_TEMPLATES[i % len(MC_TEMPLATES)](*names(rng), T.bottom)
        model = random_model(rng, key, n, shape)
        exp = model_expectation(key, model, formula)
        exp.pop("classes")
        exp.pop("closure_size")
        w.add({"kind": "mc", "alg": key, "model": model, "text": formula.text,
               "shape": shape, "n": n}, {"exact": canon(exp)})
    return w


# -- search -----------------------------------------------------------------------

def decide_expectation(key, formula: F, max_states, budget, valid=False):
    """Outcome of an exhaustive search. Valid formulas (the axioms, sound over
    commutative integral algebras, and #one) are not scanned: their outcome
    follows from the candidate counts."""
    T = tables(key)
    hit = None if valid else oracle.first_countermodel(T, formula.tree, max_states)
    if hit is None or hit[5] > budget:
        return oracle.exhaustive_outcome(T, formula.tree, max_states, budget)
    n, rels, vals, witness, value, checked = hit
    if key == "bool2" and oracle.classical_values(rels, vals, n, formula.tree)[witness] != 0:
        raise RuntimeError(f"classical checker does not refute {formula.text}")
    if key == "cost:3":
        from flpdl.oracles import cost_walk_join_fast
        from flpdl.relations import XRelation
        ev = oracle.single(T, n, rels, vals)
        for a in oracle.actions_bottom_up([formula.tree]):
            if oracle.kind(a) == "Plus":
                body = ev.relation(a.body)[0]
                rel = XRelation(None, tuple(tuple(int(v) for v in row) for row in body))
                if not np.array_equal(cost_walk_join_fast(rel, T.size - 1), ev.relation(a)[0]):
                    raise RuntimeError(f"walk oracle disagrees on {oracle.fmt_action(a)}")
    return {"kind": "countermodel", "states": n,
            "relations": {str(a): m for a, m in rels.items()},
            "valuation": {str(p): r for p, r in vals.items()},
            "witness": witness, "value": value, "models_checked": checked}


def search(seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"search/{seed}")
    w = Workload("search")
    budget = 10 ** 4 if smoke else 10 ** 6

    def add(key, formula, max_states, budget, mode="exhaustive", sample_seed=0, expectation=None,
            valid=False):
        if expectation is None:
            expectation = {"exact": canon(decide_expectation(key, formula, max_states, budget, valid))}
        w.add({"kind": "decide", "alg": key, "text": formula.text, "max_states": max_states,
               "budget": budget, "mode": mode, "seed": sample_seed}, expectation)

    fixed = (act(0), act(1), var(0), var(1))
    axioms = AXIOMS[:3] if smoke else AXIOMS
    for key in ("bool2", "cost:3"):
        for scheme in axioms:
            add(key, scheme(*fixed, tables(key)), 3, budget, valid=True)
    # three of the instances that run to the budget again, with atoms and variables
    # renamed: ten jobs of like cost, so the workload's p90 lies among them
    for scheme in () if smoke else (AXIOMS[1], AXIOMS[3], AXIOMS[4]):
        add("cost:3", scheme(act(1), act(0), var(1), var(0), tables("cost:3")), 3, budget,
            valid=True)
    # pinned by the decision tests: 14 models to the first countermodel; #2 refuted at once
    add("bool2", imp(var(0), box(act(0), var(0))), 2, budget)
    add("cost:3", const(2), 2, budget)
    for key in ("bool2", "cost:3"):
        for template in rng.sample(REFUTABLE, 1 if smoke else 3):
            add(key, template(*names(rng), tables(key)), 2, budget)
    add("nc", iff(box(act(0), imp(const(1), var(0))), imp(const(1), box(act(0), var(0)))), 1, budget)
    for key in ("bool2", "cost:3") if smoke else ("bool2", "cost:3", "cost:8", "bool2xcost:3"):
        add(key, const(tables(key).one), tables(key).size, budget, valid=True)
    # sampling draws candidates at random, so a hit is checked as a countermodel by
    # the oracle; on the valid axioms the outcome is fixed. Those are all the choice
    # scheme at four states, alike in cost and many enough that the workload's median
    # lies among them.
    samples = 500 if smoke else 20000
    for i in range(2 if smoke else 34):
        key = ("bool2", "cost:3")[i % 2]
        T = tables(key)
        sample_seed = rng.randrange(10 ** 6)
        if i < (1 if smoke else 4):
            states = 4 + i // 2
            f = REFUTABLE[1 + i % 3](*names(rng), T)
            exp = {"sample": [key, f.tree, states, samples]}
        else:
            states = 4
            f = AXIOMS[3](*names(rng), T)
            exp = {"exact": canon({"kind": "no-countermodel", "max_states": states,
                                   "models_checked": samples, "exhaustive": False})}
        add(key, f, states, samples, "sample", sample_seed, exp)
    return w


def check_sample(expect, outcome: dict) -> bool:
    """A sampled hit must be a countermodel within the bounds, witnessed where the oracle says."""
    key, tree, max_states, budget = expect
    if outcome.get("kind") != "countermodel":
        return False
    T = tables(key)
    n = outcome["states"]
    if not (1 <= n <= max_states and 1 <= outcome["models_checked"] <= budget):
        return False
    ev = oracle.single(T, n, outcome["relations"], outcome["valuation"])
    fail = oracle.first_failure(T, ev.values(tree)[0])
    return fail == (outcome["witness"], outcome["value"])


# -- proofs -----------------------------------------------------------------------

CORPUS_ALGEBRAS = ("bool2", "cost:3", "cost:8", "cost:3xcost:3", "nc", "ni")


def _corpus(kind):
    for path in sorted((DATA / kind).glob("*.json")):
        yield path, json.loads(path.read_text())


def _script_expectation(key, lines, trees) -> dict:
    """Verdict of a known-good script: every line stands except a log line the
    oracle refutes over this algebra. Warnings follow the algebra's shape."""
    T = tables(key)
    warnings = (not T.commutative) + (not T.integral)
    for i, (line, tree) in enumerate(zip(lines, trees)):
        if line["by"]["kind"] == "log":
            if not oracle.log_consequence(T, [trees[r] for r in line["by"].get("refs", [])], tree):
                return {"accepted": False, "failed_line": i, "warnings": warnings, "lines": len(lines)}
    return {"accepted": True, "failed_line": None, "warnings": warnings, "lines": len(lines)}


def _atom_groups(rng, k, slots):
    """Split atoms p0..p(k-2), in seeded order, and one box atom, last, over the
    template's slots in groups of fixed sizes joined by seeded connectives. The
    shape, and so the cost of checking the line, does not depend on the seed."""
    atoms = [var(i) for i in range(k - 1)]
    rng.shuffle(atoms)
    atoms.append(box(plus(act(0)), var(9)))
    cuts = [k * j // slots for j in range(slots + 1)]
    groups = [atoms[a:b] for a, b in zip(cuts, cuts[1:])]
    out = []
    for g in groups:
        term = g[0]
        for atom in g[1:]:
            term = rng.choice((conj, disj, fuse))(term, atom)
        out.append(term)
    return out


# (slots, template): identities of commutative integral FL-algebras ...
MODUS_PONENS = (2, lambda a, b: imp(fuse(imp(a, b), a), b))
JOIN_ANTECEDENT = (3, lambda a, b, c: imp(imp(disj(a, b), c), conj(imp(a, c), imp(b, c))))
FUSE_DISTRIBUTES = (3, lambda a, b, c: imp(fuse(a, disj(b, c)), disj(fuse(a, b), fuse(a, c))))
# ... and twins that fail in every cost chain
BROKEN_LOG = (
    (2, lambda a, b: imp(a, conj(a, b))),
    (2, lambda a, b: imp(disj(a, b), a)),
    (2, lambda a, b: imp(conj(a, b), fuse(a, b))),
    (2, lambda a, b: imp(imp(a, b), imp(b, a))),
)

# (algebra, atoms, template, valid) per generated script; the template fixes a
# line's size, so each slot costs the same whatever the seed. The fourteen
# five-atom lines are the workload's p90, right below the five heavier lines.
# A broken twin stops at its first refuting assignment, so it stays cheap.
HEAVY_SLOTS = ([("cost:5", 5, MODUS_PONENS, True)] * 14
               + [("cost:5", 6, JOIN_ANTECEDENT, True)] * 4
               + [("cost:8", 5, FUSE_DISTRIBUTES, True)]
               + [("cost:5", 5, BROKEN_LOG[0], False), ("cost:5", 5, BROKEN_LOG[1], False),
                  ("cost:5", 6, BROKEN_LOG[2], False), ("cost:5", 6, BROKEN_LOG[3], False),
                  ("cost:8", 5, BROKEN_LOG[0], False), ("cost:5", 7, BROKEN_LOG[1], False)])
HEAVY_SMOKE = (("cost:5", 5, MODUS_PONENS, True), ("cost:5", 5, BROKEN_LOG[0], False))


def proofs(seed: int, smoke: bool = False) -> Workload:
    from flpdl.algebra import load_algebra
    from flpdl.parser import parse_formula

    rng = random.Random(f"proofs/{seed}")
    w = Workload("proofs")
    good = list(_corpus("proofs"))
    for path, raw in good[:3] if smoke else good:
        for key in CORPUS_ALGEBRAS[:2] if smoke else CORPUS_ALGEBRAS:
            # the corpus is text only; its trees come from the library's parser, the
            # verdict from the oracle
            A = load_algebra(SOURCES[key])
            trees = [parse_formula(line["formula"], A) for line in raw["lines"]]
            w.add({"kind": "proof", "alg": key, "script": {"lines": raw["lines"]},
                   "name": path.stem},
                  {"exact": canon(_script_expectation(key, raw["lines"], trees))})
    for path, raw in list(_corpus("proofs_bad"))[:3] if smoke else _corpus("proofs_bad"):
        key = {"builtin:cost:3": "cost:3"}[raw["algebra"]]
        w.add({"kind": "proof", "alg": key, "script": {"lines": raw["lines"]}, "name": path.stem},
              {"reject_at": raw["corrupted_line"]})
    for key, k, (slots, template), valid in HEAVY_SMOKE if smoke else HEAVY_SLOTS:
        T = tables(key)
        line = template(*_atom_groups(rng, k, slots))
        if oracle.log_consequence(T, [], line.tree) != valid:
            raise RuntimeError(f"generated log line has the wrong verdict: {line.text}")
        script = [{"formula": line.text, "by": {"kind": "log", "refs": []}}]
        verdict = {"accepted": valid, "failed_line": None if valid else 0,
                   "warnings": 0, "lines": 1}
        w.add({"kind": "proof", "alg": key, "script": {"lines": script}, "name": f"log{k}"},
              {"exact": canon(verdict)})
    return w


# -- cli --------------------------------------------------------------------------

def cli(seed: int, work: Path, smoke: bool = False) -> Workload:
    """Every subcommand on small files written to `work`, one child process per job."""
    rng = random.Random(f"cli/{seed}")
    w = Workload("cli")
    rel = work.relative_to(ROOT)

    def write(name, doc) -> str:
        (work / name).write_text(json.dumps(doc))
        return str(rel / name)

    def add(sub, argv, expectation, group=None, shape=None):
        w.jobs.append({"kind": "cli", "sub": sub, "group": group or sub, "argv": argv,
                       "shape": shape})
        w.expect.append(expectation)

    def ok(code, **fields):
        return {"code": code, "fields": fields}

    input_error = {"code": 2, "input_error": True}

    add("algebra-check", ["algebra-check", "--algebra", "builtin:bool2"],
        ok(0, valid=True, size=2, commutative=True, integral=True))
    if not smoke:
        add("algebra-check", ["algebra-check", "--algebra", "builtin:cost:8"],
            ok(0, valid=True, size=8, commutative=True, integral=True))
        add("algebra-check", ["algebra-check", "--algebra", "builtin:product(cost:8,cost:8)"],
            ok(0, valid=True, size=64, commutative=True, integral=True))
    broken = oracle.cost(4)
    fusion = broken.fuse.tolist()
    fusion[0][1] = 2    # the unit no longer fixes 1: no monoid
    add("algebra-check", ["algebra-check", "--algebra", write("broken.json", {
        "size": 4, "meet": broken.meet.tolist(), "join": broken.join.tolist(),
        "fusion": fusion, "one": 0, "zero": 0})], ok(1, valid=False))

    models = []
    for i, (key, n, shape) in enumerate((("cost:8", 10, "dense"), ("bool2", 8, "chain"),
                                         ("bool2xcost:3", 10, "chain"))):
        T = tables(key)
        formula = MC_TEMPLATES[i % len(MC_TEMPLATES)](*names(rng), T.bottom)
        model = random_model(rng, key, n, shape)
        path = write(f"m{i}.json", dict(model, algebra=SOURCES[key]))
        models.append((path, formula, model_expectation(key, model, formula), n, shape))
    for j, (path, formula, exp, n, shape) in enumerate(models[: 1 if smoke else 3]):
        if j < 2:
            top = exp["closure"][oracle.fmt(formula.tree)]
            add("eval", ["eval", "--model", path, "--formula", formula.text], ok(0, values=top),
                shape=shape)
            ok_, state, value = exp["valid"]
            add("valid", ["valid", "--model", path, "--formula", formula.text],
                ok(0, valid=True) if ok_ else ok(1, valid=False, state=state, value=value),
                shape=shape)
        add("filter", ["filter", "--model", path, "--seed-formula", formula.text, "--check"],
            ok(0, check="passed", classes=exp["classes"], class_of=exp["class_of"],
               closure_size=exp["closure_size"]), shape=shape)
    path, formula, exp, n, shape = models[0]
    state = rng.randrange(n)
    add("eval", ["eval", "--model", path, "--formula", formula.text, "--state", str(state)],
        ok(0, state=state, value=exp["closure"][oracle.fmt(formula.tree)][state]), shape=shape)

    add("decide", ["decide", "--algebra", "builtin:bool2", "--max-states", "2",
                   "--formula", "p0 -> [a0]p0"],
        ok(1, outcome="countermodel", models_checked=14, witness_state=1))
    add("decide", ["decide", "--algebra", "builtin:bool2", "--max-states", "2", "--budget", "1",
                   "--formula", "p0 -> [a0]p0"],
        ok(3, outcome="budget-exceeded",
           frontier={"states": 1, "next_index": 1, "models_checked": 1, "max_states": 2}))
    if not smoke:
        add("decide", ["decide", "--algebra", "builtin:cost:3", "--max-states", "3",
                       "--formula", "#one"],
            ok(0, outcome="valid-by-exhaustion", bound=3, models_checked=3))
        # eight axiom searches cut off by a budget, of like cost: the workload's p90
        # lies among them, above the interpreter floor that sets its median
        budget = 300000
        plain, renamed = (act(0), act(1), var(0), var(1)), (act(1), act(0), var(1), var(0))
        for key, scheme, swap in (("bool2", 3, False), ("bool2", 4, False), ("cost:3", 1, False),
                                  ("cost:3", 3, False), ("cost:3", 4, False), ("cost:3", 5, False),
                                  ("cost:3", 1, True), ("cost:3", 4, True)):
            T = tables(key)
            f = AXIOMS[scheme](*(renamed if swap else plain), T)
            out = oracle.exhaustive_outcome(T, f.tree, 3, budget)
            add("decide", ["decide", "--algebra", SOURCES[key], "--max-states", "3",
                           "--budget", str(budget), "--formula", f.text],
                ok(3, outcome="budget-exceeded", frontier=out["frontier"]))

    good = sorted((DATA / "proofs").glob("*.json"))
    bad = sorted((DATA / "proofs_bad").glob("*.json"))
    for path in rng.sample(good, 1):
        lines = len(json.loads(path.read_text())["lines"])
        add("prove-check", ["prove-check", str(path.relative_to(ROOT))],
            ok(0, accepted=True, lines=lines))
    if not smoke:
        from flpdl.algebra import load_algebra
        from flpdl.parser import parse_formula

        path = rng.choice(good)
        lines = json.loads(path.read_text())["lines"]
        A = load_algebra(SOURCES["cost:8"])
        exp = _script_expectation("cost:8", lines, [parse_formula(l["formula"], A) for l in lines])
        add("prove-check", ["prove-check", str(path.relative_to(ROOT)), "--algebra", "builtin:cost:8"],
            ok(0 if exp["accepted"] else 1, accepted=exp["accepted"], lines=len(lines), warnings=[]))
    for path in rng.sample(bad, 1):
        raw = json.loads(path.read_text())
        add("prove-check", ["prove-check", str(path.relative_to(ROOT))],
            ok(1, accepted=False, failed_line=raw["corrupted_line"]))
    if not smoke:
        add("selftest", ["selftest", "--only", "1"], {"code": 0, "selftest": 1})

    two = write("two.json", {"algebra": "builtin:cost:3", "states": 2,
                             "relations": {"a0": [[0, 1], [2, 0]]}, "valuation": {"p0": [0, 2]}})
    errors = [
        ["eval", "--model", two, "--formula", "p0 -> -> p1"],
        ["algebra-check", "--algebra", "builtin:nope"],
        ["eval", "--model", write("ragged.json", {"algebra": "builtin:cost:3", "states": 2,
                                                 "relations": {"a0": [[0, 1], [2]]}}),
         "--formula", "[a0]p0"],
        ["decide", "--algebra", "builtin:bool2", "--max-states", "0", "--formula", "p0"],
    ]
    for argv in errors[:2] if smoke else errors:
        add(argv[0], argv, input_error, "input-error")
    # contract defects present when this benchmark was written: each should be a
    # one-line error with exit 2; the signature says how the defect shows today
    add("eval", ["eval", "--model", two, "--formula", "p0", "--state", "5"],
        dict(input_error, defect={"code": 1, "stderr_has": "IndexError"}), "known-defect")
    add("eval", ["eval", "--model", two, "--formula", "p0", "--state", "-1"],
        dict(input_error, defect={"code": 0, "stderr_has": ""}), "known-defect")
    add("eval", ["eval", "--model", two, "--formula", "!" * 3000 + "p0"],
        dict(input_error, defect={"code": 1, "stderr_has": "RecursionError"}), "known-defect")
    return w


def check_cli(expect: dict, outcome: dict) -> str:
    """'ok', 'known-defect' or 'failed' for one cli job."""
    if "error" in outcome:
        return "failed"
    code, out, err = outcome["code"], outcome["stdout"], outcome["stderr"]
    if expect.get("input_error"):
        lines = err.strip().splitlines()
        if code == 2 and not out.strip() and len(lines) == 1 and lines[0].startswith("error:"):
            return "ok"
        defect = expect.get("defect")
        if defect and code == defect["code"] and defect["stderr_has"] in err:
            return "known-defect"
        return "failed"
    if code != expect["code"]:
        return "failed"
    try:
        doc = json.loads(out)
    except ValueError:
        return "failed"
    if "selftest" in expect:
        return "ok" if len(doc) == expect["selftest"] and all(r["passed"] for r in doc) else "failed"
    return "ok" if all(doc.get(k) == v for k, v in expect["fields"].items()) else "failed"


GENERATORS = {"model-check": model_check, "search": search, "proofs": proofs}
