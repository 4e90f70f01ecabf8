"""Independent expectations for the benchmark's correctness gate.

Nothing here calls the code under test. Algebra tables come from the
definitions of the builtins (or from a JSON table), residuals are derived by
brute force from fusion and order, and formulas are evaluated over batches of
models with plain table lookups. Closure uses repeated squaring,
T <- T u T;T, a different algorithm from the library's T <- R u T;R; both
reach the least transitive extension because fusion distributes over joins.

The evaluator reads flpdl syntax trees by class name only. Expectations are
keyed by this module's fully parenthesized text (fmt) of the generator's
trees, and the library's results by the same text of the trees its parser
built, so a parse that differs from the generator's tree is a mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Tables:
    """Operation tables of a finite FL-algebra as numpy arrays."""

    size: int
    meet: np.ndarray
    join: np.ndarray
    fuse: np.ndarray
    imp: np.ndarray    # imp[a, c] = c / a, the value of "a -> c"
    ldiv: np.ndarray   # ldiv[a, c] = a \ c
    leq: np.ndarray
    one: int
    zero: int
    bottom: int
    top: int

    @classmethod
    def from_ops(cls, size, meet, join, fuse, one, zero) -> "Tables":
        meet = np.array(meet, dtype=np.int64).reshape(size, size)
        join = np.array(join, dtype=np.int64).reshape(size, size)
        fuse = np.array(fuse, dtype=np.int64).reshape(size, size)
        leq = join == np.arange(size)[None, :]
        bottom = next(a for a in range(size) if leq[a].all())
        top = next(a for a in range(size) if leq[:, a].all())
        imp = np.full((size, size), bottom, dtype=np.int64)
        ldiv = np.full((size, size), bottom, dtype=np.int64)
        for a in range(size):
            for c in range(size):
                for b in range(size):
                    if leq[fuse[b, a], c]:
                        imp[a, c] = join[imp[a, c], b]
                    if leq[fuse[a, b], c]:
                        ldiv[a, c] = join[ldiv[a, c], b]
        return cls(size, meet, join, fuse, imp, ldiv, leq, int(one), int(zero),
                   int(bottom), int(top))

    @property
    def commutative(self) -> bool:
        return bool((self.fuse == self.fuse.T).all())

    @property
    def integral(self) -> bool:
        return self.one == self.top


def bool2() -> Tables:
    return Tables.from_ops(2, [[0, 0], [0, 1]], [[0, 1], [1, 1]],
                           [[0, 0], [0, 1]], one=1, zero=0)


def cost(k: int) -> Tables:
    """Costs 0..k-1 read in reverse: 0 is best, join is min, fusion adds with a cap."""
    r = range(k)
    return Tables.from_ops(k, [[max(a, b) for b in r] for a in r],
                           [[min(a, b) for b in r] for a in r],
                           [[min(a + b, k - 1) for b in r] for a in r], one=0, zero=0)


def product(left: Tables, right: Tables) -> Tables:
    nl, nr = left.size, right.size

    def table(tl, tr):
        return [[tl[i, k] * nr + tr[j, m] for k in range(nl) for m in range(nr)]
                for i in range(nl) for j in range(nr)]

    return Tables.from_ops(nl * nr, table(left.meet, right.meet), table(left.join, right.join),
                           table(left.fuse, right.fuse), one=left.one * nr + right.one,
                           zero=left.zero * nr + right.zero)


def from_source(source) -> Tables:
    """Tables for a builtin: URI or an inline JSON algebra description."""
    if isinstance(source, dict):
        return Tables.from_ops(source["size"], source["meet"], source["join"],
                               source["fusion"], source["one"], source["zero"])
    name = source[len("builtin:"):] if source.startswith("builtin:") else source
    if name == "bool2":
        return bool2()
    if name.startswith("cost:"):
        return cost(int(name[5:]))
    if name.startswith("product(") and name.endswith(")"):
        body = name[8:-1]
        depth = 0
        for i, ch in enumerate(body):
            depth += (ch == "(") - (ch == ")")
            if ch == "," and depth == 0:
                return product(from_source(body[:i].strip()), from_source(body[i + 1:].strip()))
    raise ValueError(f"no tables for {source!r}")


# -- syntax, read by class name ----------------------------------------------

def kind(node) -> str:
    return type(node).__name__


def fmt(f) -> str:
    """Fully parenthesized text of a formula tree; the key the gate compares by."""
    k = kind(f)
    if k == "Var":
        return f"p{f.index}"
    if k == "Const":
        return f"#{f.index}"
    if k == "Box":
        return f"[{fmt_action(f.action)}]{fmt(f.body)}"
    op = {"And": "&", "Or": "|", "Fuse": "*", "LDiv": "\\", "RDiv": "->"}[k]
    return f"({fmt(f.left)} {op} {fmt(f.right)})"


def fmt_action(a) -> str:
    k = kind(a)
    if k == "Atom":
        return f"a{a.index}"
    if k == "Plus":
        return f"{fmt_action(a.body)}+"
    op = {"Choice": "u", "Seq": ";"}[k]
    return f"({fmt_action(a.left)} {op} {fmt_action(a.right)})"


def closure(seed) -> list:
    """Closed formula set of the seed: subformulas plus one-step box unfolding."""
    out: dict = {}
    work = [seed]
    while work:
        f = work.pop()
        if f in out:
            continue
        out[f] = None
        k = kind(f)
        if k in ("And", "Or", "Fuse", "LDiv", "RDiv"):
            work += [f.left, f.right]
        elif k == "Box":
            work.append(f.body)
            a, ak = f.action, kind(f.action)
            box = type(f)
            if ak == "Choice":
                work += [box(a.left, f.body), box(a.right, f.body)]
            elif ak == "Seq":
                work.append(box(a.left, box(a.right, f.body)))
            elif ak == "Plus":
                work += [box(a.body, f), box(a.body, f.body)]
    return list(out)


def actions_bottom_up(formulas) -> list:
    """Every action subterm of the formulas' boxes, children before parents."""
    out: dict = {}

    def visit(a):
        if a in out:
            return
        k = kind(a)
        if k == "Plus":
            visit(a.body)
        elif k in ("Choice", "Seq"):
            visit(a.left)
            visit(a.right)
        out[a] = None

    for f in formulas:
        if kind(f) == "Box":
            visit(f.action)
    return list(out)


def atoms_and_vars(formula) -> tuple[list[int], list[int]]:
    atoms, vars_ = set(), set()

    def act(a):
        k = kind(a)
        if k == "Atom":
            atoms.add(a.index)
        elif k == "Plus":
            act(a.body)
        else:
            act(a.left)
            act(a.right)

    stack = [formula]
    while stack:
        f = stack.pop()
        k = kind(f)
        if k == "Var":
            vars_.add(f.index)
        elif k == "Box":
            act(f.action)
            stack.append(f.body)
        elif k != "Const":
            stack += [f.left, f.right]
    return sorted(atoms), sorted(vars_)


def log_atoms(formulas) -> list:
    """Variables and outermost boxes: the opaque atoms of a propositional check."""
    out: dict = {}
    stack = list(reversed(formulas))
    while stack:
        f = stack.pop()
        k = kind(f)
        if k in ("Var", "Box"):
            out.setdefault(f, None)
        elif k != "Const":
            stack += [f.right, f.left]
    return list(out)


# -- batch evaluation ---------------------------------------------------------

def compose(T: Tables, r: np.ndarray, q: np.ndarray) -> np.ndarray:
    out = np.full(r.shape, T.bottom, dtype=np.int64)
    for x in range(r.shape[1]):
        out = T.join[out, T.fuse[r[:, :, x, None], q[:, None, x, :]]]
    return out


def plus(T: Tables, r: np.ndarray) -> np.ndarray:
    t = r
    while True:
        nxt = T.join[t, compose(T, t, t)]
        if np.array_equal(nxt, t):
            return t
        t = nxt


class Evaluator:
    """Values of formulas over a batch of models: relations (B, n, n), valuations (B, n)."""

    def __init__(self, T: Tables, rels: dict, vals: dict, batch: int, n: int):
        self.T, self.rels, self.vals, self.batch, self.n = T, rels, vals, batch, n
        self._rel: dict = {}
        self._val: dict = {}

    def relation(self, a) -> np.ndarray:
        hit = self._rel.get(a)
        if hit is not None:
            return hit
        T, k = self.T, kind(a)
        if k == "Atom":
            out = self.rels.get(a.index)
            if out is None:
                out = np.full((self.batch, self.n, self.n), T.bottom, dtype=np.int64)
        elif k == "Choice":
            out = T.join[self.relation(a.left), self.relation(a.right)]
        elif k == "Seq":
            out = compose(T, self.relation(a.left), self.relation(a.right))
        else:
            out = plus(T, self.relation(a.body))
        self._rel[a] = out
        return out

    def values(self, f) -> np.ndarray:
        hit = self._val.get(f)
        if hit is not None:
            return hit
        T, k = self.T, kind(f)
        if k == "Var":
            out = self.vals.get(f.index)
            if out is None:
                out = np.full((self.batch, self.n), T.zero, dtype=np.int64)
        elif k == "Const":
            out = np.full((self.batch, self.n), f.index, dtype=np.int64)
        elif k == "Box":
            rel = self.relation(f.action)
            body = self.values(f.body)
            out = np.full((self.batch, self.n), T.top, dtype=np.int64)
            for t in range(self.n):
                out = T.meet[out, T.imp[rel[:, :, t], body[:, t, None]]]
        else:
            left, right = self.values(f.left), self.values(f.right)
            table = {"And": T.meet, "Or": T.join, "Fuse": T.fuse,
                     "LDiv": T.ldiv, "RDiv": T.imp}[k]
            out = table[left, right]
        self._val[f] = out
        return out


def single(T: Tables, n: int, relations: dict, valuation: dict) -> Evaluator:
    rels = {int(a): np.array(m, dtype=np.int64).reshape(1, n, n) for a, m in relations.items()}
    vals = {int(p): np.array(row, dtype=np.int64).reshape(1, n) for p, row in valuation.items()}
    return Evaluator(T, rels, vals, 1, n)


def first_failure(T: Tables, row) -> tuple[int, int] | None:
    """First state whose value is not above one, with that value."""
    for s, v in enumerate(row):
        if not T.leq[T.one, int(v)]:
            return s, int(v)
    return None


# -- expectations per job kind ------------------------------------------------

def candidate_count(size: int, n: int, n_atoms: int, n_vars: int) -> int:
    return size ** (n_atoms * n * n + n_vars * n)


def first_countermodel(T: Tables, formula, max_states: int, chunk: int = 1 << 12):
    """First refuting candidate in the documented enumeration order, or None.

    Order: states ascending; relation matrices row-major with the first atom
    most significant, then valuation rows, first variable most significant.
    Returns (n, relations, valuation, witness, value, models_checked).
    """
    atoms, vars_ = atoms_and_vars(formula)
    checked = 0
    for n in range(1, max_states + 1):
        total = candidate_count(T.size, n, len(atoms), len(vars_))
        digits_total = len(atoms) * n * n + len(vars_) * n
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            digits = np.empty((digits_total, len(idx)), dtype=np.int64)
            rem = idx.copy()
            for d in range(digits_total - 1, -1, -1):
                rem, digits[d] = np.divmod(rem, T.size)
            rels, vals, pos = {}, {}, 0
            for a in atoms:
                rels[a] = digits[pos:pos + n * n].T.reshape(len(idx), n, n)
                pos += n * n
            for p in vars_:
                vals[p] = digits[pos:pos + n].T
                pos += n
            v = Evaluator(T, rels, vals, len(idx), n).values(formula)
            ok = T.leq[T.one, v].all(axis=1)
            if not ok.all():
                hit = int(np.argmin(ok))
                witness, value = first_failure(T, v[hit])
                return (n, {a: rels[a][hit].tolist() for a in atoms},
                        {p: vals[p][hit].tolist() for p in vars_},
                        witness, value, checked + hit + 1)
        checked += total
    return None


def exhaustive_outcome(T: Tables, formula, max_states: int, budget: int) -> dict:
    """Outcome of an exhaustive search, from the candidate counts alone.

    Valid for formulas with no countermodel up to max_states: the search
    either runs out of budget at a predictable frontier or finishes.
    """
    atoms, vars_ = atoms_and_vars(formula)
    checked = 0
    for n in range(1, max_states + 1):
        total = candidate_count(T.size, n, len(atoms), len(vars_))
        if checked + total > budget:
            return {"kind": "budget", "frontier": {
                "states": n, "next_index": budget - checked,
                "models_checked": budget, "max_states": max_states}}
        checked += total
    bound = T.size ** len(closure(formula))
    if max_states >= bound:
        return {"kind": "valid-by-exhaustion", "bound": bound, "models_checked": checked}
    return {"kind": "no-countermodel", "max_states": max_states,
            "models_checked": checked, "exhaustive": True}


def log_consequence(T: Tables, premises, conclusion) -> bool:
    """Every assignment to the opaque atoms that makes the premises hold makes the conclusion hold."""
    atoms = log_atoms(list(premises) + [conclusion])
    count = T.size ** len(atoms)
    grid = np.indices((T.size,) * len(atoms), dtype=np.int64).reshape(len(atoms), count) \
        if atoms else np.zeros((0, 1), dtype=np.int64)
    env = {a: grid[i] for i, a in enumerate(atoms)}
    width = grid.shape[1]

    def value(f):
        hit = env.get(f)
        if hit is not None:
            return hit
        k = kind(f)
        if k == "Const":
            return np.full(width, f.index, dtype=np.int64)
        table = {"And": T.meet, "Or": T.join, "Fuse": T.fuse, "LDiv": T.ldiv, "RDiv": T.imp}[k]
        return table[value(f.left), value(f.right)]

    bound = np.full(width, T.top, dtype=np.int64)
    for g in premises:
        bound = T.meet[bound, value(g)]
    holds = T.leq[T.one, bound]
    return bool(T.leq[T.one, value(conclusion)][holds].all())


def cheapest_walks(weights: np.ndarray, cap: int) -> np.ndarray:
    """Transitive closure over a cost chain as capped shortest walks (Floyd-Warshall)."""
    d = weights.astype(np.int64).copy()
    for k in range(d.shape[0]):
        d = np.minimum(d, d[:, k, None] + d[None, k, :])
    return np.minimum(d, cap)


def classical_values(relations: dict, valuation: dict, n: int, formula) -> list[int]:
    """Two-valued reading through flpdl.oracles, the library's independent classical checker."""
    from flpdl.oracles import ClassicalModel, classical_states

    cm = ClassicalModel(n, {int(a): {(s, t) for s in range(n) for t in range(n) if m[s][t] == 1}
                            for a, m in relations.items()},
                        {int(p): {s for s, v in enumerate(row) if v == 1}
                         for p, row in valuation.items()})
    truth = classical_states(cm, formula)
    return [1 if s in truth else 0 for s in range(n)]
