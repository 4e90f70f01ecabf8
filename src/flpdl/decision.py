"""Validity by type elimination, and countermodel search by enumeration or sampling.

`decide_exact` decides validity over the closure's value types (Pratt
1979; Harel, Kozen & Tiuryn 2000, ch. 6) within a budget of work.
`decide_bounded` asks it under the search's own budget, capped at _EXACT
units so that its memory does not grow with the budget: an exhaustive
scan asks when it reaches two states without a hit, so the 1-state
layer, where refutations are cheapest to find, never waits for it, and
sampling asks before it draws, so that a valid formula draws nothing and
a refutable one pays the attempt on top of its draws. When it proves the
formula valid, no candidate can be a hit, so the scan still walks its
blocks, decoding and pruning frames, but evaluates nothing, and sampling
returns the report its draws would give without drawing. When the
formula is invalid, or the attempt gives up, the scan runs on as it
would without it. Either way every outcome, count and frontier is the
same: what a scan counts depends on candidate positions and pruning,
never on values.

Candidate models over the atoms and variables a formula mentions are laid
out in one canonical order: state count ascending; within a state count,
the relation matrices in lexicographic element order row by row (first
atom most significant), then the valuations (first variable most
significant, its state 0 entry before state 1). The first countermodel in
this order is the reported one, so outcomes are reproducible; any
partitioning of the index space across workers must still report the
canonically first hit.

A candidate's index thus splits into a frame index (the relation digits)
and a valuation index below it, and each frame owns a run of
|algebra| ** (variables * n) consecutive candidates. Enumeration works in
blocks of at most _CHUNK consecutive candidates that hold whole frames,
or one run inside one frame when the frame is wider or the budget ends in
it, so all frames of a block run the same valuations. A block decodes its
frames' digits as columns, drops every frame that some transposition of
two states maps to a smaller frame index (one integer product per block,
exact in int64 words of base-`size` digits below 2 ** 61, whose first
nonzero word decides), and evaluates the rest as one frame-major block of
a kernel plan compiled once per search: the valuations are decoded once,
into the first frame's variable slots, and copied to the others, each box
adds a frame's relation to its run by one broadcast, and every block runs
in the plan's reused workspace.

Pruning cannot change the reported countermodel. Suppose the first hit
(F, v) had a transposition t with tF < F. Renaming the states by t gives
the isomorphic model (tF, tv), refuted at the renamed witness; frame
digits are more significant than valuation digits, so its index is
smaller, and (F, v) was not the first hit. Only frames that are not least
in their orbit are dropped, at any state count.

Counts stay in canonical index positions: the budget, `models_checked` and
the BudgetExceeded frontier count every candidate position passed,
pruned ones included, so they equal those of a scan of every candidate;
`models_evaluated` counts the candidates among them whose frames
survived pruning, whether the kernel ran them or the exact verdict
settled them. Every hit is re-verified by the reference evaluator in
`oracles`, which shares no code with the kernel, before being returned.

Exhausting every frame up to the class-count bound |algebra| ** |closure|
proves validity (the filtration lemma), so exhaustive search stops there
whatever max_states asks; anything less only reports the bound reached.
Sampling mode draws frames and valuations uniformly at random and can
never prove validity, so its no-hit outcome is capped at the same report;
it evaluates every candidate it draws, through the same plan, and draws
models of at most `semantics.MAX_STATES` states.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from . import kernel
from .algebra import FLAlgebra
from .errors import BudgetExceeded
from .oracles import reference_values
from .relations import XRelation
from .semantics import MAX_STATES, Frame, Model
from .syntax import (And, Atom, Box, Choice, Formula, Fuse, LDiv, Or, Plus, RDiv, Seq, Var,
                     action_atoms, iter_closure, require_formula, variables)

DEFAULT_BUDGET = 10 ** 6
CLOSURE_CAP = 10 ** 4   # closure formulas theoretical_bound counts at most
_CHUNK = 1 << 14
_EXACT = 1 << 22      # units of work decide_bounded's exact attempt spends at most


def default_budget(fallback: int = DEFAULT_BUDGET) -> int:
    """Budget used when none is given: FLPDL_BUDGET if set (its one reader), else fallback."""
    raw = os.environ.get("FLPDL_BUDGET")
    if raw:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"FLPDL_BUDGET must be an integer, got {raw!r}") from exc
        if value < 1:
            raise ValueError("FLPDL_BUDGET must be positive")
        return value
    return fallback


def closure_size(formula: Formula, cap: int) -> int:
    """The number of the formula's closure formulas, made one at a time by `iter_closure`
    and counted no further than cap + 1: a count past `cap` is a lower bound."""
    return sum(1 for _ in itertools.islice(iter_closure([formula]), cap + 1))


def theoretical_bound(formula: Formula, algebra: FLAlgebra) -> int:
    """State-count bound sufficient for exhaustive validity checking.

    Equals |algebra| ** |closure of the formula|; arbitrary precision, so
    it is often far beyond anything enumerable. Past CLOSURE_CAP closure formulas it makes
    no more and raises BudgetExceeded with a {"closure": CLOSURE_CAP + 1} frontier.
    """
    count = closure_size(formula, CLOSURE_CAP)
    if count > CLOSURE_CAP:
        raise BudgetExceeded(f"closure has more than {CLOSURE_CAP} formulas",
                             frontier={"closure": count}, models_evaluated=0)
    return algebra.size ** count


@dataclass(frozen=True)
class Countermodel:
    """A model and state where the formula's value is not above one."""

    model: Model
    witness_state: int
    value: int
    models_checked: int
    models_evaluated: int


@dataclass(frozen=True)
class NoCountermodelUpTo:
    """No hit within the searched space; proves nothing beyond it."""

    max_states: int
    models_checked: int
    models_evaluated: int
    exhaustive: bool


@dataclass(frozen=True)
class ValidByExhaustion:
    """Every model up to the sufficient bound was checked; the formula is valid."""

    bound: int
    models_checked: int
    models_evaluated: int


DecisionOutcome = Countermodel | NoCountermodelUpTo | ValidByExhaustion


# -- exact validity by type elimination ------------------------------------------

@dataclass(frozen=True)
class ExactVerdict:
    """Validity decided over the closure's types, with the types that survived.

    `types[j]` holds the value of `closure[j]` at each surviving type. Those
    types, weighted as `decide_exact` says, form a model in which every
    type takes its own values (the truth lemma), so the type model of an
    invalid verdict is a countermodel. `rounds` counts the elimination
    rounds, the last of which dropped nothing.
    """

    valid: bool
    closure: tuple[Formula, ...]
    types: np.ndarray
    rounds: int


def _is_base(f: Formula) -> bool:
    """A base coordinate: a variable, or a box over an atom or a `+`."""
    return type(f) is Var or (type(f) is Box and type(f.action) in (Atom, Plus))


def _unfolded(closure: list) -> dict:
    """Each closure formula rewritten so that every box sits over an atom or a `+`:
    [A u B]h as [A]h & [B]h, [A;B]h as [A][B]h, whose parts the closure holds."""
    done: dict = {}
    for root in closure:
        stack = [root]
        while stack:
            f = stack[-1]
            kind, action = type(f), getattr(f, "action", None)
            if f in done:
                stack.pop()
                continue
            if kind in (And, Or, Fuse, LDiv, RDiv):
                parts = (f.left, f.right)
            elif type(action) is Choice:
                parts = (Box(action.left, f.body), Box(action.right, f.body))
            elif type(action) is Seq:
                parts = (Box(action.left, Box(action.right, f.body)),)
            else:
                parts = ()
            todo = [p for p in parts if p not in done]
            if todo:
                stack += todo
                continue
            stack.pop()
            rewritten = [done[p] for p in parts]
            done[f] = (f if not parts else rewritten[0] if len(parts) == 1
                       else (And if kind is Box else kind)(*rewritten))
    return done


def _distinct(rows: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct columns of rows, in lexicographic order, and each column's number among
    them, as np.unique(rows, axis=1) gives them: each column read as one int64 key, base
    `size` digits most significant first, re-numbered densely whenever another digit could
    pass 2 ** 62, so every sort is of integers."""
    key, span = np.zeros(rows.shape[1], np.int64), 1
    for row in rows:
        if span * size > 2 ** 62:
            values, key = np.unique(key, return_inverse=True)
            span = len(values)
        key = key * size + row
        span *= size
    _, first, number = np.unique(key, return_index=True, return_inverse=True)
    return rows[:, first], number


def decide_exact(formula: Formula, algebra: FLAlgebra, budget: int | None = None) -> ExactVerdict:
    """Decide validity exactly, by type elimination over the closure (Pratt 1979).

    A type gives a value to each base coordinate of the closure: each
    variable, each box over an atom and each box over a `+`. Every other
    closure formula is derived from those through one kernel plan of
    one-state members, a box over u or ; unfolded to its parts. Types that
    break the local law [A+]h = [A]h & [A][A+]h are dropped first. Then
    each round computes every base box from the claimed body values on
    the surviving types and drops each type whose claim differs, until a
    round drops nothing; the formula is valid iff one is below its value at
    every survivor.

    The weight of atom a from type t to u is the greatest r with
    t([a]h) <= u(h) / r for each box [a]h of the closure, the meet of
    ldiv[t([a]h), u(h)]: it reads only t's claim vector and u's body
    vector. So [a]v at t is the meet, over the distinct pairs of a body
    vector and a value of v among the survivors, of imp[weight, value]: a
    table of (distinct claim vectors) x (distinct pairs), gathered by
    claim id, its rows met by `kernel.contract`; no type x type weight is
    made. A u B meets, A;B nests, and [A+]v is the limit of
    X <- [A](v & X) from [A]v, a decreasing chain.

    The budget counts closure formulas made, type cells (types times plan
    slots) and table entries built; past it BudgetExceeded is raised with
    a {"types", "round"} frontier, round 0 before the first elimination
    round, and before the types are made once the closure asks for more
    cells than the budget has left.
    """
    require_formula(formula)
    if budget is None:
        budget = default_budget()
    if budget < 1:
        raise ValueError("budget must be positive")
    size = algebra.size
    spent, frontier = 0, {"types": 1, "round": 0}

    def charge(units: int, ahead: int = 0) -> None:
        """Spend `units`; past the budget, `ahead` units still to come included, give up."""
        nonlocal spent
        spent += units
        if spent + ahead > budget:
            raise BudgetExceeded("budget exhausted before the types settled",
                                 frontier=dict(frontier), models_evaluated=0)

    closure, base = [], []
    for f in iter_closure([formula]):
        closure.append(f)
        if _is_base(f):
            base.append(f)
            frontier["types"] *= size
        charge(1, frontier["types"] * len(base))
    unfolded = _unfolded(closure)
    plan = kernel.plan([unfolded[f] for f in closure], algebra, set(base).__contains__)
    count = frontier["types"]
    charge(count * len(plan.ids))
    views = plan.bind(1, count)
    kernel.digits(np.arange(count, dtype=np.int64), size,
                  [views[plan.inputs[f]][0] for f in base])
    plan.run({})
    values, slot = views[:, 0], {f: plan.ids[unfolded[f]] for f in closure}

    keep = np.ones(count, bool)
    boxes, claims = [f for f in base if type(f) is Box], {}
    for f in boxes:
        step = f.action if type(f.action) is Atom else f.action.body
        if step is f.action:
            claim, body = claims.setdefault(step, ([], []))
            claim.append(slot[f])
            body.append(slot[f.body])
        else:
            keep &= values[slot[f]] == kernel.meet(
                algebra, values[slot[Box(step, f.body)]], values[slot[Box(step, f)]])
    alive = np.flatnonzero(keep)

    def atom_box(atom, v):
        weight, claim_id, body_id = weights[atom]
        # the distinct (body vector, value) pairs, ascending, as a mask over every pair: a plain
        # np.unique would import numpy.ma, tens of ms, in every fresh process that decides
        seen = np.zeros(weight.shape[1] * size, bool)
        seen[body_id * size + v] = True
        pairs = np.flatnonzero(seen)
        charge(len(weight) * len(pairs))
        out = np.empty(len(weight), v.dtype)
        return kernel.contract(algebra, "box", weight[:, pairs // size].T,
                               (pairs % size)[:, None], out)[claim_id]

    def box(action, v):
        """[action]v on the surviving types, by a walk of the action on a stack."""
        ops, done = [(Box, action, v)], []
        while ops:
            op, *args = ops.pop()
            if op is Box:
                action, v = args
                kind = type(action)
                if kind is Atom:
                    done.append(atom_box(action, v))
                elif kind is Choice:
                    ops += [(And,), (Box, action.right, v), (Box, action.left, v)]
                elif kind is Seq:
                    ops += [(Seq, action.left), (Box, action.right, v)]
                else:
                    ops += [(Plus, action.body, v, None), (Box, action.body, v)]
            elif op is And:
                done.append(kernel.meet(algebra, done.pop(), done.pop()))
            elif op is Seq:
                ops.append((Box, args[0], done.pop()))
            else:   # X, the last iterate, on `done`: stop where it repeats
                step, v, last = args
                x = done.pop()
                if last is not None and np.array_equal(x, last):
                    done.append(x)
                else:
                    ops += [(Plus, step, v, x), (Box, step, kernel.meet(algebra, v, x))]
        return done[0]

    while True:
        frontier.update(types=len(alive), round=frontier["round"] + 1)
        x = values[:, alive]
        weights = {}
        for atom, (claim, body) in claims.items():
            claim_rows, claim_id = _distinct(x[claim], size)
            body_rows, body_id = _distinct(x[body], size)
            charge(claim_rows.size * body_rows.shape[1])
            weight = np.empty((claim_rows.shape[1], body_rows.shape[1]), x.dtype)
            kernel.contract(algebra, "weight", claim_rows[:, :, None], body_rows[:, None], weight)
            weights[atom] = weight, claim_id, body_id
        agree = np.ones(len(alive), bool)
        for f in boxes:
            agree &= box(f.action, x[slot[f.body]]) == x[slot[f]]
        if agree.all():
            break
        alive = alive[agree]
    valid = bool(algebra.arrays.leq[algebra.one].take(x[slot[formula]]).all())
    return ExactVerdict(valid, tuple(closure), x[[slot[f] for f in closure]], frontier["round"])


# -- candidate blocks through the kernel ---------------------------------------

def _first_hit(holds: np.ndarray, values: np.ndarray) -> int | None:
    """Position of the first candidate whose (n, batch) values are not all above one, if any."""
    ok = holds.take(values).all(axis=0)
    return None if ok.all() else int(np.argmin(ok))


def _swaps(n: int, atoms: int, size: int) -> np.ndarray:
    """(words, transpositions, cells) int64 weights: weights[w] @ digits is word w of
    index(tau F) - index(F) per transposition tau of two states, F's digits a column.

    Digit (a, s, t) of F is entry (s, t) of atom a's matrix; tau F holds entry
    (tau s, tau t) there. Word w weighs the g positions after the first w * g,
    g the largest with size ** g <= 2 ** 61, so each word and partial sum lies
    strictly between -2 ** 62 and 2 ** 62, and the first nonzero word is the
    sign of the difference.
    """
    cells, g = atoms * n * n, 1
    while g < cells and size ** (g + 1) <= 2 ** 61:
        g += 1
    place = np.array([size ** (min(cells, p // g * g + g) - 1 - p) for p in range(cells)], np.int64)
    # own[w, p]: position p's place value within word w, zero outside it
    own = np.where(np.arange(cells) // g == np.arange(max(1, -(-cells // g)))[:, None], place, 0)
    state, (a, s, t) = np.arange(n), np.indices((atoms, n, n)).reshape(3, -1)
    tau = np.array([np.where(state == i, j, np.where(state == j, i, state))
                    for i, j in itertools.combinations(range(n), 2)], np.intp).reshape(-1, n)
    # tau F holds F's digit (a, tau s, tau t) at position (a, s, t), and tau is its own inverse
    return own[:, a * n * n + tau[:, s] * n + tau[:, t]] - own[:, None]


def _least_frames(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Mask of the frames, (cells, count) digit rows, that no transposition maps to a smaller
    frame index: one integer product, each difference's first nonzero word its sign."""
    sign = weights @ rows
    for later in sign[1:]:
        np.copyto(sign[0], later, where=sign[0] == 0)
    return (sign[0] >= 0).all(axis=0)


def _materialize(algebra: FLAlgebra, n: int, rels: dict, vals: dict) -> Model:
    """The model of one candidate, from its relation matrices and valuation rows."""
    relations = {a.index: XRelation(algebra, r) for a, r in rels.items()}
    valuation = {p.index: tuple(v.tolist()) for p, v in vals.items()}
    return Model(Frame(algebra, n, relations), valuation)


def _verify_hit(model: Model, formula: Formula, checked: int, evaluated: int) -> Countermodel:
    A = model.algebra
    for state, value in enumerate(reference_values(model, formula)):
        if not A.leq(A.one, value):
            return Countermodel(model, state, value, checked, evaluated)
    raise AssertionError("batch scan reported a countermodel the reference evaluator rejects")


def _proved_valid(formula: Formula, algebra: FLAlgebra, budget: int) -> bool:
    """Whether `decide_exact` proves the formula valid within min(budget, _EXACT) units of
    work; an attempt that gives up reads False."""
    try:
        return decide_exact(formula, algebra, min(budget, _EXACT)).valid
    except BudgetExceeded:
        return False


def decide_bounded(formula: Formula, algebra: FLAlgebra, max_states: int,
                   budget: int | None = None, mode: str = "exhaustive",
                   seed: int = 0) -> DecisionOutcome:
    """Search models with 1..max_states states for one refuting the formula.

    Only the action atoms and variables the formula mentions vary; that
    loses no countermodels because evaluation never looks at anything
    else. The budget counts candidate positions in the canonical order,
    pruned frames included; running out of it raises BudgetExceeded whose
    frontier records how far the scan got, and whose `models_evaluated`
    says how many of those candidates survived pruning. The same budget,
    capped at _EXACT, bounds the exact attempt (see the module notes).
    Sampling mode instead draws `budget` random candidates (state count
    uniform on 1..max_states, entries uniform) from a non-negative `seed`
    and cannot prove validity; it takes max_states up to
    `semantics.MAX_STATES`, the cap on a model file.
    """
    require_formula(formula)
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    if mode not in ("exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sample" and max_states > MAX_STATES:
        raise ValueError(f"sample mode draws models of at most {MAX_STATES} states, "
                         f"not {max_states}")
    if mode == "sample" and seed < 0:
        raise ValueError(f"seed must be non-negative, not {seed}")
    if budget is None:
        budget = default_budget()
    if budget < 1:
        raise ValueError("budget must be positive")
    if mode == "exhaustive":
        return _enumerate(formula, algebra, max_states, budget,
                          lambda: _proved_valid(formula, algebra, budget))
    if _proved_valid(formula, algebra, budget):
        return NoCountermodelUpTo(max_states, budget, budget, exhaustive=False)
    return _sample(formula, algebra, max_states, budget, seed)


def _plan(formula: Formula, algebra: FLAlgebra) -> tuple:
    """The formula's atoms and variables, and its plan with those given."""
    atoms = tuple(Atom(a) for a in action_atoms(formula))
    vars_ = tuple(Var(p) for p in variables(formula))
    return atoms, vars_, kernel.plan((formula,), algebra, set(atoms + vars_).__contains__)


def _sample(formula: Formula, algebra: FLAlgebra, max_states: int, budget: int,
            seed: int) -> Countermodel | NoCountermodelUpTo:
    """`budget` candidates drawn from `seed`, each evaluated, the first hit in draw order
    reported."""
    atoms, vars_, plan = _plan(formula, algebra)
    size, holds, checked = algebra.size, algebra.arrays.leq[algebra.one], 0
    rng = np.random.default_rng(seed)

    def drawn(ns, states):
        """A block's state-count groups with their draws, drawn in ascending state count."""
        for n in states.tolist():
            sel = np.where(ns == n)[0]
            g = len(sel)
            yield (sel, n,
                   {a: rng.integers(0, size, size=(g, n, n), dtype=np.int64) for a in atoms},
                   {p: rng.integers(0, size, size=(g, n), dtype=np.int64) for p in vars_})

    while checked < budget:
        block = min(_CHUNK, budget - checked)
        ns = rng.integers(1, max_states + 1, size=block)
        states, members = np.unique(ns, return_counts=True)
        entries = states * states * members     # of one atom's draws, per group
        # sized for the block's largest group up front, so the workspace grows once per block
        plan.bind(1, int((states * members).max()))
        # While the groups' draws together take at most twice the largest group's, they
        # are all drawn and evaluated largest first, so that the smaller groups run in
        # memory the largest one used; otherwise each is evaluated as it is drawn.
        groups = drawn(ns, states)
        if entries.sum() <= 2 * entries.max():
            groups = reversed(list(groups))
        best = None
        for sel, n, rels, vals in groups:
            views = plan.bind(n, len(sel))
            for p, v in vals.items():
                views[plan.inputs[p]][...] = v.T
            pos = _first_hit(holds, plan.run(rels)[0])
            if pos is not None:
                stream = int(sel[pos])
                if best is None or stream < best[0]:
                    best = (stream, n, rels, vals, pos)
        if best is not None:
            stream, n, rels, vals, pos = best
            checked += stream + 1
            model = _materialize(algebra, n, {a: r[pos] for a, r in rels.items()},
                                 {p: v[pos] for p, v in vals.items()})
            return _verify_hit(model, formula, checked, checked)
        checked += block
    return NoCountermodelUpTo(max_states, checked, checked, exhaustive=False)


def _enumerate(formula: Formula, algebra: FLAlgebra, max_states: int, budget: int,
               proved_valid) -> DecisionOutcome:
    """The exhaustive scan in canonical order, block by block.

    `proved_valid()` is asked once, when the scan reaches two states with
    no hit: where it holds, no candidate can be a hit, and every block
    after is decoded and pruned for its counts but not evaluated. So the
    1-state layer, where refutations are cheapest to find, never waits for
    the exact attempt. A caller that passes `lambda: False` evaluates every
    surviving candidate.
    """
    atoms, vars_, plan = _plan(formula, algebra)
    size, holds = algebra.size, algebra.arrays.leq[algebra.one]
    # past the bound the filtration lemma leaves nothing to search; only whether it passes
    # max_states matters, and over two or more elements size ** c passes it once c passes
    # max_states.bit_length(), so the closure is counted no further than that
    bound = size ** closure_size(formula, max_states.bit_length())
    checked, evaluated, settled = 0, 0, False
    for n in range(1, min(max_states, bound) + 1):
        if n == 2 and checked < budget:
            settled = proved_valid()
        cells = len(atoms) * n * n          # frame digits
        width = size ** (len(vars_) * n)    # valuations per frame
        total = size ** cells * width
        weights = _swaps(n, len(atoms), size)
        start = 0
        while start < total:
            if checked >= budget:
                raise BudgetExceeded(
                    "candidate budget exhausted before the search space",
                    frontier={"states": n, "next_index": start,
                              "models_checked": checked, "max_states": max_states},
                    models_evaluated=evaluated)
            # whole frames in the room left, else one run inside frame `first` (a frame wider
            # than _CHUNK, or the part of one within the budget); no block after such a run
            # has room for a whole frame, so whole frames start at a frame's start
            first, v0 = divmod(start, width)
            room = min(_CHUNK, budget - checked)
            if room >= width:
                count, per = min(room // width, total // width - first), width
            else:
                count, per = 1, min(room, width - v0)
            rows = kernel.digits(np.arange(first, first + count, dtype=np.int64), size,
                                 np.empty((cells, count), np.int64))
            keep = np.flatnonzero(_least_frames(rows, weights))
            if len(keep) and not settled:
                kept = rows[:, keep].T.reshape(len(keep), len(atoms), n, n)   # one copy, viewed
                rels = {a: kept[:, i] for i, a in enumerate(atoms)}
                # every kept frame runs valuations v0 .. v0 + per - 1: their digits are
                # decoded once, into the first frame's slots, and copied to the others
                views = plan.bind(n, len(keep) * per)
                slots = [views[plan.inputs[p]].reshape(n, len(keep), per) for p in vars_]
                kernel.digits(np.arange(v0, v0 + per, dtype=np.int64), size,
                              [slot[s, 0] for slot in slots for s in range(n)])
                for slot in slots:
                    slot[:, 1:] = slot[:, :1]
                pos = _first_hit(holds, plan.run(rels)[0])
                if pos is not None:
                    frame, valuation = divmod(pos, per)
                    checked += int(keep[frame]) * width + valuation + 1
                    evaluated += pos + 1
                    model = _materialize(algebra, n, {a: r[frame] for a, r in rels.items()},
                                         {p: views[plan.inputs[p]][:, pos] for p in vars_})
                    return _verify_hit(model, formula, checked, evaluated)
            evaluated += len(keep) * per     # run above, or settled by the exact verdict
            checked += count * per
            start += count * per

    if max_states >= bound:
        return ValidByExhaustion(bound, checked, evaluated)
    return NoCountermodelUpTo(max_states, checked, evaluated, exhaustive=True)
