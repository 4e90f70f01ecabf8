"""Bounded countermodel search by exhaustive enumeration or sampling.

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
survived pruning. Every hit is re-verified by the reference evaluator in
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
from .syntax import (Atom, Formula, Var, action_atoms, closure_of, iter_closure, require_formula,
                     variables)

DEFAULT_BUDGET = 10 ** 6
_CHUNK = 1 << 14


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


def theoretical_bound(formula: Formula, algebra: FLAlgebra) -> int:
    """State-count bound sufficient for exhaustive validity checking.

    Equals |algebra| ** |closure of the formula|; arbitrary precision, so
    it is often far beyond anything enumerable.
    """
    return algebra.size ** len(closure_of([formula]))


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


def decide_bounded(formula: Formula, algebra: FLAlgebra, max_states: int,
                   budget: int | None = None, mode: str = "exhaustive",
                   seed: int = 0) -> DecisionOutcome:
    """Search models with 1..max_states states for one refuting the formula.

    Only the action atoms and variables the formula mentions vary; that
    loses no countermodels because evaluation never looks at anything
    else. The budget counts candidate positions in the canonical order,
    pruned frames included; running out of it raises BudgetExceeded whose
    frontier records how far the scan got, and whose `models_evaluated`
    says how many of those candidates the kernel evaluated. Sampling mode
    instead draws `budget` random candidates (state count uniform on
    1..max_states, entries uniform) from a non-negative `seed` and cannot
    prove validity; it takes max_states up to `semantics.MAX_STATES`, the
    cap on a model file.
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

    atoms = tuple(Atom(a) for a in action_atoms(formula))
    vars_ = tuple(Var(p) for p in variables(formula))
    size = algebra.size
    holds = algebra.arrays.leq[algebra.one]
    plan = kernel.plan((formula,), algebra, set(atoms + vars_).__contains__)
    checked = 0

    if mode == "sample":
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

    # past the bound the filtration lemma leaves nothing to search; only whether it passes
    # max_states matters, so the closure is counted no further than that
    bound, evaluated = 1, 0
    for _ in iter_closure([formula]):
        bound *= size
        if bound > max_states:
            break
    for n in range(1, min(max_states, bound) + 1):
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
            if len(keep):
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
                evaluated += len(keep) * per
            checked += count * per
            start += count * per

    if max_states >= bound:
        return ValidByExhaustion(bound, checked, evaluated)
    return NoCountermodelUpTo(max_states, checked, evaluated, exhaustive=True)
