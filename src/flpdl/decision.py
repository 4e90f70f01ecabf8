"""Bounded countermodel search by exhaustive enumeration or sampling.

Candidate models over the atoms and variables a formula mentions are laid
out in one canonical order: state count ascending; within a state count,
the relation matrices in lexicographic element order row by row (first
atom most significant), then the valuations (first variable most
significant, its state 0 entry before state 1). The first countermodel in
this order is the reported one, so outcomes are reproducible; any
partitioning of the index space across workers must still report the
canonically first hit.

Enumeration is vectorized: candidates are decoded from their index in
blocks and evaluated by the kernel, and every hit is re-verified by the
reference evaluator in `oracles`, which shares no code with the kernel,
before being returned.

Exhausting every frame up to the class-count bound |algebra| ** |closure|
proves validity; anything less only reports the bound reached. Sampling
mode draws frames and valuations uniformly at random and can never prove
validity, so its no-hit outcome is capped at the same report.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import kernel
from .algebra import FLAlgebra
from .errors import BudgetExceeded
from .oracles import reference_values
from .relations import XRelation
from .semantics import Frame, Model
from .syntax import Atom, Formula, Var, action_atoms, closure_of, variables

DEFAULT_BUDGET = 10 ** 6
_CHUNK = 1 << 14


def default_budget() -> int:
    """Budget used when none is given; FLPDL_BUDGET overrides the built-in."""
    raw = os.environ.get("FLPDL_BUDGET")
    if raw:
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"FLPDL_BUDGET must be an integer, got {raw!r}") from exc
        if value < 1:
            raise ValueError("FLPDL_BUDGET must be positive")
        return value
    return DEFAULT_BUDGET


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


@dataclass(frozen=True)
class NoCountermodelUpTo:
    """No hit within the searched space; proves nothing beyond it."""

    max_states: int
    models_checked: int
    exhaustive: bool


@dataclass(frozen=True)
class ValidByExhaustion:
    """Every model up to the sufficient bound was checked; the formula is valid."""

    bound: int
    models_checked: int


DecisionOutcome = Countermodel | NoCountermodelUpTo | ValidByExhaustion


# -- candidate blocks through the kernel ---------------------------------------

def _first_hit(formula: Formula, algebra: FLAlgebra, rels: dict, vals: dict,
               batch: int, n: int) -> int | None:
    """Position of the first candidate refuting the formula, if any."""
    # copies, since the kernel adds every subterm to the memos it is given
    values = kernel.evaluate(formula, algebra, dict(vals), dict(rels), batch, n)
    ok = algebra.arrays.leq[algebra.one, values].all(axis=1)
    return None if ok.all() else int(np.argmin(ok))


def _materialize(algebra: FLAlgebra, n: int, rels, vals, pos: int) -> Model:
    relations = {a.index: XRelation.from_array(algebra, r[pos]) for a, r in rels.items()}
    valuation = {p.index: tuple(v[pos].tolist()) for p, v in vals.items()}
    return Model(Frame(algebra, n, relations), valuation)


def _verify_hit(model: Model, formula: Formula, checked: int) -> Countermodel:
    A = model.algebra
    for state, value in enumerate(reference_values(model, formula)):
        if not A.leq(A.one, value):
            return Countermodel(model, state, value, checked)
    raise AssertionError("batch scan reported a countermodel the reference evaluator rejects")


def decide_bounded(formula: Formula, algebra: FLAlgebra, max_states: int,
                   budget: int | None = None, mode: str = "exhaustive",
                   seed: int = 0) -> DecisionOutcome:
    """Search models with 1..max_states states for one refuting the formula.

    Only the action atoms and variables the formula mentions vary; that
    loses no countermodels because evaluation never looks at anything
    else. The budget counts candidate models; running out of it raises
    BudgetExceeded whose frontier records how far the scan got. Sampling
    mode instead draws `budget` random candidates (state count uniform on
    1..max_states, entries uniform) and cannot prove validity.
    """
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    if mode not in ("exhaustive", "sample"):
        raise ValueError(f"unknown mode {mode!r}")
    if budget is None:
        budget = default_budget()
    if budget < 1:
        raise ValueError("budget must be positive")

    atoms = tuple(Atom(a) for a in action_atoms(formula))
    vars_ = tuple(Var(p) for p in variables(formula))
    size = algebra.size
    checked = 0

    if mode == "sample":
        rng = np.random.default_rng(seed)
        while checked < budget:
            block = min(_CHUNK, budget - checked)
            ns = rng.integers(1, max_states + 1, size=block)
            best = None
            for n in np.unique(ns).tolist():
                sel = np.where(ns == n)[0]
                g = len(sel)
                rels = {a: rng.integers(0, size, size=(g, n, n), dtype=np.int64)
                        for a in atoms}
                vals = {p: rng.integers(0, size, size=(g, n), dtype=np.int64)
                        for p in vars_}
                pos = _first_hit(formula, algebra, rels, vals, g, n)
                if pos is not None:
                    stream = int(sel[pos])
                    if best is None or stream < best[0]:
                        best = (stream, n, rels, vals, pos)
            if best is not None:
                stream, n, rels, vals, pos = best
                checked += stream + 1
                return _verify_hit(_materialize(algebra, n, rels, vals, pos), formula, checked)
            checked += block
        return NoCountermodelUpTo(max_states, checked, exhaustive=False)

    for n in range(1, max_states + 1):
        total = size ** (len(atoms) * n * n + len(vars_) * n)
        start = 0
        while start < total:
            if checked >= budget:
                raise BudgetExceeded(
                    "candidate budget exhausted before the search space",
                    frontier={"states": n, "next_index": start,
                              "models_checked": checked, "max_states": max_states})
            block = min(_CHUNK, total - start, budget - checked)
            indices = np.arange(start, start + block, dtype=np.int64)
            rels, vals = kernel.decode(indices, size, n, atoms, vars_)
            pos = _first_hit(formula, algebra, rels, vals, block, n)
            if pos is not None:
                checked += pos + 1
                return _verify_hit(_materialize(algebra, n, rels, vals, pos), formula, checked)
            checked += block
            start += block

    bound = theoretical_bound(formula, algebra)
    if max_states >= bound:
        return ValidByExhaustion(bound, checked)
    return NoCountermodelUpTo(max_states, checked, exhaustive=True)
