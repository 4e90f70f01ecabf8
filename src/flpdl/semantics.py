"""Frames, models, and algebra-valued evaluation.

A frame fixes the algebra, the state count and one relation per action
atom; action atoms the frame does not map default to the bottom relation
(a strict model turns that into an error). A model adds a valuation; variable
values a model does not map default to the algebra's zero element.

evaluate computes the value of a formula per state:

    constants are themselves; &, |, *, \\, -> apply the algebra's meet,
    join, fusion, left division and implication pointwise; and
    [A]f at s is the meet over t of  R_A(s,t) => f-value at t,

with => the right division. Composite actions get their relation from the
atoms by union / composition / transitive closure. All of it runs through
`kernel`, a model being a batch of one, in plans that grow: a frame keeps
one read-only `XRelation` per action, its atoms' own and every other made
once by the frame's plan, and a model evaluates every formula in one plan
filled from its valuation, whose boxes read their relations from the
frame. Each subterm is computed once per model (actions once per frame).

In the JSON form, keys are "aK" and "pK" with K in ASCII digits, one key per K.

Evaluation is deterministic. A plan grows under its own lock, and a store
keeps the first value put in an entry, so concurrent calls agree.
"""

from __future__ import annotations

import re
from typing import Mapping, Sequence

import numpy as np

from . import kernel
from .algebra import FLAlgebra, algebra_to_json, ambient, element_indices, read_json
from .errors import DimensionMismatch, UnknownAtom
from .relations import XRelation
from .syntax import ACTIONS, ActionExp, Atom, Formula, action_atoms, require_formula

MAX_STATES = 1024  # a model file's state cap: one int64 relation is then 8 MB


class Frame:
    def __init__(self, algebra: FLAlgebra, size: int,
                 relations: Mapping[int, XRelation] | None = None,
                 state_names: Sequence[str] | None = None):
        if size < 1:
            raise DimensionMismatch("a frame needs at least one state")
        self.algebra = algebra
        self.size = size
        self.atomic: dict[int, XRelation] = {}
        for idx, rel in (relations or {}).items():
            if rel.size != size:
                raise DimensionMismatch(f"relation for a{idx} has {rel.size} states, frame has {size}")
            if rel.algebra is None:
                raise DimensionMismatch(f"relation for a{idx} has no algebra")
            if rel.algebra is not algebra and not rel.algebra.same_tables(algebra):
                raise DimensionMismatch(f"relation for a{idx} lives over a different algebra")
            self.atomic[int(idx)] = rel
        self.state_names = tuple(state_names) if state_names is not None else None
        self._relations: dict = {Atom(idx): rel for idx, rel in self.atomic.items()}
        self._plan = kernel.Plan(algebra)    # derives every other action, each once

    def __getitem__(self, action: ActionExp) -> np.ndarray:
        """The int64 (1, n, n) relation of any action, as the frame's plan reads it."""
        return self.relation(action).matrix[None]

    def relation(self, action: ActionExp) -> XRelation:
        """Relation of any action, atoms included: one read-only XRelation per action."""
        rel = self._relations.get(action)
        if rel is None:
            if type(action) not in ACTIONS:
                raise TypeError(f"not an action: {action!r}")
            matrix = self._plan.grow(action, self._relations.__contains__, self, self.size)
            matrix.flags.writeable = False      # so the relation holds the plan's array as it is
            rel = self._relations.setdefault(action, XRelation(self.algebra, matrix[0]))
        return rel

    def require_atoms(self, node) -> None:
        """UnknownAtom unless the frame maps every action atom in node."""
        for idx in action_atoms(node):
            if idx not in self.atomic:
                raise UnknownAtom(f"frame maps no relation for action atom a{idx}")


def derived_relation(frame: Frame, action: ActionExp) -> XRelation:
    return frame.relation(action)


class Model:
    """A frame plus a valuation (variable index -> one value per state)."""

    def __init__(self, frame: Frame, valuation: Mapping[int, Sequence[int]] | None = None,
                 strict: bool = False):
        self.frame = frame
        self.strict = strict
        self.valuation: dict[int, tuple[int, ...]] = {}
        for var, row in (valuation or {}).items():
            if not isinstance(row, (list, tuple)) or len(row) != frame.size:
                raise DimensionMismatch(f"valuation for p{var} must list {frame.size} values")
            self.valuation[int(var)] = element_indices(row, frame.algebra.size, "valuation entry",
                                                       DimensionMismatch)
        self._values: dict[Formula, tuple[int, ...]] = {}
        self._plan = kernel.Plan(frame.algebra, self.valuation)

    @property
    def algebra(self) -> FLAlgebra:
        return self.frame.algebra

    def var_row(self, index: int) -> tuple[int, ...]:
        row = self.valuation.get(index)
        if row is None:
            row = (self.algebra.zero,) * self.frame.size
        return row

    def values(self, formula: Formula) -> tuple[int, ...]:
        """Value of the formula at every state."""
        cached = self._values.get(formula)
        if cached is None:
            require_formula(formula)
            if self.strict:
                self.frame.require_atoms(formula)
            # actions are given: the frame derives them when a box's step reads them
            row = self._plan.grow(formula, _is_action, self.frame, self.frame.size)
            cached = self._values[formula] = tuple(row.tolist())
        return cached


def _is_action(node) -> bool:
    return type(node) in ACTIONS


def evaluate(model: Model, formula: Formula, state: int) -> int:
    """Value of the formula at one state."""
    if isinstance(state, bool) or not (0 <= state < model.frame.size):
        raise DimensionMismatch(f"state {state} is outside 0..{model.frame.size - 1}")
    return model.values(formula)[state]


def valid_in_model(model: Model, formula: Formula) -> tuple[bool, int | None, int | None]:
    """Is one <= value at every state? Returns (verdict, witness state, value).

    The witness is the first state refuting validity, with its value.
    """
    A = model.algebra
    for s, v in enumerate(model.values(formula)):
        if not A.leq(A.one, v):
            return False, s, v
    return True, None, None


# -- JSON form ---------------------------------------------------------------

def _by_index(entries: Mapping, letter: str, what: str) -> dict:
    """{K: entry} from a map keyed "<letter>K", K in ASCII digits; no two keys may name one K."""
    keys: dict[int, object] = {}
    for key in entries:
        m = re.fullmatch(letter + "([0-9]+)", str(key))
        if not m:
            raise ValueError(f'{what} key {key!r} is not of the form "{letter}K"')
        idx = int(m.group(1))
        if idx in keys:
            raise ValueError(f"{what} keys {keys[idx]!r} and {key!r} both name {letter}{idx}")
        keys[idx] = key
    return {idx: entries[key] for idx, key in keys.items()}


def load_model(source, algebra: FLAlgebra | dict | str | None = None,
               strict: bool = False) -> Model:
    """Build a model from a dict or the path of a JSON file holding one.

    Fields: "algebra" (inline dict or builtin: URI; optional when the
    algebra argument is given, which wins: see `algebra.ambient`), "states"
    (count or list of names, at most MAX_STATES), "relations" (map "aK" ->
    n x n matrix of element indices), "valuation" (map "pK" -> per-state
    element indices).
    """
    source = read_json(source, "model")
    if not isinstance(source, dict):
        raise ValueError("model source must be a dict or a file path")
    algebra = ambient(source, algebra, "model")

    states = source.get("states")
    if isinstance(states, int) and not isinstance(states, bool):
        size, names = states, None
    elif isinstance(states, list):
        size, names = len(states), [str(s) for s in states]
    else:
        raise ValueError('model field "states" must be a count or a list of names')
    if size > MAX_STATES:
        raise ValueError(f'model field "states" gives {size} states, more than {MAX_STATES}')

    for field in ("relations", "valuation"):
        if not isinstance(source.get(field) or {}, dict):
            raise ValueError(f'model field "{field}" must be a map')
    relations = {idx: XRelation.from_rows(algebra, matrix) for idx, matrix in
                 _by_index(source.get("relations") or {}, "a", "relation").items()}
    valuation = _by_index(source.get("valuation") or {}, "p", "valuation")

    frame = Frame(algebra, size, relations, state_names=names)
    return Model(frame, valuation, strict=strict)


def model_to_json(model: Model) -> dict:
    frame = model.frame
    out = {
        "algebra": frame.algebra.uri or algebra_to_json(frame.algebra),
        "states": list(frame.state_names) if frame.state_names else frame.size,
        "relations": {f"a{idx}": [list(row) for row in rel.values]
                      for idx, rel in sorted(frame.atomic.items())},
        "valuation": {f"p{idx}": list(row)
                      for idx, row in sorted(model.valuation.items())},
    }
    return out
