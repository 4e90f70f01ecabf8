"""Quotient a model by value-equivalence over a closed formula set.

Two states are equivalent when every formula of the set takes the same
value at both. The filtrated model has one state per class; each atomic
relation entry is the join of the original entries across the two classes,
and each variable of the set keeps its value (read off any member, they
all agree). Variables outside the set get the zero element.

The quotient joins every relation's matrix over the classes at once by
`kernel.join_classes`: one AND reduction of up-set masks over the rows of
each class's members, then one over the columns.

Formulas of the set keep their value: the value at a state equals the
value at its class in the quotient. That and the class-count bound
|algebra| ** |set| make the quotient a finite certificate for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NotClosed
from .kernel import join_classes
from .relations import XRelation
from .semantics import Frame, Model
from .syntax import Formula, Var, is_closed


@dataclass(frozen=True)
class Partition:
    """class_of[s] is the class index of state s; representatives[c] its first member."""

    class_of: tuple[int, ...]
    representatives: tuple[int, ...]

    @property
    def class_count(self) -> int:
        return len(self.representatives)

    def members(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in self.representatives]
        for s, c in enumerate(self.class_of):
            out[c].append(s)
        return tuple(tuple(m) for m in out)


def phi_partition(model: Model, phis: Iterable[Formula]) -> Partition:
    """Group states by their value vector over the given formulas.

    Classes are numbered by first occurrence, so state 0 is always in
    class 0 and representatives are the least members.
    """
    phis = list(dict.fromkeys(phis))
    rows = [model.values(f) for f in phis]
    seen: dict[tuple[int, ...], int] = {}
    class_of: list[int] = []
    reps: list[int] = []
    # a state's key is its column of values; with no formulas every state's is ()
    keys = zip(*rows) if rows else [()] * model.frame.size
    for s, key in enumerate(keys):
        c = seen.get(key)
        if c is None:
            c = len(reps)
            seen[key] = c
            reps.append(s)
        class_of.append(c)
    return Partition(tuple(class_of), tuple(reps))


def filtrate(model: Model, phis: Sequence[Formula],
             partition: Partition | None = None) -> Model:
    """Smallest filtration of the model through a closed formula set.

    Raises NotClosed when the set is not saturated under subformulas and
    box unfolding. Pass a precomputed partition to skip regrouping; it
    must come from phi_partition on the same arguments.
    """
    phis = list(dict.fromkeys(phis))
    if not is_closed(phis):
        raise NotClosed("filtration needs a closed formula set")
    part = partition if partition is not None else phi_partition(model, phis)
    A, atomic, n = model.algebra, model.frame.atomic, model.frame.size
    matrices = np.array([rel.matrix for rel in atomic.values()], np.int64).reshape(-1, n, n)
    relations = {idx: XRelation(A, quotient)
                 for idx, quotient in zip(atomic, join_classes(A, matrices, part.class_of))}

    valuation = {
        f.index: tuple(model.values(f)[rep] for rep in part.representatives)
        for f in phis if isinstance(f, Var)
    }
    frame = Frame(A, part.class_count, relations,
                  state_names=tuple(f"[{rep}]" for rep in part.representatives))
    return Model(frame, valuation, strict=model.strict)
