"""Algebra-valued relations over a finite state set, with the three
closure-flavoured operations the box semantics needs: union, composition
and transitive closure.

Relations are immutable. All operations require both arguments to share
the same algebra object and state count; DimensionMismatch otherwise.
They are thin wrappers over `kernel`, each relation a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import FLAlgebra, element_indices
from .errors import DimensionMismatch
from .kernel import closure, compose


@dataclass(frozen=True)
class XRelation:
    """An n x n matrix of algebra elements."""

    algebra: FLAlgebra
    values: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.values)

    def get(self, s: int, t: int) -> int:
        return self.values[s][t]

    @classmethod
    def from_rows(cls, algebra: FLAlgebra, rows: Sequence[Sequence[int]]) -> "XRelation":
        if not isinstance(rows, (list, tuple)):
            raise DimensionMismatch("relation matrix must be a list of rows")
        n = len(rows)
        for row in rows:
            if not isinstance(row, (list, tuple)) or len(row) != n:
                raise DimensionMismatch("relation matrix must be square")
        return cls(algebra, tuple(element_indices(row, algebra.size, "relation entry",
                                                  DimensionMismatch) for row in rows))

    @classmethod
    def from_array(cls, algebra: FLAlgebra, arr: np.ndarray) -> "XRelation":
        return cls(algebra, tuple(map(tuple, arr.tolist())))

    def array(self) -> np.ndarray:
        """The matrix as an (n, n) array, the form the kernel works on."""
        return np.array(self.values, dtype=np.int64)

    @classmethod
    def constant(cls, algebra: FLAlgebra, n: int, value: int) -> "XRelation":
        return cls(algebra, tuple(tuple(value for _ in range(n)) for _ in range(n)))


def bottom_relation(algebra: FLAlgebra, n: int) -> XRelation:
    return XRelation.constant(algebra, n, algebra.bottom)


def identity_relation(algebra: FLAlgebra, n: int) -> XRelation:
    """one on the diagonal, bottom elsewhere."""
    return XRelation(algebra, tuple(
        tuple(algebra.one if s == t else algebra.bottom for t in range(n))
        for s in range(n)))


def _check_compatible(r: XRelation, q: XRelation) -> None:
    if r.algebra is not q.algebra and not r.algebra.same_tables(q.algebra):
        raise DimensionMismatch("relations live over different algebras")
    if r.size != q.size:
        raise DimensionMismatch(f"relation sizes differ: {r.size} vs {q.size}")


def rel_union(r: XRelation, q: XRelation) -> XRelation:
    """Pointwise join."""
    _check_compatible(r, q)
    return XRelation.from_array(r.algebra, r.algebra.arrays.join[r.array(), q.array()])


def rel_compose(r: XRelation, q: XRelation) -> XRelation:
    """(r;q)(s,t) = join over x of r(s,x)*q(x,t)."""
    _check_compatible(r, q)
    product = compose(r.algebra.arrays, r.array()[None], q.array()[None])
    return XRelation.from_array(r.algebra, product[0])


def transitive_closure(r: XRelation) -> XRelation:
    """Least transitive relation extending r.

    Computed by `kernel.closure`: repeated squaring T |-> T union (T;T)
    from r, whose fixpoint is the join of r^k over every k >= 1; entries
    only climb in the finite lattice, so the iteration stabilizes.
    """
    return XRelation.from_array(r.algebra, closure(r.algebra, r.array()[None])[0])


def refl_trans_closure(r: XRelation) -> XRelation:
    """r*(s,t) is one when s = t and the transitive-closure value otherwise."""
    star = closure(r.algebra, r.array()[None])[0]
    np.fill_diagonal(star, r.algebra.one)
    return XRelation.from_array(r.algebra, star)


def path_value(r: XRelation, s: int, path: Sequence[int], t: int) -> int:
    """Fused value of one walk s -> path[0] -> ... -> path[-1] -> t.

    The empty path is the single step from s to t. Kept as a primitive so
    closures can be checked against explicit walk enumeration.
    """
    A = r.algebra
    if not path:
        return r.values[s][t]
    acc = r.values[s][path[0]]
    for u, v in zip(path, path[1:]):
        acc = A.fuse(acc, r.values[u][v])
    return A.fuse(acc, r.values[path[-1]][t])
