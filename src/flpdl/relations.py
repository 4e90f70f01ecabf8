"""Algebra-valued relations over a finite state set, with the three
closure-flavoured operations the box semantics needs: union, composition
and transitive closure.

A relation holds its matrix once, as a read-only (n, n) int64 `matrix`
that every operation hands to `kernel` as a batch of one; `values` is
derived from it. A source that is already such an array, over memory
no one can write, is held as it is; any other is copied. Relations
compare by identity. All operations require an algebra, and both
arguments to share it and their state count; DimensionMismatch
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .algebra import FLAlgebra, element_indices
from .errors import DimensionMismatch
from .kernel import closure, compose, lookup


@dataclass(frozen=True, eq=False)
class XRelation:
    """An n x n matrix of algebra elements, read-only: a writeable source is copied.

    DimensionMismatch unless the matrix is square, and, given an algebra,
    unless every entry is an element index 0..size-1.
    """

    algebra: FLAlgebra
    matrix: np.ndarray

    def __post_init__(self):
        matrix, base = self.matrix, getattr(self.matrix, "base", None)
        if not (type(matrix) is np.ndarray and matrix.dtype == np.int64
                and not matrix.flags.writeable
                and (base is None or type(base) is np.ndarray and not base.flags.writeable)):
            matrix = np.array(matrix, dtype=np.int64)
        if matrix.shape == (0,):    # no rows: the relation on no states
            matrix = matrix.reshape(0, 0)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionMismatch(f"relation matrix must be square, not of shape {matrix.shape}")
        if self.algebra is not None and matrix.size and not (
                0 <= matrix.min() and matrix.max() < self.algebra.size):
            raise DimensionMismatch(f"relation entries must lie in 0..{self.algebra.size - 1}")
        matrix.flags.writeable = False
        object.__setattr__(self, "matrix", matrix)

    @property
    def size(self) -> int:
        return len(self.matrix)

    @cached_property
    def values(self) -> tuple[tuple[int, ...], ...]:
        """The matrix as nested tuples of Python ints."""
        return tuple(map(tuple, self.matrix.tolist()))

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
        flat = list(chain.from_iterable(rows))
        if set(map(type, flat)) <= {int}:
            # plain ints, the common case: the constructor checks their range on the array
            try:
                return cls(algebra, np.array(flat, np.int64).reshape(n, n))
            except (OverflowError, DimensionMismatch):
                pass
        # the first bad entry in row-major order is named
        flat = element_indices(flat, algebra.size, "relation entry", DimensionMismatch)
        return cls(algebra, np.array(flat, np.int64).reshape(n, n))


def bottom_relation(algebra: FLAlgebra, n: int) -> XRelation:
    return XRelation(algebra, np.full((n, n), algebra.bottom))


def identity_relation(algebra: FLAlgebra, n: int) -> XRelation:
    """one on the diagonal, bottom elsewhere."""
    return XRelation(algebra, np.where(np.eye(n, dtype=bool), algebra.one, algebra.bottom))


def _algebra_of(r: XRelation, *others: XRelation) -> FLAlgebra:
    """The algebra r and the others live over.

    DimensionMismatch if one has no algebra, or if the others live over a
    different algebra or state count than r.
    """
    if any(rel.algebra is None for rel in (r, *others)):
        raise DimensionMismatch("relation has no algebra to join or fuse its entries in")
    for q in others:
        if r.algebra is not q.algebra and not r.algebra.same_tables(q.algebra):
            raise DimensionMismatch("relations live over different algebras")
        if r.size != q.size:
            raise DimensionMismatch(f"relation sizes differ: {r.size} vs {q.size}")
    return r.algebra


def rel_union(r: XRelation, q: XRelation) -> XRelation:
    """Pointwise join."""
    algebra = _algebra_of(r, q)
    return XRelation(algebra, lookup(algebra.arrays.join, r.matrix, q.matrix))


def rel_compose(r: XRelation, q: XRelation) -> XRelation:
    """(r;q)(s,t) = join over x of r(s,x)*q(x,t)."""
    algebra = _algebra_of(r, q)
    return XRelation(algebra, compose(algebra, r.matrix[None], q.matrix[None])[0])


def transitive_closure(r: XRelation) -> XRelation:
    """Least transitive relation extending r: the join of r^k over every k >= 1.

    Computed by `kernel.closure` in at most n pivots, one per state k, each
    joining into every entry its walks through k; it stops early once every
    entry is top.
    """
    algebra = _algebra_of(r)
    return XRelation(algebra, closure(algebra, r.matrix[None])[0])


def refl_trans_closure(r: XRelation) -> XRelation:
    """r*(s,t) is one when s = t and the transitive-closure value otherwise."""
    algebra = _algebra_of(r)
    plus = closure(algebra, r.matrix[None])[0]
    return XRelation(algebra, np.where(np.eye(r.size, dtype=bool), algebra.one, plus))


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
