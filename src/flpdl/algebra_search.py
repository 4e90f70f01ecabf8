"""The catalog of every FL-algebra of at most four elements.

`iter_algebras` yields all 29 (zero at element 0), which supply the
non-integral and non-commutative examples the builtins lack;
`find_non_integral` and `find_non_commutative` return the first that has
the feature. The walk is structured rather than brute-force: each lattice
(chains plus the four-element diamond, element 0 the bottom), each unit,
the rows the laws force (unit row/column; bottom is absorbing, since
fusion preserves empty joins) and every value of the remaining fusion
entries. The lattice laws are checked once per lattice, the monoid and
residuation laws of build_algebra once per candidate. The order is fixed:
size, lattice (chain, then diamond), unit, then `itertools.product` over
the free entries."""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from .algebra import (FLAlgebra, _check_lattice, _residuated, is_commutative,
                      is_integral)
from .errors import InvalidAlgebra


def _lattices(n: int) -> list[np.ndarray]:
    """Every lattice on n <= 4 elements, up to isomorphism, as a boolean leq
    matrix: the chain, and for n = 4 also the diamond (1 and 2 incomparable)."""
    chain = np.less_equal.outer(np.arange(n), np.arange(n))
    if n < 4:
        return [chain]
    diamond = chain.copy()
    diamond[1, 2] = False
    return [chain, diamond]


def iter_algebras(max_size: int = 4) -> Iterator[FLAlgebra]:
    """Every validated FL-algebra of at most max_size elements, in canonical order."""
    if max_size > 4:
        raise ValueError("the lattice catalog covers sizes up to 4")
    for n in range(1, max_size + 1):
        for leq in _lattices(n):
            # a meet is the common lower bound with the largest down-set, a
            # join the common upper bound with the largest up-set
            meet = np.argmax((leq.T[:, None] & leq.T[None]) * leq.sum(axis=0), axis=2)
            join = np.argmax((leq[:, None] & leq[None]) * leq.sum(axis=1), axis=2)
            _check_lattice(n, meet, join)
            for one in range(n > 1, n):  # unit = bottom forces a trivial algebra
                fusion = np.zeros((n, n), dtype=np.int64)
                fusion[one, :] = fusion[:, one] = np.arange(n)
                fusion[0, :] = fusion[:, 0] = 0
                free = np.ones((n, n), dtype=bool)
                free[[0, one], :] = free[:, [0, one]] = False
                for values in itertools.product(range(n), repeat=int(free.sum())):
                    fusion[free] = values
                    try:
                        alg = _residuated(n, meet, join, fusion.copy(), one, 0)
                    except InvalidAlgebra:
                        continue
                    yield alg


def find_non_integral(max_size: int = 4) -> FLAlgebra:
    """First algebra, in canonical order, whose unit is not the top."""
    for alg in iter_algebras(max_size):
        if not is_integral(alg):
            return alg
    raise LookupError(f"no non-integral FL-algebra with at most {max_size} elements")


def find_non_commutative(max_size: int = 4) -> FLAlgebra:
    """First algebra, in canonical order, with a non-commuting fusion pair."""
    for alg in iter_algebras(max_size):
        if not is_commutative(alg):
            return alg
    raise LookupError(f"no non-commutative FL-algebra with at most {max_size} elements")
