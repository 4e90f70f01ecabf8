"""Bounded search for small FL-algebras with given structural features.

Used to provision concrete non-integral and non-commutative examples,
which the builtins do not supply. The search is structured rather than
brute-force: it walks a catalog of all lattices on up to four elements
(chains plus the four-element diamond), tries every element as the monoid
unit, forces the rows the laws determine (unit row/column; bottom is
absorbing, since fusion must preserve empty joins), enumerates the few
remaining fusion entries, and checks each candidate with the laws of
build_algebra: the lattice laws once per catalog lattice, the monoid and
residuation laws once per candidate.

Enumeration order is deterministic, so "first algebra satisfying a
predicate" is a stable, reproducible object.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator

import numpy as np

from .algebra import (FLAlgebra, _check_lattice, _residuated, is_commutative,
                      is_integral)
from .errors import InvalidAlgebra


def _lattice_catalog(n: int) -> list[tuple[str, list[list[bool]]]]:
    """All lattices on n <= 4 elements, up to isomorphism, as leq matrices.

    For n <= 3 every lattice is a chain; for n = 4 there is the chain and
    the diamond (bottom, two incomparable middles, top).
    """
    chain = [[a <= b for b in range(n)] for a in range(n)]
    out = [(f"chain{n}", chain)]
    if n == 4:
        # 0 = bottom, 1 and 2 incomparable, 3 = top
        diamond = [[True, True, True, True],
                   [False, True, False, True],
                   [False, False, True, True],
                   [False, False, False, True]]
        out.append(("diamond", diamond))
    return out


def _meet_join_from_leq(leq: list[list[bool]]) -> tuple[list[list[int]], list[list[int]]]:
    n = len(leq)
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            lower = [x for x in range(n) if leq[x][a] and leq[x][b]]
            upper = [x for x in range(n) if leq[a][x] and leq[b][x]]
            glb = [x for x in lower if all(leq[y][x] for y in lower)]
            lub = [x for x in upper if all(leq[x][y] for y in upper)]
            meet[a][b] = glb[0]
            join[a][b] = lub[0]
    return meet, join


def find_algebras(max_size: int,
                  predicate: Callable[[FLAlgebra], bool] | None = None,
                  limit: int | None = None) -> Iterator[FLAlgebra]:
    """Yield validated algebras of size <= max_size in canonical order."""
    if max_size > 4:
        raise ValueError("the lattice catalog covers sizes up to 4")
    found = 0
    for n in range(1, max_size + 1):
        for _name, leq in _lattice_catalog(n):
            meet, join = map(np.array, _meet_join_from_leq(leq))
            _check_lattice(n, meet, join)
            bottom = next(x for x in range(n) if all(leq[x][y] for y in range(n)))
            for one in range(n):
                if one == bottom and n > 1:
                    continue  # unit = bottom forces a trivial algebra
                free = [(i, j) for i in range(n) for j in range(n)
                        if one not in (i, j) and bottom not in (i, j)]
                rows, cols = [i for i, _ in free], [j for _, j in free]
                for values in itertools.product(range(n), repeat=len(free)):
                    fusion = np.empty((n, n), dtype=np.int64)
                    fusion[one, :] = fusion[:, one] = np.arange(n)
                    fusion[bottom, :] = fusion[:, bottom] = bottom
                    fusion[rows, cols] = values
                    try:
                        alg = _residuated(n, meet, join, fusion, one, 0)
                    except InvalidAlgebra:
                        continue
                    if predicate is None or predicate(alg):
                        yield alg
                        found += 1
                        if limit is not None and found >= limit:
                            return


def find_non_integral(max_size: int = 4) -> FLAlgebra:
    """First algebra, in canonical order, whose unit is not the top."""
    for alg in find_algebras(max_size, lambda a: not is_integral(a), limit=1):
        return alg
    raise LookupError(f"no non-integral FL-algebra with at most {max_size} elements")


def find_non_commutative(max_size: int = 4) -> FLAlgebra:
    """First algebra, in canonical order, with a non-commuting fusion pair."""
    for alg in find_algebras(max_size, lambda a: not is_commutative(a), limit=1):
        return alg
    raise LookupError(f"no non-commutative FL-algebra with at most {max_size} elements")
