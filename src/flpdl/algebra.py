"""Finite FL-algebras: bounded lattices with a residuated monoid structure.

Elements are integer indices 0..size-1. An algebra is described by meet,
join and fusion tables plus two distinguished elements: the monoid unit
(`one`) and an arbitrary extra constant (`zero`). Both residuals are always
derived from the fusion table and then re-checked against the residuation
law, never taken as input.

The implication written `a => b` throughout this package is the right
division b/a (the largest x with x*a <= b). For non-commutative algebras
the two divisions differ and this choice matters; it is the one used by the
box clause of the semantics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotALattice, NotAMonoid, NotResiduated

Table = tuple[tuple[int, ...], ...]


def element_indices(values, size: int, what: str, error=ValueError) -> tuple[int, ...]:
    """The values as a tuple of element indices in 0..size-1.

    Raises `error` naming the first value that is no integer in range; a
    bool is none. Plain ints in range, the common case, are checked without
    a Python-level loop.
    """
    plain = set(map(type, values)) <= {int}
    if not (plain and (not values or 0 <= min(values) and max(values) < size)):
        for v in values:
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or not 0 <= v < size:
                raise error(f"{what} {v!r} is no element index in 0..{size - 1}")
    return tuple(map(int, values))


def _as_table(raw, size: int, what: str) -> Table:
    """Normalize a flat row-major list or nested rows into a tuple table."""
    if not isinstance(raw, (list, tuple)):
        raise ValueError(f"{what} table must be a list")
    if len(raw) == size and all(isinstance(row, (list, tuple)) for row in raw):
        rows = [list(row) for row in raw]
    elif len(raw) == size * size:
        rows = [list(raw[i * size:(i + 1) * size]) for i in range(size)]
    else:
        raise ValueError(f"{what} table must be {size}x{size} (row-major or nested)")
    for row in rows:
        if len(row) != size:
            raise ValueError(f"{what} table must be {size}x{size}")
    return tuple(element_indices(row, size, f"{what} entry") for row in rows)


@dataclass(frozen=True)
class _Arrays:
    """numpy views of the operation tables, for vectorized callers."""

    meet: np.ndarray
    join: np.ndarray
    fuse: np.ndarray
    ldiv: np.ndarray
    imp: np.ndarray
    leq: np.ndarray


class FLAlgebra:
    """A validated finite FL-algebra. Immutable; share freely across threads.

    Construct via build_algebra / the builtins, not directly.
    """

    def __init__(self, size, meet, join, fusion, ldiv, imp, leq,
                 one, zero, bottom, top, names=None, uri=None):
        self.size = size
        self.meet_table = meet
        self.join_table = join
        self.fusion_table = fusion
        self.ldiv_table = ldiv          # ldiv_table[a][c] = a\c
        self.imp_table = imp            # imp_table[a][c]  = c/a  (a => c)
        self.leq_table = leq
        self.one = one
        self.zero = zero
        self.bottom = bottom
        self.top = top
        self.names = names
        self.uri = uri
        self._arrays: _Arrays | None = None

    # -- scalar operations ------------------------------------------------

    def meet(self, a: int, b: int) -> int:
        return self.meet_table[a][b]

    def join(self, a: int, b: int) -> int:
        return self.join_table[a][b]

    def fuse(self, a: int, b: int) -> int:
        return self.fusion_table[a][b]

    def ldiv(self, a: int, b: int) -> int:
        """Left residual a\\b: the largest x with a*x <= b."""
        return self.ldiv_table[a][b]

    def rdiv(self, b: int, a: int) -> int:
        """Right residual b/a: the largest x with x*a <= b."""
        return self.imp_table[a][b]

    def imp(self, a: int, b: int) -> int:
        """a => b, defined as the right division b/a."""
        return self.imp_table[a][b]

    def leq(self, a: int, b: int) -> bool:
        return self.leq_table[a][b]

    @property
    def carrier(self) -> range:
        return range(self.size)

    def element_name(self, a: int) -> str:
        if self.names is not None:
            return self.names[a]
        return str(a)

    @property
    def arrays(self) -> _Arrays:
        if self._arrays is None:
            self._arrays = _Arrays(
                meet=np.array(self.meet_table, dtype=np.int64),
                join=np.array(self.join_table, dtype=np.int64),
                fuse=np.array(self.fusion_table, dtype=np.int64),
                ldiv=np.array(self.ldiv_table, dtype=np.int64),
                imp=np.array(self.imp_table, dtype=np.int64),
                leq=np.array(self.leq_table, dtype=bool),
            )
        return self._arrays

    def same_tables(self, other: "FLAlgebra") -> bool:
        """Structural equality, for tests and fixture comparison."""
        return (self.size == other.size
                and self.meet_table == other.meet_table
                and self.join_table == other.join_table
                and self.fusion_table == other.fusion_table
                and self.one == other.one
                and self.zero == other.zero)

    def __repr__(self):
        tag = self.uri or f"size={self.size}"
        return f"FLAlgebra({tag})"


def build_algebra(size: int, meet, join, fusion, one: int, zero: int,
                  names=None, uri=None) -> FLAlgebra:
    """Validate the tables and return an algebra with derived residuals.

    Checks, in order: lattice laws for (meet, join); monoid laws for
    (fusion, one); then derives both residuals as joins and re-checks the
    residuation law on every triple. Raises NotALattice / NotAMonoid /
    NotResiduated with the first offending tuple.

    Deterministic: identical inputs yield identical derived tables.
    """
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ValueError("size must be a positive integer")
    meet = _as_table(meet, size, "meet")
    join = _as_table(join, size, "join")
    fusion = _as_table(fusion, size, "fusion")
    one, zero = element_indices((one, zero), size, "distinguished element one or zero")
    if names is not None:
        if not isinstance(names, (list, tuple)):
            raise ValueError("names must be a list")
        names = tuple(str(n) for n in names)
        if len(names) != size:
            raise ValueError("names must list one name per element")

    rng = range(size)
    for a in rng:
        for b in rng:
            if meet[a][b] != meet[b][a]:
                raise NotALattice("meet is not commutative", (a, b))
            if join[a][b] != join[b][a]:
                raise NotALattice("join is not commutative", (a, b))
        if meet[a][a] != a:
            raise NotALattice("meet is not idempotent", (a,))
        if join[a][a] != a:
            raise NotALattice("join is not idempotent", (a,))
    for a in rng:
        for b in rng:
            if meet[a][join[a][b]] != a:
                raise NotALattice("absorption a /\\ (a \\/ b) = a fails", (a, b))
            if join[a][meet[a][b]] != a:
                raise NotALattice("absorption a \\/ (a /\\ b) = a fails", (a, b))
            for c in rng:
                if meet[meet[a][b]][c] != meet[a][meet[b][c]]:
                    raise NotALattice("meet is not associative", (a, b, c))
                if join[join[a][b]][c] != join[a][join[b][c]]:
                    raise NotALattice("join is not associative", (a, b, c))

    # order a <= b iff a \/ b = b; bounds exist because the lattice is finite
    leq = tuple(tuple(join[a][b] == b for b in rng) for a in rng)
    bottom = 0
    top = 0
    for a in rng:
        bottom = meet[bottom][a]
        top = join[top][a]

    for a in rng:
        if fusion[one][a] != a or fusion[a][one] != a:
            raise NotAMonoid("one is not a fusion identity", (a,))
    for a in rng:
        for b in rng:
            for c in rng:
                if fusion[fusion[a][b]][c] != fusion[a][fusion[b][c]]:
                    raise NotAMonoid("fusion is not associative", (a, b, c))

    # a\c = join of {b : a*b <= c};  c/a = join of {b : b*a <= c}
    ldiv_rows = []
    imp_rows = []
    for a in rng:
        lrow = []
        irow = []
        for c in rng:
            l = bottom
            r = bottom
            for b in rng:
                if leq[fusion[a][b]][c]:
                    l = join[l][b]
                if leq[fusion[b][a]][c]:
                    r = join[r][b]
            lrow.append(l)
            irow.append(r)
        ldiv_rows.append(tuple(lrow))
        imp_rows.append(tuple(irow))
    ldiv = tuple(ldiv_rows)
    imp = tuple(imp_rows)

    for a in rng:
        for b in rng:
            for c in rng:
                ab_le_c = leq[fusion[a][b]][c]
                if ab_le_c != leq[b][ldiv[a][c]]:
                    raise NotResiduated("a*b <= c iff b <= a\\c fails", (a, b, c))
                if ab_le_c != leq[a][imp[b][c]]:
                    raise NotResiduated("a*b <= c iff a <= c/b fails", (a, b, c))

    return FLAlgebra(size, meet, join, fusion, ldiv, imp, leq,
                     one, zero, bottom, top, names=names, uri=uri)


# -- built-in algebras ----------------------------------------------------

def bool2() -> FLAlgebra:
    """The two-element Boolean algebra; fusion is meet, one is true."""
    return build_algebra(
        2,
        meet=[[0, 0], [0, 1]],
        join=[[0, 1], [1, 1]],
        fusion=[[0, 0], [0, 1]],
        one=1, zero=0,
        names=["0", "1"],
        uri="builtin:bool2",
    )


def cost_chain(n: int) -> FLAlgebra:
    """Cost chain on {0..n-1}: order is reversed numeric (0 is top).

    meet = numeric max, join = numeric min, fusion = addition capped at
    n-1, and 0 serves as both the unit and the zero constant. The derived
    implication comes out as a => b = max(b - a, 0).
    """
    if n < 1:
        raise ValueError("cost chain needs at least one element")
    rng = range(n)
    return build_algebra(
        n,
        meet=[[max(a, b) for b in rng] for a in rng],
        join=[[min(a, b) for b in rng] for a in rng],
        fusion=[[min(a + b, n - 1) for b in rng] for a in rng],
        one=0, zero=0,
        names=[str(a) for a in rng],
        uri=f"builtin:cost:{n}",
    )


def product(left: FLAlgebra, right: FLAlgebra) -> FLAlgebra:
    """Componentwise product; element (i, j) gets index i*|right| + j."""
    nl, nr = left.size, right.size
    size = nl * nr

    def enc(i, j):
        return i * nr + j

    def table(op_l, op_r):
        rows = []
        for i in range(nl):
            for j in range(nr):
                row = []
                for k in range(nl):
                    for m in range(nr):
                        row.append(enc(op_l(i, k), op_r(j, m)))
                rows.append(row)
        return rows

    names = [f"({left.element_name(i)},{right.element_name(j)})"
             for i in range(nl) for j in range(nr)]
    uri = None
    if left.uri and right.uri and left.uri.startswith("builtin:") and right.uri.startswith("builtin:"):
        uri = f"builtin:product({left.uri[8:]},{right.uri[8:]})"
    return build_algebra(
        size,
        meet=table(left.meet, right.meet),
        join=table(left.join, right.join),
        fusion=table(left.fuse, right.fuse),
        one=enc(left.one, right.one),
        zero=enc(left.zero, right.zero),
        names=names,
        uri=uri,
    )


# -- structural predicates and the property report ------------------------

def is_commutative(algebra: FLAlgebra) -> bool:
    n = algebra.size
    return all(algebra.fuse(a, b) == algebra.fuse(b, a)
               for a in range(n) for b in range(n))


def is_integral(algebra: FLAlgebra) -> bool:
    """True when the monoid unit is the top of the lattice."""
    return algebra.one == algebra.top


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    holds: bool
    counterexample: tuple | None


@dataclass(frozen=True)
class PropertyReport:
    checks: tuple[PropertyCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.holds for c in self.checks)

    def failures(self) -> list[PropertyCheck]:
        return [c for c in self.checks if not c.holds]


def check_algebra_properties(algebra: FLAlgebra) -> PropertyReport:
    """Exhaustively verify eight arithmetic laws every FL-algebra satisfies.

    Any failure (reported with its witness tuple, never raised) means the
    tables do not form an FL-algebra; used as a cross-check against
    build_algebra. The implication-chain law composes as
    (b=>c)*(a=>b) <= a=>c, the order that is sound without commutativity.
    """
    A = algebra
    rng = range(A.size)
    checks = []

    def run(name, gen):
        witness = None
        for tup, ok in gen:
            if not ok:
                witness = tup
                break
        checks.append(PropertyCheck(name, witness is None, witness))

    run("order matches implication: a<=b iff 1 <= a=>b",
        (((a, b), A.leq(a, b) == A.leq(A.one, A.imp(a, b)))
         for a in rng for b in rng))

    def gen_monotone():
        for a in rng:
            for b in rng:
                if not A.leq(a, b):
                    continue
                for c in rng:
                    for d in rng:
                        if not A.leq(c, d):
                            continue
                        ok = (A.leq(A.imp(b, c), A.imp(a, d))
                              and A.leq(A.ldiv(b, c), A.ldiv(a, d))
                              and A.leq(A.fuse(a, c), A.fuse(b, d)))
                        yield (a, b, c, d), ok
    run("residuals antitone left / monotone right; fusion monotone", gen_monotone())

    run("fusion distributes over join on both sides",
        (((a, b, c),
          A.fuse(A.join(a, b), c) == A.join(A.fuse(a, c), A.fuse(b, c))
          and A.fuse(c, A.join(a, b)) == A.join(A.fuse(c, a), A.fuse(c, b)))
         for a in rng for b in rng for c in rng))

    run("implication distributes over meet in the consequent",
        (((a, b, c), A.imp(a, A.meet(b, c)) == A.meet(A.imp(a, b), A.imp(a, c)))
         for a in rng for b in rng for c in rng))

    run("joined antecedents meet their implications",
        (((a, b, c), A.imp(A.join(a, b), c) == A.meet(A.imp(a, c), A.imp(b, c)))
         for a in rng for b in rng for c in rng))

    run("currying: a=>(b=>c) equals a*b=>c",
        (((a, b, c), A.imp(a, A.imp(b, c)) == A.imp(A.fuse(a, b), c))
         for a in rng for b in rng for c in rng))

    run("implication chain: (b=>c)*(a=>b) <= a=>c",
        (((a, b, c), A.leq(A.fuse(A.imp(b, c), A.imp(a, b)), A.imp(a, c)))
         for a in rng for b in rng for c in rng))

    run("one is the implication unit: 1=>a equals a",
        (((a,), A.imp(A.one, a) == a) for a in rng))

    return PropertyReport(tuple(checks))


# -- JSON form and builtin URIs --------------------------------------------

def algebra_to_json(algebra: FLAlgebra) -> dict:
    """Row-major JSON description accepted back by load_algebra."""
    flat = lambda t: [v for row in t for v in row]
    out = {
        "size": algebra.size,
        "meet": flat(algebra.meet_table),
        "join": flat(algebra.join_table),
        "fusion": flat(algebra.fusion_table),
        "one": algebra.one,
        "zero": algebra.zero,
    }
    if algebra.names is not None:
        out["names"] = list(algebra.names)
    return out


def _split_product_args(body: str) -> tuple[str, str]:
    depth = 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            return body[:i], body[i + 1:]
    raise ValueError(f"product(...) needs two comma-separated parts: {body!r}")


def resolve_builtin(uri: str) -> FLAlgebra:
    """Resolve builtin:bool2, builtin:cost:N and builtin:product(a,b)."""
    name = uri[8:] if uri.startswith("builtin:") else uri
    if name == "bool2":
        return bool2()
    if name.startswith("cost:"):
        return cost_chain(int(name[5:]))
    if name.startswith("product(") and name.endswith(")"):
        a, b = _split_product_args(name[8:-1])
        return product(resolve_builtin(a.strip()), resolve_builtin(b.strip()))
    raise ValueError(f"unknown builtin algebra {uri!r}")


def load_algebra(source) -> FLAlgebra:
    """Load an algebra from a dict, a JSON file path, or a builtin: URI."""
    import json
    import os

    if isinstance(source, FLAlgebra):
        return source
    if isinstance(source, str):
        if source.startswith("builtin:"):
            return resolve_builtin(source)
        if not os.path.exists(source):
            raise ValueError(f"no such algebra file: {source}")
        with open(source) as fh:
            source = json.load(fh)
    if not isinstance(source, dict):
        raise ValueError("algebra source must be a dict, file path, or builtin: URI")
    try:
        size = source["size"]
        return build_algebra(
            size,
            meet=source["meet"], join=source["join"], fusion=source["fusion"],
            one=source["one"], zero=source["zero"],
            names=source.get("names"),
        )
    except KeyError as exc:
        raise ValueError(f"algebra description missing field {exc}") from exc
