"""Finite FL-algebras: bounded lattices with a residuated monoid structure.

Elements are integer indices 0..size-1. An algebra is described by meet,
join and fusion tables plus two distinguished elements: the monoid unit
(`one`) and an arbitrary extra constant (`zero`). Both residuals are always
derived from the fusion table and then re-checked against the residuation
law, never taken as input.

Each law, in build_algebra and in check_algebra_properties, is one boolean
numpy expression over `FLAlgebra.arrays`, evaluated a block of first indices
at a time and, for a large algebra, one first index at a time. A failing law
reports its first failing index tuple in lexicographic order.

The implication written `a => b` throughout this package is the right
division b/a (the largest x with x*a <= b). For non-commutative algebras
the two divisions differ and this choice matters; it is the one used by the
box clause of the semantics.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import FLPDLError, NotALattice, NotAMonoid, NotResiduated

# Largest builtin algebra (cost chains and products): tables grow as size ** 2
# and the law checks as size ** 3, so a mistyped size fails fast instead.
MAX_SIZE = 128
_BLOCK = 4096  # law entries per numpy call, unless one first index needs more


def element_indices(values, size: int, what: str, error=ValueError) -> tuple[int, ...]:
    """The values as a tuple of element indices in 0..size-1.

    Raises `error` naming the first value that is no integer in range; a
    bool is none. Plain ints in range, the common case, are checked and
    returned without a Python-level loop.
    """
    if set(map(type, values)) <= {int} and (not values or 0 <= min(values) and max(values) < size):
        return tuple(values)
    for v in values:
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or not 0 <= v < size:
            raise error(f"{what} {v!r} is no element index in 0..{size - 1}")
    return tuple(map(int, values))


def _as_table(raw, size: int, what: str) -> np.ndarray:
    """Normalize a flat row-major list or nested rows into a size x size array."""
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
    return np.array([element_indices(row, size, f"{what} entry") for row in rows], dtype=np.int64)


@dataclass(frozen=True)
class _Arrays:
    """numpy forms of the operation tables, for vectorized callers."""

    meet: np.ndarray
    join: np.ndarray
    fuse: np.ndarray
    ldiv: np.ndarray
    imp: np.ndarray
    leq: np.ndarray


class FLAlgebra:
    """A finite FL-algebra. Immutable; share freely across threads.

    Construct via build_algebra / the builtins, which check the laws; the
    constructor takes its tables (nested sequences or arrays) as given.
    """

    def __init__(self, size, meet, join, fusion, ldiv, imp, leq,
                 one, zero, bottom, top, names=None, uri=None):
        self.size = size
        self.arrays = _Arrays(*(np.asarray(t, dtype=np.int64) for t in (meet, join, fusion, ldiv, imp)),
                              np.asarray(leq, dtype=bool))
        (self.meet_table, self.join_table, self.fusion_table,
         self.ldiv_table,               # ldiv_table[a][c] = a\c
         self.imp_table,                # imp_table[a][c]  = c/a  (a => c)
         self.leq_table) = (tuple(map(tuple, t.tolist())) for t in vars(self.arrays).values())
        self.one = one
        self.zero = zero
        self.bottom = bottom
        self.top = top
        self.names = names
        self.uri = uri

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

    def element_name(self, a: int) -> str:
        if self.names is not None:
            return self.names[a]
        return str(a)

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


def _first_failure(size: int, law) -> tuple[int, ...] | None:
    """The first index tuple, in lexicographic order, at which `law` fails.

    `law` takes one element index array per variable, as open grids, and
    returns booleans, true where it holds. Each call covers as many first
    indices as fit in _BLOCK entries, and at least one.
    """
    arity = law.__code__.co_argcount
    grids = [np.arange(size).reshape([-1 if i == j else 1 for i in range(arity)])
             for j in range(arity)]
    step = max(1, _BLOCK // size ** (arity - 1))
    for start in range(0, size, step):
        holds = law(grids[0][start:start + step], *grids[1:])
        if not holds.all():
            first, *rest = np.unravel_index(np.argmin(holds), holds.shape)
            return (start + int(first), *map(int, rest))
    return None


def _require(error, size: int, laws) -> None:
    """Raise `error` at the first failing index tuple of the first failing law."""
    for message, law in laws:
        witness = _first_failure(size, law)
        if witness is not None:
            raise error(message, witness)


def build_algebra(size: int, meet, join, fusion, one: int, zero: int,
                  names=None, uri=None) -> FLAlgebra:
    """Validate the tables and return an algebra with derived residuals.

    Checks each law over all its index tuples before the next, in order:
    meet and join commutative, idempotent, absorptive and associative
    (else NotALattice); one a two-sided fusion identity, fusion
    associative (else NotAMonoid); then derives the order, the bounds and
    both residuals as joins and checks a*b <= c iff b <= a\\c, then
    a*b <= c iff a <= c/b (else NotResiduated). The error carries the
    failing law's first index tuple in lexicographic order. Last, each
    name must read as its own element in a formula's #constant, else
    ValueError.

    Deterministic: identical inputs yield identical derived tables.
    """
    if not isinstance(size, int) or isinstance(size, bool) or size < 1:
        raise ValueError("size must be a positive integer")
    M = _as_table(meet, size, "meet")
    J = _as_table(join, size, "join")
    F = _as_table(fusion, size, "fusion")
    one, zero = element_indices((one, zero), size, "distinguished element one or zero")
    if names is not None:
        if not isinstance(names, (list, tuple)):
            raise ValueError("names must be a list")
        names = tuple(str(n) for n in names)
        if len(names) != size:
            raise ValueError("names must list one name per element")

    _check_lattice(size, M, J)
    algebra = _residuated(size, M, J, F, one, zero, names, uri)
    _check_names(algebra)
    return algebra


def _check_names(algebra: FLAlgebra) -> None:
    """ValueError for the first name that a formula's #name would not read as its own element."""
    from .parser import _constant   # the parser's rules; it imports this module
    for i, name in enumerate(algebra.names or ()):
        try:
            own = _constant(algebra, name, 0) == i
        except FLPDLError:  # digits past the last index, or too many of them
            own = False
        if not own:
            raise ValueError(f"element name {name!r} does not read as element {i} in a formula")


def _check_lattice(size: int, M: np.ndarray, J: np.ndarray) -> None:
    """Raise NotALattice unless the meet and join tables form a lattice."""
    _require(NotALattice, size, (
        ("meet is not commutative", lambda a, b: M[a, b] == M[b, a]),
        ("join is not commutative", lambda a, b: J[a, b] == J[b, a]),
        ("meet is not idempotent", lambda a: M[a, a] == a),
        ("join is not idempotent", lambda a: J[a, a] == a),
        ("absorption a /\\ (a \\/ b) = a fails", lambda a, b: M[a, J[a, b]] == a),
        ("absorption a \\/ (a /\\ b) = a fails", lambda a, b: J[a, M[a, b]] == a),
        ("meet is not associative", lambda a, b, c: M[M[a, b], c] == M[a, M[b, c]]),
        ("join is not associative", lambda a, b, c: J[J[a, b], c] == J[a, J[b, c]]),
    ))


def _residuated(size: int, M: np.ndarray, J: np.ndarray, F: np.ndarray, one: int, zero: int,
                names=None, uri=None) -> FLAlgebra:
    """The algebra of fusion F over the lattice (M, J), which must already be
    checked: raises NotAMonoid or NotResiduated, else derives the residuals."""
    _require(NotAMonoid, size, (
        ("one is not a fusion identity", lambda a: (F[one, a] == a) & (F[a, one] == a)),
        ("fusion is not associative", lambda a, b, c: F[F[a, b], c] == F[a, F[b, c]]),
    ))

    # order a <= b iff a \/ b = b; bounds exist because the lattice is finite
    L = J == np.arange(size)
    bottom = int(np.argmax(L.all(axis=1)))
    top = int(np.argmax(L.all(axis=0)))
    # a\c = join of {b : a*b <= c};  c/a = join of {b : b*a <= c}
    D = I = np.full((size, size), bottom)
    for b in range(size):
        D = np.where(L[F[:, b]], J[D, b], D)
        I = np.where(L[F[b]], J[I, b], I)
    _require(NotResiduated, size, (
        ("a*b <= c iff b <= a\\c fails", lambda a, b, c: L[F[a, b], c] == L[b, D[a, c]]),
        ("a*b <= c iff a <= c/b fails", lambda a, b, c: L[F[a, b], c] == L[a, I[b, c]]),
    ))
    return FLAlgebra(size, M, J, F, D, I, L, one, zero, bottom, top, names=names, uri=uri)


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
    if not 1 <= n <= MAX_SIZE:
        raise ValueError(f"a cost chain has 1..{MAX_SIZE} elements, not {n}")
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
    if size > MAX_SIZE:
        raise ValueError(f"a product of {nl} and {nr} elements exceeds the {MAX_SIZE}-element limit")

    def table(op_l, op_r):
        # row (i, j), column (k, m) holds the pair (op_l[i, k], op_r[j, m])
        return (op_l[:, None, :, None] * nr + op_r[None, :, None, :]).reshape(size, size).tolist()

    names = [f"({left.element_name(i)},{right.element_name(j)})"
             for i in range(nl) for j in range(nr)]
    uri = None
    if left.uri and right.uri and left.uri.startswith("builtin:") and right.uri.startswith("builtin:"):
        uri = f"builtin:product({left.uri[8:]},{right.uri[8:]})"
    L, R = left.arrays, right.arrays
    return build_algebra(
        size,
        meet=table(L.meet, R.meet),
        join=table(L.join, R.join),
        fusion=table(L.fuse, R.fuse),
        one=left.one * nr + right.one,
        zero=left.zero * nr + right.zero,
        names=names,
        uri=uri,
    )


# -- structural predicates and the property report ------------------------

def is_commutative(algebra: FLAlgebra) -> bool:
    return bool((algebra.arrays.fuse == algebra.arrays.fuse.T).all())


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

    Any failure (reported with its first failing index tuple in
    lexicographic order, never raised) means the tables do not form an
    FL-algebra; used as a cross-check against build_algebra. The
    implication-chain law composes as (b=>c)*(a=>b) <= a=>c, the order
    that is sound without commutativity.
    """
    X = algebra.arrays
    M, J, F, D, I, L, one = X.meet, X.join, X.fuse, X.ldiv, X.imp, X.leq, algebra.one
    laws = (
        ("order matches implication: a<=b iff 1 <= a=>b",
         lambda a, b: L[a, b] == L[one, I[a, b]]),
        ("residuals antitone left / monotone right; fusion monotone",
         lambda a, b, c, d: ~L[a, b] | ~L[c, d]
         | L[I[b, c], I[a, d]] & L[D[b, c], D[a, d]] & L[F[a, c], F[b, d]]),
        ("fusion distributes over join on both sides",
         lambda a, b, c: (F[J[a, b], c] == J[F[a, c], F[b, c]])
         & (F[c, J[a, b]] == J[F[c, a], F[c, b]])),
        ("implication distributes over meet in the consequent",
         lambda a, b, c: I[a, M[b, c]] == M[I[a, b], I[a, c]]),
        ("joined antecedents meet their implications",
         lambda a, b, c: I[J[a, b], c] == M[I[a, c], I[b, c]]),
        ("currying: a=>(b=>c) equals a*b=>c",
         lambda a, b, c: I[a, I[b, c]] == I[F[a, b], c]),
        ("implication chain: (b=>c)*(a=>b) <= a=>c",
         lambda a, b, c: L[F[I[b, c], I[a, b]], I[a, c]]),
        ("one is the implication unit: 1=>a equals a",
         lambda a: I[one, a] == a),
    )
    witnesses = ((name, _first_failure(algebra.size, law)) for name, law in laws)
    return PropertyReport(tuple(PropertyCheck(name, w is None, w) for name, w in witnesses))


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
    from .parser import MAX_NESTING     # parser imports this module

    name = uri[8:] if uri.startswith("builtin:") else uri
    if name.count("product(") > MAX_NESTING:
        raise ValueError(f"builtin algebra has more than {MAX_NESTING} products")
    if name == "bool2":
        return bool2()
    if name.startswith("cost:"):
        return cost_chain(int(name[5:]))
    if name.startswith("product(") and name.endswith(")"):
        a, b = _split_product_args(name[8:-1])
        return product(resolve_builtin(a.strip()), resolve_builtin(b.strip()))
    raise ValueError(f"unknown builtin algebra {uri!r}")


def read_json(source, what: str):
    """The JSON value of the file a string source names; any other source as it is."""
    if not isinstance(source, str):
        return source
    if not source:
        raise ValueError(f"{what} source is empty")
    if not os.path.exists(source):
        raise ValueError(f"no such {what} file: {source}")
    with open(source) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{what} file {source} nests too deeply") from None


def ambient(source, algebra: FLAlgebra | dict | str | None, what: str) -> FLAlgebra:
    """The algebra a model or proof source is read over.

    `algebra`, anything load_algebra takes, wins unless it is None or "";
    then the source's own "algebra" field; else ValueError.
    """
    if algebra not in (None, ""):
        return load_algebra(algebra)
    if isinstance(source, dict) and "algebra" in source:
        return load_algebra(source["algebra"])
    raise ValueError(f"{what} gives no algebra and none was supplied")


def load_algebra(source) -> FLAlgebra:
    """Load an algebra from a dict, a JSON file path, or a builtin: URI."""
    if isinstance(source, FLAlgebra):
        return source
    if isinstance(source, str) and source.startswith("builtin:"):
        return resolve_builtin(source)
    source = read_json(source, "algebra")
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
