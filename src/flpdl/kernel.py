"""The one evaluator: formula values over a batch of models on n states.

`plan` walks one or more formulas once and lists their distinct subterms
in post-order, each formula with a slot number and each action with an
index; a subterm for which the caller's `given` test holds is an input,
never looked into, so whole boxes can be given as atoms. Other atoms are
the bottom relation; a constant or other variable is a step that fills
its slot with its value, zero for a variable without one. The plan then
evaluates one block of models after another in a workspace it keeps:
`bind` sizes it for `batch` models on n states and hands back the slot
views, the caller writes each given formula's values into its view, and
`run` fills the rest. The workspace is allocated again only when a block
has more cells (n * batch) than every block before it, so a search that
runs many blocks through one plan evaluates them without allocating.

Formula slots are state-major, (n, batch), so each table read runs along
rows as long as the batch, and hold the narrowest unsigned dtype that
holds an element index: uint8 up to 256 elements, uint16 up to 65,536.
Every binary table read is one gather from a flattened table, made once
per algebra, at flat indices a * size + b formed in the narrowest dtype
that holds size ** 2 - 1 (uint8 up to 16 elements, uint16 up to 256), so
no slot is cast to intp. Actions stay int64 (frames, n, n) relations.

Every meet or join over states is one blocked contraction, `_contract`:
a box meets imp[R(s, t), f(t)] over targets t, and `compose`, the `Seq`
step, joins r(s, x) * q(x, t) over middle states x. In any finite
lattice, distributive or not, the down-set of a meet is the intersection
of the down-sets and the up-set of a join that of the up-sets (Davey &
Priestley 2002), so a meet or join of many terms is the AND of their
masks (`_narrow`), decoded once by a gather. A term's code is r * size +
f, and a contraction of more than _BLOCK entries reads c states per
gather: `_codes` sums each group's c codes, the j-th times (size ** 2)
** j, and `_table` makes once per algebra and width the table whose
entry at such a sum ANDs the c masks. c is the widest group whose table
holds at most _TABLE entries, n spread evenly over the fewest groups; a
short last group reads the pair (bottom, 0), which changes no meet
(imp[bottom, x] is top) or join (bottom * x is bottom), and the table of
a single group holds the element itself: one add and one gather. A
smaller contraction, as every box of a model of batch one, reads one
state per gather, at the relation times size plus the body's slot. A
block of at most _BLOCK entries is one add forming codes, one gather of
masks and one AND reduction, in scratch for one block that each call
makes. A box codes its relation as (target, source, frame), kept for
boxes over one action in a row, and adds it to a frame-major block: one
frame, a frame per member, or F frames over F runs of members, each
broadcast over its run; `compose` adds its codes frame innermost.

`closure`, the `Plus` step, folds nothing: it makes up to n Kleene pivots
over the whole batch, each joining one term into every entry, and stops
at the first of pivots 4, 8, 16, ... that finds every entry at top.

A plan of batch one can also grow: `Plan.grow` numbers only what the
plan lacks of a root, runs only those steps under the plan's lock, and
leaves every value in its slot. A model evaluates all its formulas in
one such plan, its valuation in the variables' slots, and a frame derives
all its actions in another (see `semantics`); the workspace's rows at
least double as slots are added, keeping the rows computed.
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from .algebra import FLAlgebra
from .errors import DimensionMismatch
from .syntax import (ACTIONS, And, Atom, Box, Choice, Const, Fuse, LDiv, Or, Plus,
                     RDiv, Seq, Var, children)


_BLOCK = 2 ** 14  # entries per gather of a meet or join over states, and at least one state
_TABLE = 2 ** 12  # entries of a grouped contraction table at most, so that it stays in cache


def lookup(table: np.ndarray, a, b) -> np.ndarray:
    """table[a, b], broadcast, by one gather from the flattened square table."""
    return table.ravel().take(a * len(table) + b)


def _unmask(acc: np.ndarray, decode, out: np.ndarray) -> np.ndarray:
    """out = the element at the highest set bit of each mask, word w in acc[w]: the
    highest nonzero word decides, so each word past the first overwrites where nonzero."""
    decode[0].take(acc[0], out=out, mode="clip")
    for w in range(1, len(decode)):
        np.copyto(out, decode[w].take(acc[w]), where=acc[w] != 0)
    return out


def _contract(tables, lefts, rights, out) -> None:
    """out = the meet or join over the first axis of the table entries at lefts[i] + rights[i].

    `tables` is (masks, decode): masks[w] is word w of each code's mask, the
    AND of the down-set masks of the terms the code groups for a meet, of
    their up-set masks for a join, and decode[w][v], in out's dtype, the
    element at v's highest set bit in word w. A table made for one group
    holds that element itself in masks[0], with no decode, so a contraction
    of one group is one add and one gather. Codes are formed in the dtype of
    lefts + rights, a block of groups of at most _BLOCK entries at a time,
    in scratch made here for one block.
    """
    masks, decode = tables
    word = masks[0].dtype
    count, step = len(lefts), max(1, _BLOCK // max(1, out.size))   # no cells: one group a block
    k = min(step, count)
    index = np.empty((k, *out.shape), np.result_type(lefts, rights))
    values = np.empty((k, *out.shape), word) if k > 1 else None
    # a row per word, one for a later block; a table of elements is gathered into out itself
    acc = np.empty((len(masks) + 1, *out.shape), word) if len(decode) else out[None]
    for start in range(0, count, step):
        k, first = min(step, count - start), start == 0
        idx = index[:k]
        np.add(lefts[start:start + k], rights[start:start + k], out=idx)
        for w, table in enumerate(masks):
            into = acc[w] if first else acc[-1]    # a later block is ANDed in from the last row
            terms = table.take(idx, out=values[:k] if k > 1 else into[None], mode="clip")
            if k > 1:
                np.bitwise_and.reduce(terms, axis=0, out=into)
            if not first:
                np.bitwise_and(acc[w], into, out=acc[w])
    if len(decode):
        _unmask(acc, decode, out)


def compose(algebra: FLAlgebra, r: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(r;q)(s,t) = join over x of r(s,x) * q(x,t), per frame; r and q hold 1 or B frames.

    The codes of r(s, x), as (x, s, 1, frame), and of q(x, t), as (x, 1, t,
    frame), are grouped over the middle states x and added frame innermost;
    the result is a (frames, n, n) view of an (n, n, frames) array.
    """
    tables = _narrow(algebra)
    frames, n = max(len(r), len(q)), r.shape[1]
    out = np.empty((n, n, frames), np.int64)
    width = _width(tables, n, n * out.size)
    lefts = _codes(tables, r.transpose(2, 1, 0), width, True)[:, :, None]
    rights = _codes(tables, q.transpose(1, 2, 0), width, False)[:, None]
    _contract(_table(tables, "seq", width, len(lefts) == 1), lefts, rights, out)
    return out.transpose(2, 0, 1)


def join_classes(algebra: FLAlgebra, matrices: np.ndarray, class_of) -> np.ndarray:
    """(k, c, c) int64: entry (r, i, j) joins matrices[r, s, t] over the states s of class i
    and t of class j, by one AND reduction of up-set masks per axis. Row p of `members`
    holds every class's p-th state, a smaller class repeating its last, which the AND absorbs."""
    (masks, decode), class_of = _narrow(algebra)["up"], np.asarray(class_of)
    count = np.bincount(class_of)
    members = np.argsort(class_of, kind="stable")[
        np.cumsum(count) - count + np.minimum(np.arange(count.max())[:, None], count - 1)]
    acc = np.bitwise_and.reduce(masks.take(matrices.take(members, axis=1), axis=1), axis=2)
    acc = np.bitwise_and.reduce(acc.take(members, axis=3), axis=3)
    return _unmask(acc, decode, np.empty(acc.shape[1:], np.int64))


def closure(algebra: FLAlgebra, r: np.ndarray) -> np.ndarray:
    """Least transitive relation above r, per frame, by at most n Kleene pivots.

    Pivot k sets T(s,t) <- T(s,t) u T(s,k) * T(k,k)* * T(k,t), where x* is
    the join of x^m over m >= 0 (Kleene 1956; Lehmann 1977). Fusion is
    associative with unit one and distributes over finite joins on both
    sides, so after pivot k, T(s,t) joins the walks from s to t whose inner
    states are at most k, loops through k contributing T(k,k)*; the last
    pivot leaves the join of r^k over k >= 1. T is held times size in one
    intp buffer, so a pivot fuses the column with its star, forms the outer
    term and joins it into T, each an add and a gather: n^2 work a frame,
    against n^3 for a round of squaring.

    A pivot only joins a term into T, and top absorbs every join, so once
    every entry of every frame is top the pivots left change nothing and
    are skipped. The test is an n^2 pass like a pivot, so it runs before
    pivots 4, 8, 16, ... only: a closure that never saturates pays at most
    log2(n) - 1 passes, one that saturates at most twice the pivots it
    needed (or 4), and one of at most 4 states never runs it.
    """
    star, fuse, fuse_by_right, join_rows, join = _narrow(algebra)["plus"]
    frames, n = r.shape[:2]
    t = np.multiply(r, algebra.size, dtype=np.intp)
    index, term = np.empty_like(t), np.empty_like(t)
    col_index, col = np.empty((2, frames, n, 1), np.intp)
    for k in range(n):
        # at k = 4, 8, 16, ...: a T at top everywhere stays there, the rest is skipped
        if k >= 4 and k & (k - 1) == 0 and not np.not_equal(
                t, algebra.top * algebra.size, out=term).any():
            t.fill(algebra.top)
            return t
        # c(s) = T(s,k) * T(k,k)*, then c(s) * T(k,t) read at T(k,t) * size + c(s)
        np.add(t[:, :, k:k + 1], star.take(t[:, k:k + 1, k:k + 1]), out=col_index)
        fuse.take(col_index, out=col, mode="clip")
        np.add(col, t[:, k:k + 1], out=index)
        fuse_by_right.take(index, out=term, mode="clip")
        np.add(t, term, out=index)
        # the last pivot leaves T as element indices, no longer times size
        (join if k == n - 1 else join_rows).take(index, out=t, mode="clip")
    return t


def digits(indices: np.ndarray, size: int, rows):
    """Write the base-`size` digits of int64 `indices` into `rows`, most significant first.

    Row i gets digit i of every index, cast to the row's dtype. Each digit
    is the index less size times its quotient, the quotient taken by
    `np.floor_divide` by the scalar size, which has a fast path that int64
    `np.divmod` lacks; `indices` is used up as scratch. Returns `rows`.
    """
    quotient, scaled = np.empty_like(indices), np.empty_like(indices)
    for row in reversed(rows):
        np.floor_divide(indices, size, out=quotient)
        np.multiply(quotient, size, out=scaled)
        np.subtract(indices, scaled, out=row, dtype=np.int64, casting="unsafe")
        indices, quotient = quotient, indices
    return rows


_TABLES = {And: "meet", Or: "join", Fuse: "fuse", LDiv: "ldiv", RDiv: "imp"}
_INPUT, _BOTTOM, _FILL = object(), object(), object()
_NARROW: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _read(table: np.ndarray, size: np.ndarray, a, b, out: np.ndarray) -> np.ndarray:
    """out = table[a, b] from the flattened table, the flat index formed in `size`'s dtype."""
    index = np.multiply(a, size, dtype=size.dtype)
    np.add(index, b, out=index)
    return table.take(index, out=out, mode="clip")


def _width(tables: dict, n: int, entries: int) -> int:
    """States per group of a contraction over n states, `entries` entries in all: one within
    one _BLOCK, else n split as evenly as it goes into the fewest groups of at most `widest`."""
    if entries <= _BLOCK:
        return 1
    groups = -(-n // tables["widest"])
    return -(-n // groups)


def _codes(tables: dict, x: np.ndarray, width: int, relation: bool) -> np.ndarray:
    """The group codes of x along its first axis, the contraction's, `width` states a group.

    A term's code is r * size + f, r a relation's entry and f a body's: x
    holds r (`relation`) or f, and the other call the other side. Group g
    reads the sum over j of its j-th term's code times (size ** 2) ** j, in
    the narrowest dtype holding every such sum, the last group's missing
    states reading the neutral pair (bottom, 0). At width 1 a relation's
    codes are r * size, made in one call as a C-order array, and a body's
    are x itself.
    """
    if width == 1:
        return np.multiply(x, tables["size"], dtype=tables["index"], casting="unsafe",
                           order="C") if relation else x
    size = int(tables["size"])
    groups = -(-len(x) // width)
    if groups * width > len(x):
        pad = np.full((groups * width - len(x), *x.shape[1:]),
                      tables["bottom"] if relation else 0, x.dtype)
        x = np.concatenate((x, pad))
    x = x.reshape(groups, width, *x.shape[1:])
    dtype, scale = np.min_scalar_type(size ** (2 * width) - 1), size if relation else 1
    codes = np.multiply(x[:, 0], scale, dtype=dtype, casting="unsafe", order="C")
    for j in range(1, width):
        np.add(codes, np.multiply(x[:, j], scale * size ** (2 * j), dtype=dtype,
                                  casting="unsafe"), out=codes)
    return codes


def _table(tables: dict, op: str, width: int, single: bool):
    """`_contract`'s table for `op`, "box" or "seq", over groups of `width` terms, made once.

    Entry k holds, word by word, the AND of the masks at each of k's `width`
    base size ** 2 digits, kept in the algebra's tables under (op, width,
    single). A table for a `single` group holds the element that AND
    decodes to instead, as (elements,) with no decode.
    """
    key = op, width, single
    made = tables.get(key)
    if made is None:
        masks, decode = tables[op]
        grouped = masks
        for _ in range(1, width):   # the next digit up indexes the rows of the outer AND
            grouped = tuple((m[:, None] & g).ravel() for m, g in zip(masks, grouped))
        if single:
            elements = np.empty(len(grouped[0]), decode[0].dtype)
            grouped, decode = (_unmask(np.array(grouped), decode, elements),), ()
        made = tables[key] = grouped, decode
    return made


def _narrow(algebra: FLAlgebra) -> dict:
    """The algebra's flattened tables in the slots' dtype, its masks and flat-index dtype, made once.

    Mask bits follow a linear extension of the order (down-set size, then
    index), so the highest set bit of x's down-set mask is x's own; up-set
    masks number the bits the other way. A mask is one word up to 16
    elements, else bytes. "box" and "seq" hold `_contract`'s tables for one
    state a group, masks and decode as tuples of words: imp's down-set masks
    with a decode into a slot, fuse's up-set masks with an int64 decode;
    `_table` adds those for wider groups, and "widest" is the widest group
    whose table holds at most _TABLE entries. "up" holds each element's
    up-set mask and that decode as (words, size) and (words, 2 ** bits)
    arrays. "plus" holds `closure`'s: the star of x at x * size, fuse, fuse
    by its right operand (entry b * size + a is a * b), and join times size
    and as is.
    """
    tables = _NARROW.get(algebra)
    if tables is None:
        size, arrs = algebra.size, algebra.arrays
        dtype = np.min_scalar_type(size - 1)
        tables = {name: getattr(arrs, name).astype(dtype).ravel() for name in set(_TABLES.values())}
        tables["index"] = np.min_scalar_type(size * size - 1)   # the narrowest holding a * size + b
        tables["size"] = np.array(size, dtype=tables["index"])  # scales faster than an int
        tables["bottom"] = algebra.bottom
        # the widest group whose tables hold at most _TABLE entries, (size ** 2) ** width; the
        # one-element algebra's hold one entry at any width, and it groups as two elements do
        tables["widest"] = 1
        while max(4, size * size) ** (tables["widest"] + 1) <= _TABLE:
            tables["widest"] += 1
        order = np.lexsort((np.arange(size), arrs.leq.sum(axis=0)))   # position -> element
        bits = size if size <= 16 else 8
        words = -(-size // bits)
        high = np.arange(words)[:, None] * bits + np.frexp(np.arange(2 ** bits))[1] - 1
        masks = []
        for member, by_bit in ((arrs.leq[order].T, order), (arrs.leq[:, order[::-1]], order[::-1])):
            # bit i of x's mask is member[x, i]: by_bit[i] is below (above) x
            packed = np.pad(member, ((0, 0), (0, words * bits - size))).reshape(
                size, words, bits) @ (1 << np.arange(bits))
            masks.append((packed.T.astype(np.min_scalar_type(2 ** bits - 1)),
                          by_bit[np.clip(high, 0, size - 1)]))
        (down, meet), (up, join) = masks
        tables["box"] = tuple(down[:, arrs.imp.ravel()]), tuple(meet.astype(dtype))
        tables["seq"] = tuple(up[:, arrs.fuse.ravel()]), tuple(join)
        tables["up"] = up, join
        # x* = one u x u x^2 u ...: the partial joins climb at most size - 1 times
        star, step = np.full(size, algebra.one), np.arange(size)
        while True:
            nxt = arrs.join[algebra.one, arrs.fuse[star, step]]
            if np.array_equal(nxt, star):
                break
            star = nxt
        scaled_star = np.zeros(size * size, np.intp)   # star(x) at x * size
        scaled_star[::size] = star
        tables["plus"] = (scaled_star, arrs.fuse.ravel(), arrs.fuse.T.ravel(),
                          arrs.join.ravel() * size, arrs.join.ravel())
        _NARROW[algebra] = tables
    return tables


class Plan:
    """Formulas and actions compiled into steps over numbered slots, and the values they compute.

    `add` numbers the subterms of more roots, so a plan can grow: `ids` maps
    each subterm to its formula slot or action index, `inputs` each given
    formula to its slot, and `steps` lists how the others are computed, in
    post-order; a constant or other variable fills its slot with its value,
    a variable's `valuation` row (batch one) or zero. `roots` holds (is
    action, slot or index) per root given to `plan`, and after `run`
    `relations` the relation of every action.
    """

    def __init__(self, algebra: FLAlgebra, valuation=None):
        self.algebra = algebra
        self.valuation = valuation or {}
        self.ids: dict = {}
        self._counts = [0, 0]                   # formula slots, actions
        self.inputs: dict = {}
        self.steps: list = []
        self.roots: list = []
        self._tables = _narrow(algebra)
        self.dtype = self._tables["meet"].dtype
        self._ws = np.empty((0, 0), self.dtype)
        self._ran = 0                           # steps run
        self.relations: list[np.ndarray] = []
        self._lock = threading.Lock()   # held by `grow`

    def add(self, roots, given=lambda node: False) -> list:
        """Number the subterms of `roots` that the plan does not hold yet, and
        list their steps; returns (is action, slot or index) per root.

        `given(node)` is asked of each new subterm the walk reaches; where it
        holds, the caller supplies the subterm and the walk does not look into
        it. DimensionMismatch for a constant, outside a given subterm, that is
        no element index; the subterms numbered before it stay numbered.
        """
        ids, counts, steps, size = self.ids, self._counts, self.steps, self.algebra.size
        # post-order: a node is expanded, then numbered, its children's numbers on `done`
        stack, done = [(r, False) for r in reversed(roots)], []
        while stack:
            node, expanded = stack.pop()
            kind, supplied = type(node), False
            if expanded:
                if kind is Plus:
                    args = (done.pop(), None)
                else:
                    right = done.pop()
                    args = (done.pop(), right)
            else:
                hit = ids.get(node)
                if hit is not None:
                    done.append(hit)
                    continue
                supplied = given(node)
                kids = () if supplied else children(node)
                if kids:
                    stack.append((node, True))
                    stack.extend([(k, False) for k in reversed(kids)])
                    continue
                if kind is Const and not supplied and not (0 <= node.index < size):
                    raise DimensionMismatch(f"constant #{node.index} is no element index")
            action = kind in ACTIONS
            i = ids[node] = counts[action]
            counts[action] += 1
            done.append(i)
            if expanded:
                steps.append((_TABLES.get(kind, kind), i, *args))
            elif supplied:
                if action:
                    steps.append((_INPUT, i, node, None))
                else:
                    self.inputs[node] = i
            elif kind is Atom:
                steps.append((_BOTTOM, i, None, None))
            else:
                value = (self.valuation.get(node.index, self.algebra.zero) if kind is Var
                         else node.index)
                steps.append((_FILL, i, np.asarray(value, self.dtype).reshape(-1, 1), None))
        # each root left its number on `done`, in order
        return [(type(r) in ACTIONS, i) for r, i in zip(roots, done)]

    def bind(self, n: int, batch: int) -> np.ndarray:
        """`views`, the workspace as (slots, n, batch) for the next block: the one sizing call.

        A block of more cells than the workspace holds makes it again, so a
        caller that knows its blocks' sizes binds the largest one first.
        Slots `add` numbered since are made room for, the rows at least
        doubling, every row computed kept. The caller writes each given
        formula's values into `views[inputs[formula]]` before `run`.
        """
        cells, rows = n * batch, self._counts[0]
        if cells > self._ws.shape[1]:
            self._ws = np.empty((rows, cells), self.dtype)
        elif rows > len(self._ws):
            ws = np.empty((max(rows, 2 * len(self._ws)), self._ws.shape[1]), self.dtype)
            ws[:len(self._ws)] = self._ws
            self._ws = ws
        self.n, self.batch = n, batch
        self.views = self._ws[:, :cells].reshape(-1, n, batch)
        return self.views

    def run(self, relations, start: int = 0) -> list:
        """Evaluate the bound block from step `start` on: the (n, batch) view or relation of each root.

        `relations[action]` is each given action's int64 (frames, n, n)
        relation. The block is frame-major: each action holds 1 frame, shared
        by the whole batch, or the same F frames, batch being F * per and
        member i in frame i // per (per is 1 for a frame per member). Fill
        steps run on every block; views stay the plan's, overwritten by the next.
        """
        algebra, n, views, tables = self.algebra, self.n, self.views, self._tables
        size, rels = tables["size"], self.relations
        rels.extend([None] * (self._counts[1] - len(rels)))
        boxed = None    # the action whose relation codes `rs` holds, with their table
        for op, out, a, b in self.steps[start:] if start else self.steps:
            if type(op) is str:
                _read(tables[op], size, views[a], views[b], views[out])
            elif op is Box:
                if a != boxed:
                    width = _width(tables, n, n * n * self.batch)
                    rs, boxed = _codes(tables, rels[a].transpose(2, 1, 0), width, True), a
                    table = _table(tables, "box", width, len(rs) == 1)
                # [A]f at s is the meet over targets t of imp[R(s, t), f(t)], each of the
                # F frames broadcast over its run of batch / F members
                shape = (n, rs.shape[2], self.batch // rs.shape[2])
                _contract(table, rs[..., None],
                          _codes(tables, views[b].reshape(n, 1, *shape[1:]), width, False),
                          views[out].reshape(shape))
            elif op is _FILL:
                views[out] = a
            elif op is _INPUT:
                rels[out] = relations[a]
            elif op is _BOTTOM:
                rels[out] = np.full((1, n, n), algebra.bottom, dtype=np.int64)
            elif op is Choice:
                rels[out] = lookup(algebra.arrays.join, rels[a], rels[b])
            elif op is Seq:
                rels[out] = compose(algebra, rels[a], rels[b])
            else:
                rels[out] = closure(algebra, rels[a])
        self._ran = len(self.steps)
        return [rels[i] if action else views[i] for action, i in self.roots]

    def grow(self, root, given, relations, n: int) -> np.ndarray:
        """The (n,) values or (1, n, n) relation of `root` in a plan of batch one, under its lock.

        `add` numbers what the plan lacks of the root and only the steps no
        earlier call ran are run, over `relations` as `run` reads them (a
        refused root may have left some); a root the plan holds is read where
        it lies. Every value computed before stays in its slot or relation.
        """
        with self._lock:
            i = self.ids.get(root)
            if i is None or self._ran < len(self.steps):
                ((_, i),) = self.add((root,), given)
                self.bind(n, 1)
                self.run(relations, start=self._ran)
            return self.relations[i] if type(root) in ACTIONS else self.views[i][:, 0]


def plan(roots, algebra: FLAlgebra, given=lambda node: False) -> Plan:
    """Compile formulas or actions into one plan, numbered by `Plan.add`."""
    p = Plan(algebra)
    p.roots = p.add(roots, given)
    return p
