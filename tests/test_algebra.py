"""Tables, builtins, validation, and the derived residuals."""

import hashlib
import json
import random

import pytest

from flpdl.algebra import (MAX_SIZE, FLAlgebra, algebra_to_json, bool2,
                           build_algebra, check_algebra_properties, cost_chain,
                           is_commutative, is_integral, load_algebra, product,
                           resolve_builtin)
from flpdl.algebra_search import find_non_commutative, find_non_integral, iter_algebras
from flpdl.errors import InvalidAlgebra, NotALattice, NotAMonoid, NotResiduated
from flpdl.parser import parse_formula
from flpdl.syntax import Const


def test_builtins_validate(builtins):
    for uri, alg in builtins.items():
        report = check_algebra_properties(alg)
        assert report.all_passed, (uri, report.failures())


def test_builtin_uris_resolve(builtins):
    for uri, alg in builtins.items():
        assert resolve_builtin(uri).same_tables(alg)


def test_bool2_shape(B):
    assert B.size == 2
    assert B.one == B.top == 1
    assert B.zero == B.bottom == 0
    assert is_commutative(B) and is_integral(B)
    # two-element case: fusion coincides with meet
    assert B.fusion_table == B.meet_table


def test_bool2_implication_is_material(B):
    for a in range(2):
        for b in range(2):
            classical = int((not a) or b)
            assert B.imp(a, b) == classical


def test_cost_chain_order_is_reversed_numeric(C5):
    # 0 is the best (top) cost, n-1 the worst (bottom)
    assert C5.top == 0 and C5.bottom == 4
    assert C5.one == 0 and C5.zero == 0
    for a in range(5):
        for b in range(5):
            assert C5.leq(a, b) == (b <= a)


def test_cost_chain_implication_is_truncated_subtraction(C5):
    for a in range(5):
        for b in range(5):
            assert C5.imp(a, b) == max(b - a, 0)
            assert C5.fuse(a, b) == min(a + b, 4)


def test_cost_chain_residuals_coincide(C5):
    # commutative, so both divisions agree with the implication
    for a in range(5):
        for b in range(5):
            assert C5.ldiv(a, b) == C5.rdiv(b, a) == C5.imp(a, b)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_cost_chain_sizes(n):
    alg = cost_chain(n)
    assert alg.size == n
    assert check_algebra_properties(alg).all_passed


def test_cost_chain_rejects_empty():
    with pytest.raises(ValueError):
        cost_chain(0)


def test_builtin_sizes_are_capped():
    assert MAX_SIZE >= 82  # the weighted-path tests run over cost:82
    assert cost_chain(MAX_SIZE).size == MAX_SIZE
    for uri in (f"builtin:cost:{MAX_SIZE + 1}", "builtin:cost:99999999",
                f"builtin:product(bool2,cost:{MAX_SIZE // 2 + 1})"):
        with pytest.raises(ValueError):
            resolve_builtin(uri)


def test_product_structure(B, C3, P6):
    assert P6.size == 6
    # element (i, j) sits at index i*3 + j
    enc = lambda i, j: i * 3 + j
    assert P6.one == enc(B.one, C3.one)
    assert P6.zero == enc(B.zero, C3.zero)
    assert P6.top == enc(B.top, C3.top)
    assert P6.bottom == enc(B.bottom, C3.bottom)
    for i1 in range(2):
        for j1 in range(3):
            for i2 in range(2):
                for j2 in range(3):
                    a, b = enc(i1, j1), enc(i2, j2)
                    assert P6.fuse(a, b) == enc(B.fuse(i1, i2), C3.fuse(j1, j2))
                    assert P6.meet(a, b) == enc(B.meet(i1, i2), C3.meet(j1, j2))
                    assert P6.join(a, b) == enc(B.join(i1, i2), C3.join(j1, j2))


def test_product_uri_round_trip(P6):
    assert load_algebra("builtin:product(bool2,cost:3)").same_tables(P6)


def test_fusion_annihilates_bottom(builtins):
    for alg in builtins.values():
        bot = alg.bottom
        for a in range(alg.size):
            assert alg.fuse(a, bot) == bot
            assert alg.fuse(bot, a) == bot


def test_one_is_unit_everywhere(builtins):
    for alg in builtins.values():
        for a in range(alg.size):
            assert alg.fuse(alg.one, a) == a
            assert alg.fuse(a, alg.one) == a


def test_residuation_law(builtins):
    # a*b <= c  iff  b <= a\c  iff  a <= c/b
    for alg in builtins.values():
        for a in range(alg.size):
            for b in range(alg.size):
                for c in range(alg.size):
                    fused = alg.leq(alg.fuse(a, b), c)
                    assert fused == alg.leq(b, alg.ldiv(a, c))
                    assert fused == alg.leq(a, alg.rdiv(c, b))


def test_build_rejects_broken_lattice():
    with pytest.raises(InvalidAlgebra):
        build_algebra(2, meet=[[0, 1], [1, 1]], join=[[0, 1], [1, 1]],
                      fusion=[[0, 0], [0, 1]], one=1, zero=0)


def test_build_rejects_broken_unit():
    with pytest.raises(InvalidAlgebra) as exc:
        build_algebra(2, meet=[[0, 0], [0, 1]], join=[[0, 1], [1, 1]],
                      fusion=[[0, 1], [1, 0]], one=1, zero=0)
    assert exc.value.witness is not None


def test_build_rejects_non_monotone_fusion():
    # fusion not order-preserving cannot be residuated
    with pytest.raises(InvalidAlgebra):
        build_algebra(3,
                      meet=[[0, 0, 0], [0, 1, 1], [0, 1, 2]],
                      join=[[0, 1, 2], [1, 1, 2], [2, 2, 2]],
                      fusion=[[2, 0, 0], [0, 1, 1], [0, 1, 2]],
                      one=2, zero=0)


def test_cost5_perturbation_census(C5):
    """Of the 100 single-entry fusion edits, build_algebra rejects 99.

    The lone survivor bumps 1*1 from 2 to 3 and happens to satisfy every
    law, so it must pass the full property check too. Pinned so the
    validation boundary cannot silently move.
    """
    survivors = []
    rejected = 0
    for i in range(5):
        for j in range(5):
            for v in range(5):
                if v == C5.fusion_table[i][j]:
                    continue
                tab = [list(row) for row in C5.fusion_table]
                tab[i][j] = v
                try:
                    alg = build_algebra(5, C5.meet_table, C5.join_table, tab,
                                        C5.one, C5.zero)
                except InvalidAlgebra:
                    rejected += 1
                    continue
                if check_algebra_properties(alg).all_passed:
                    survivors.append((i, j, v))
    assert rejected == 99
    assert survivors == [(1, 1, 3)]


def test_json_round_trip(builtins):
    for alg in builtins.values():
        again = load_algebra(algebra_to_json(alg))
        assert again.same_tables(alg)
        assert again.one == alg.one and again.zero == alg.zero


def test_load_algebra_from_file(tmp_path, C3):
    import json
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(algebra_to_json(C3)))
    assert load_algebra(str(path)).same_tables(C3)


def test_load_algebra_unknown_uri():
    with pytest.raises(ValueError):
        load_algebra("builtin:galaxy")


def test_element_names(B):
    named = build_algebra(2, B.meet_table, B.join_table, B.fusion_table,
                          one=1, zero=0, names=("f", "t"))
    assert named.element_name(0) == "f"
    assert named.element_name(1) == "t"
    assert B.element_name(0) in ("0", "false")


@pytest.mark.parametrize("names", [
    ("x", "x"),         # #x would read as element 0, whichever was meant
    ("1", "0"),         # digits read as the index they spell
    ("0", "2"),         # no element 2 for #2 to read as
    ("0" * 5000, "t"),  # more digits than an index can have: #000... reads as nothing
    ("top", "bot"),     # the aliases come before names
    ("one", "t"),       # one is element 1 of bool2
])
def test_element_names_that_read_as_another_element_are_rejected(B, names):
    with pytest.raises(ValueError, match="does not read as element"):
        build_algebra(2, B.meet_table, B.join_table, B.fusion_table, one=1, zero=0, names=names)


@pytest.mark.parametrize("names", [("bot", "top"), ("zero", "one"), ("00", "01"), ("f", "one")])
def test_element_names_that_read_as_their_own_element_are_kept(B, names):
    named = build_algebra(2, B.meet_table, B.join_table, B.fusion_table, one=1, zero=0,
                          names=names)
    assert named.names == names
    for i, name in enumerate(names):
        assert parse_formula(f"#{name}", named) == Const(i)


def test_non_integral_search_fixture():
    alg = find_non_integral(max_size=3)
    assert alg.size == 3
    assert not is_integral(alg)
    assert alg.one == 1 and alg.top == 2
    assert alg.fusion_table == ((0, 0, 0), (0, 1, 2), (0, 2, 2))
    assert check_algebra_properties(alg).all_passed


def test_non_commutative_search_fixture():
    alg = find_non_commutative(max_size=4)
    assert alg.size == 4
    assert not is_commutative(alg)
    assert alg.one == 2
    assert alg.fusion_table == ((0, 0, 0, 0), (0, 1, 1, 1),
                                (0, 1, 2, 3), (0, 3, 3, 3))
    assert check_algebra_properties(alg).all_passed


def test_search_past_the_catalog_or_without_a_match():
    with pytest.raises(LookupError, match="no non-integral FL-algebra with at most 2 elements"):
        find_non_integral(max_size=2)
    with pytest.raises(LookupError, match="no non-commutative FL-algebra with at most 3"):
        find_non_commutative(max_size=3)
    with pytest.raises(ValueError, match="sizes up to 4"):
        find_non_integral(max_size=5)


# the first 16 hex digits of the sha256 of repr((size, one, meet_table, fusion_table)),
# per catalog algebra in canonical order: sizes 1, 2, 3 (three) and 4 (24), the 4-chain's
# 15 before the diamond's 9
_CATALOG = (
    "59a5f34d600509af", "89cb5e6a084ef8ee", "d238df64dbc84ab1", "a096dccbad5f751a",
    "4699fc42c639c3fc", "f951f23e0db14f5a", "34f3853741ccacec", "774e7b944ecabaf2",
    "a93ca467c2f9c470", "003a4fc33d696e10", "a8b8d3baabbbb079", "3a4012f502e9b905",
    "3f98799c8a62077c", "26c0a9cce4dc5716", "07e28586687a8c4a", "5a492b2072e7d7ab",
    "83df9a2cb3026de5", "6c610361d8b28ce6", "d9267463da58dff2", "1dfa4ab4e075c99b",
    "a62254627bc1b33b", "43a9fda87cb28fb1", "cc698a911ed7c283", "c90df69af08e5bf5",
    "328aaa9372f696d5", "f15558ca219a0764", "00de50b94874ca0b", "fe0a11e695a49748",
    "f57afda09c81f5ce",
)


def _catalog_digest(alg):
    key = repr((alg.size, alg.one, alg.meet_table, alg.fusion_table))
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def test_algebra_catalog_is_pinned():
    catalog = list(iter_algebras())
    assert tuple(map(_catalog_digest, catalog)) == _CATALOG
    assert [sum(a.size == n for a in catalog) for n in (1, 2, 3, 4)] == [1, 1, 3, 24]
    odd = [(not is_integral(a), not is_commutative(a)) for a in catalog]
    assert [sum(column) for column in zip(*odd)] == [16, 4]
    assert sum(both for both in map(all, odd)) == 2
    assert all(check_algebra_properties(a).all_passed for a in catalog)


@pytest.mark.parametrize("max_size", [1, 2, 3, 4])
def test_searches_are_the_first_catalog_match(max_size):
    catalog = list(iter_algebras(max_size))
    assert tuple(map(_catalog_digest, catalog)) == _CATALOG[:len(catalog)]
    for find, feature, lacks in ((find_non_integral, "non-integral", is_integral),
                                 (find_non_commutative, "non-commutative", is_commutative)):
        matches = [a for a in catalog if not lacks(a)]
        if matches:
            assert find(max_size).same_tables(matches[0])
        else:
            with pytest.raises(LookupError, match=f"^no {feature} FL-algebra with at most "
                                                  f"{max_size} elements$"):
                find(max_size)


def _unvalidated_tables(count, seed):
    """Tables handed to FLAlgebra unchecked: every other one random, the rest
    a small algebra with one or two entries of a table (leq included) changed."""
    rng = random.Random(seed)
    pool = [bool2(), cost_chain(2), cost_chain(3), cost_chain(4), cost_chain(5),
            find_non_commutative(), find_non_integral(), product(bool2(), bool2())]
    out = []
    for k in range(count):
        if k % 2 == 0:
            n = rng.randint(1, 5)
            tabs = [[[rng.randrange(n) for _ in range(n)] for _ in range(n)] for _ in range(5)]
            leq = [[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]
            one = rng.randrange(n)
        else:
            base = rng.choice(pool)
            n = base.size
            tabs = [[list(row) for row in t] for t in (base.meet_table, base.join_table,
                                                       base.fusion_table, base.ldiv_table,
                                                       base.imp_table)]
            leq = [list(row) for row in base.leq_table]
            one = base.one
            for _ in range(rng.randint(1, 2)):
                t = rng.randrange(6)
                i, j = rng.randrange(n), rng.randrange(n)
                if t == 5:
                    leq[i][j] = not leq[i][j]
                else:
                    tabs[t][i][j] = rng.randrange(n)
        out.append(FLAlgebra(n, *tabs, leq, one, 0, 0, 0))
    return out


def test_property_reports_on_unvalidated_tables_pinned():
    """Names, verdicts and first counterexamples of check_algebra_properties on
    400 tables that break the laws in every way, pinned from the scalar
    per-tuple loops the array checks replaced."""
    reports = [[[c.name, c.holds, c.counterexample] for c in check_algebra_properties(alg).checks]
               for alg in _unvalidated_tables(400, 20261018)]
    failures = [sum(not report[k][1] for report in reports) for k in range(8)]
    assert failures == [208, 224, 186, 180, 229, 211, 229, 150]
    digest = hashlib.sha256(json.dumps(reports).encode()).hexdigest()
    assert digest == "05536bb413ed3f26ba30fb9f98a6d578344df99b94e8826e0723d0205f6908d6"


def _edit_census(base):
    """build_algebra's verdict on every single-entry edit of the meet, join and
    fusion tables, in row-major order and increasing new value: '.' accepted,
    else the first letter of the rejection (Lattice, Monoid, Residuated)."""
    code = {NotALattice: "L", NotAMonoid: "M", NotResiduated: "R"}
    census = {}
    for name in ("meet", "join", "fusion"):
        verdicts = ""
        for i in range(base.size):
            for j in range(base.size):
                for v in range(base.size):
                    tabs = {t: [list(row) for row in getattr(base, t + "_table")]
                            for t in ("meet", "join", "fusion")}
                    if v == tabs[name][i][j]:
                        continue
                    tabs[name][i][j] = v
                    try:
                        build_algebra(base.size, tabs["meet"], tabs["join"], tabs["fusion"],
                                      base.one, base.zero)
                        verdicts += "."
                    except InvalidAlgebra as exc:
                        assert exc.witness is not None, (name, i, j, v)
                        verdicts += code[type(exc)]
        census[name] = verdicts
    return census


@pytest.mark.parametrize("make, fusion", [
    (lambda: cost_chain(4), "M" * 16 + ".." + "M" * 30),
    (find_non_commutative, "M" * 23 + "." + "M" * 16 + "." + "M" * 7),
], ids=["cost:4", "non-commutative"])
def test_single_entry_edit_census(make, fusion):
    assert _edit_census(make()) == {"meet": "L" * 48, "join": "L" * 48, "fusion": fusion}
