"""The parser's outcomes: pinned over seeded text, and a property over any text."""

import functools
import hashlib
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flpdl.algebra import cost_chain
from flpdl.algebra_search import find_non_commutative, find_non_integral
from flpdl.errors import FormulaSyntaxError, UnknownConstant
from flpdl.generators import random_action, random_formula
from flpdl.parser import MAX_NESTING, parse_action, parse_formula
from flpdl.syntax import format_action, format_formula

TOKENS = ["p0", "p1", "p", "p12", "a0", "a1", "a", "u", "#0", "#1", "#2", "#3", "#bot", "#top",
          "#one", "#zero", "#x", "&", "|", "*", "\\", "!", ";", "+", "[", "]", "<", ">",
          "(", ")", "->", "<->", " "]
BAD = ["-", "@", "#"]
WRAPPERS = ["!", "[a0]", "<a0>", "[a0*]", "<a0*>", "(", "(p0 & ", "p0 -> ", "p1 <-> ", "(p0 * ",
            "(p0 | ", "[(a0 u a1)+]", "#1 \\ ", "p0 & "]
ACTION_WRAPPERS = ["(", "a0 ; (", "a1 u (", "(a0 u "]


def _outcome(parse, show, text):
    """The printed tree, or the error's type, message and position."""
    try:
        node = parse(text)
    except (FormulaSyntaxError, UnknownConstant) as exc:
        return [type(exc).__name__, str(exc), getattr(exc, "position", None)]
    return show(node)


def _texts():
    """Seeded inputs: token soups, one-token edits of printed trees, and
    random nestings a few levels either side of MAX_NESTING."""
    rng = random.Random(20261018)
    C3 = cost_chain(3)
    texts = []
    for _ in range(2000):
        glue = rng.choice(["", " "])
        words = [rng.choice(TOKENS) for _ in range(rng.randint(1, 12))]
        if rng.random() < 0.1:
            words.insert(rng.randrange(len(words) + 1), rng.choice(BAD))
        texts.append(glue.join(words))
    for _ in range(300):
        if rng.random() < 0.5:
            text = format_formula(random_formula(rng, C3, depth=rng.randint(1, 5)))
        else:
            text = "[" + format_action(random_action(rng, depth=rng.randint(1, 4))) + "]p0"
        i = rng.randrange(len(text) + 1)
        j = i + rng.choice([0, 0, 1, 2])
        texts.append(text[:i] + rng.choice(TOKENS + BAD + [""]) + text[j:])
    for _ in range(200):
        if rng.random() < 0.7:
            text = "".join(rng.choice(WRAPPERS) for _ in range(rng.randint(40, 110)))
            texts.append(text + "p0" + ")" * (text.count("(") - text.count(")")))
        else:
            parts = [rng.choice(ACTION_WRAPPERS) for _ in range(rng.randint(56, 68))]
            tail = "+" * rng.randint(0, 8)
            texts.append("[" + "".join(parts) + "a0" + tail + ")" * len(parts) + "]p0")
    for k in range(MAX_NESTING - 2, MAX_NESTING + 3):
        for op in ("&", "|", "*", "->", "<->", "\\"):
            texts.append(f" {op} ".join(["p0"] * (k + 1)))
        for op in ("u", ";"):
            texts.append("[" + f" {op} ".join(["a0"] * (k + 1)) + "]p0")
    return texts


def test_parse_outcomes_on_seeded_text_pinned():
    """The outcome of parsing each seeded text as a formula over cost:3 and
    as an action, pinned from the recursive-descent parser the
    precedence-climbing one replaced."""
    C3 = cost_chain(3)
    texts = _texts()
    formulas = [_outcome(lambda t: parse_formula(t, C3), format_formula, t) for t in texts]
    actions = [_outcome(parse_action, format_action, t) for t in texts]
    assert len(texts) == 2540
    assert sum(isinstance(o, str) for o in formulas + actions) == 225
    digest = hashlib.sha256(json.dumps([formulas, actions]).encode()).hexdigest()
    assert digest == "74ddb084ed9ad6ffb96535717c07e1463f1d373e3058a05d6cdcbc0e81aa8ca7"


@functools.cache
def _algebra(name):
    return {"cost:3": cost_chain, "non-integral": lambda _: find_non_integral(),
            "non-commutative": lambda _: find_non_commutative()}[name](3)


TEXT = st.one_of(st.text(max_size=40),
                 st.lists(st.sampled_from(TOKENS + BAD + ["p²", "#²", "a٣", "#٣", "\t"]),
                          max_size=24).map("".join))


@pytest.mark.filterwarnings("ignore:starred boxes")
@pytest.mark.parametrize("name", ["cost:3", "non-integral", "non-commutative"])
@settings(max_examples=300)
@given(text=TEXT)
def test_any_text_parses_to_a_printable_tree_or_a_positioned_error(name, text):
    A = _algebra(name)
    for parse, show in ((lambda t: parse_formula(t, A), format_formula),
                        (parse_action, format_action)):
        try:
            node = parse(text)
        except FormulaSyntaxError as exc:
            assert 0 <= exc.position <= len(text)
        except UnknownConstant:
            pass
        else:
            assert parse(show(node)) == node


@pytest.mark.parametrize("text, position", [
    ("p²", 1), ("p1²", 2), ("a٣", 1), ("[a٣]p0", 2), ("p٣", 1), ("p0 & p١", 6),
    ("p" + "7" * 5000, 0), ("[a" + "0" * 5000 + "]p0", 1),
], ids=["p²", "p1²", "a٣", "[a٣]p0", "p٣", "p0 & p١", "p and 5000 digits", "a and 5000 digits"])
def test_indices_are_ascii_digits_within_int_range(C3, text, position):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula(text, C3)
    assert exc.value.position == position


@pytest.mark.parametrize("text", ["#²", "#٣", "#1٣"])
def test_a_constant_of_other_digits_names_no_element(C3, text):
    with pytest.raises(UnknownConstant, match="names no element"):
        parse_formula(text, C3)


def test_a_constant_index_past_the_int_limit_is_a_syntax_error(C3):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("p0 & #" + "1" * 5000, C3)
    assert exc.value.position == 5


def test_long_indices_inside_the_int_limit_still_parse(C3):
    digits = "9" * (sys.get_int_max_str_digits() or 4300)
    assert parse_formula("p" + digits, C3).index == int(digits)
    assert parse_formula("#" + "0" * 100 + "2", C3).index == 2


def test_starred_box_warning_names_the_callers_line():
    A = find_non_integral()
    with pytest.warns(UserWarning, match="starred boxes") as record:
        parse_formula("[a0*]p0 & <a1*>p1", A)
    assert [w.filename for w in record] == [__file__]
