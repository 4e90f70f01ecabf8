"""Every library error survives pickling, and rebuilding from its `args`, whole."""

import pickle

import pytest

from flpdl import errors


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


_ERRORS = [errors.FLPDLError, *_subclasses(errors.FLPDLError)]
_ARGS = {errors.InvalidAlgebra: ("fusion is not associative", (0, 1, 2)),
         errors._Positioned: ("unexpected token", 3),
         errors.BudgetExceeded: ("candidate budget exhausted",
                                 {"states": 2, "next_index": 5, "models_checked": 9}, 7)}


def _made(cls):
    """An instance of cls, from the arguments of its nearest base that takes more than a message."""
    for base in cls.__mro__:
        if base in _ARGS:
            return cls(*_ARGS[base])
    return cls("something went wrong")


def test_every_kind_of_constructor_is_covered():
    assert {errors.NotResiduated, errors.FormulaSyntaxError, errors.UnknownConstant,
            errors.BudgetExceeded, errors.DimensionMismatch} <= set(_ERRORS)


@pytest.mark.parametrize("cls", _ERRORS, ids=lambda cls: cls.__name__)
def test_errors_survive_pickling(cls):
    error = _made(cls)
    for rebuilt in (pickle.loads(pickle.dumps(error)), cls(*error.args)):
        assert type(rebuilt) is cls
        assert str(rebuilt) == str(error)
        assert rebuilt.args == error.args
        assert vars(rebuilt) == vars(error)


def test_fields_and_messages_after_a_round_trip():
    def again(error):
        return pickle.loads(pickle.dumps(error))

    syntax = again(errors.FormulaSyntaxError("bad", 3))
    assert (str(syntax), syntax.position) == ("bad (at position 3)", 3)
    constant = again(errors.UnknownConstant("#x names no element of the ambient algebra", 4))
    assert (str(constant), constant.position) == (
        "#x names no element of the ambient algebra (at position 4)", 4)
    budget = again(errors.BudgetExceeded("out of budget", {"states": 3}, 12))
    assert (str(budget), budget.frontier, budget.models_evaluated) == (
        "out of budget", {"states": 3}, 12)
    # the witness is formatted into the message once, and kept
    algebra = again(errors.NotALattice("join is not a least upper bound", (1, 2)))
    assert (str(algebra), algebra.witness) == ("join is not a least upper bound (witness (1, 2))",
                                               (1, 2))
    plain = again(errors.InvalidAlgebra("tables have different sizes"))
    assert (str(plain), plain.witness) == ("tables have different sizes", None)
