"""Exception types shared across the package."""

from __future__ import annotations


class FLPDLError(Exception):
    """Base class for all library-specific errors. `args` holds every constructor argument,
    so pickling or `type(e)(*e.args)` rebuilds an error whole; `str` is formatted from them."""


class InvalidAlgebra(FLPDLError):
    """The submitted tables do not define an FL-algebra.

    `witness` holds the first offending tuple of element indices, if any.
    """

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message, witness)
        self.witness = witness

    def __str__(self) -> str:
        message, witness = self.args
        return message if witness is None else f"{message} (witness {witness})"


class NotALattice(InvalidAlgebra):
    pass


class NotAMonoid(InvalidAlgebra):
    pass


class NotResiduated(InvalidAlgebra):
    pass


class DimensionMismatch(FLPDLError):
    """Relations or models built over incompatible sizes or algebras."""


class _Positioned(FLPDLError):
    """An error at a 0-based offset `position` in formula or action text."""

    def __init__(self, message: str, position: int):
        super().__init__(message, position)
        self.position = position

    def __str__(self) -> str:
        return "{} (at position {})".format(*self.args)


class FormulaSyntaxError(_Positioned):
    """Unparseable formula or action text."""


class UnknownConstant(_Positioned):
    """A constant token names no element of the ambient algebra."""


class UnknownAtom(FLPDLError):
    """Strict-mode evaluation hit an action atom the frame does not map."""


class NotClosed(FLPDLError):
    """A formula list handed to filtration is not closed."""


class AtomBudgetExceeded(FLPDLError):
    """log_consequence would need more assignment evaluations than allowed."""


class BudgetExceeded(FLPDLError):
    """Bounded search ran out of its model budget before finishing.

    `frontier` records how far the enumeration got: a dict with the state
    count being processed, the index of the next candidate at that state
    count, and the total number of models checked. `models_evaluated`
    counts those of them the evaluator actually ran on.
    """

    def __init__(self, message: str, frontier: dict, models_evaluated: int):
        super().__init__(message, frontier, models_evaluated)
        self.frontier = frontier
        self.models_evaluated = models_evaluated

    def __str__(self) -> str:
        return self.args[0]
