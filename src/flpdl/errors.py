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
    """Work ran out of its budget or cap before finishing.

    `frontier` records how far the work got, as a dict of one of three shapes:
    - the bounded scan's {"states", "next_index", "models_checked",
      "max_states"}: the state count being processed, the index of the next
      candidate at that state count, the models checked in all, and the
      state count asked for;
    - `decide_exact`'s {"types", "round"}: the types alive, or to be made,
      and the elimination round, 0 before the first;
    - `theoretical_bound`'s {"closure": CLOSURE_CAP + 1}: the closure
      formulas made, one past the cap.
    `models_evaluated` counts the candidates the evaluator actually ran on,
    0 outside the scan.
    """

    def __init__(self, message: str, frontier: dict, models_evaluated: int):
        super().__init__(message, frontier, models_evaluated)
        self.frontier = frontier
        self.models_evaluated = models_evaluated

    def __str__(self) -> str:
        return self.args[0]
