"""Hunting for refutations, or certifying there are none.

decide_bounded enumerates every model up to a state bound in a fixed
canonical order (vectorized in blocks, each hit re-checked by the plain
evaluator) and reports one of three outcomes: a countermodel, exhaustion
of the space, or validity outright when the bound covers the filtration
class count.

Before it searches past one state (or draws, in sample mode) it settles
valid formulas exactly: decide_exact's type elimination proves them
valid, and the scan then counts the remaining candidates without
evaluating any, with every outcome and count the same as a full scan.
theoretical_bound counts the closure only up to CLOSURE_CAP formulas and
raises BudgetExceeded past it.
"""

from flpdl import (BudgetExceeded, Countermodel, NoCountermodelUpTo,
                   ValidByExhaustion, bool2, cost_chain, decide_bounded,
                   parse_formula, theoretical_bound)


def report(text: str, algebra, max_states: int, **kw) -> None:
    f = parse_formula(text, algebra)
    try:
        out = decide_bounded(f, algebra, max_states, **kw)
    except BudgetExceeded as exc:
        print(f"{text:34} budget ran out at {exc.frontier}")
        return
    if isinstance(out, Countermodel):
        print(f"{text:34} refuted: {out.model.frame.size}-state model, "
              f"value {out.value} at state {out.witness_state} "
              f"({out.models_checked} candidates)")
    elif isinstance(out, ValidByExhaustion):
        print(f"{text:34} valid, all models up to {out.bound} states checked")
    else:
        print(f"{text:34} no countermodel up to {out.max_states} states "
              f"({out.models_checked} candidates)")


def main() -> None:
    B = bool2()
    c3 = cost_chain(3)

    # not a law: there is a 2-state Boolean refutation
    report("p -> [a]p", B, 2)

    # a designated constant is valid by sheer exhaustion: its filtration
    # bound is tiny
    print("bound for #one:", theoretical_bound(parse_formula("#one", B), B))
    report("#one", B, 2)

    # box laws survive the search over both algebras
    report("[a0 u a1]p <-> ([a0]p & [a1]p)", B, 2)
    report("[a0+]p <-> [a0](p & [a0+]p)", c3, 2)

    # over the cost chain, contraction fails: doing it twice costs more
    report("p0 -> p0 * p0", c3, 1)

    # sampling scans a huge space probabilistically but reproducibly
    report("[a0](p0 & p1) -> [a0]p0 * p1", c3, 3, mode="sample",
           budget=3000, seed=11)

    # a small budget on a big exhaustive space stops with a frontier
    report("[a0](p0 & p1) <-> ([a0]p0 & [a0]p1)", c3, 3, budget=2000)


if __name__ == "__main__":
    main()
