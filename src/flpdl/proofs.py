"""Hilbert-style proof scripts over box axioms and two rules, plus checking.

A script is a list of lines, each a formula with a justification:

  * an axiom instance, one of six schemes over arbitrary actions,
    formulas, and constants: the line must equal the scheme built from
    its own parts, a biconditional in either orientation;
  * a consequence of earlier lines in the algebra's propositional base,
    decided exactly by brute force over atom assignments (variables and
    outermost boxes are the atoms), evaluated as batches of one-state
    models, 1024 assignments per block, through one kernel plan of the
    line and its premises;
  * monotonicity: from f -> g conclude [A]f -> [A]g;
  * iteration: from f -> [A]f conclude f -> [A+]f;
    each rule's conclusion is built from the cited line and compared.

Checking is per line; the verdict reports the first failure. Soundness of
the axioms needs the algebra commutative and integral, so checking over
one that is not attaches warnings (the constant-shifting axiom really can
fail there) without rejecting the script.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import kernel
from .algebra import FLAlgebra, ambient, is_commutative, is_integral, read_json
from .errors import AtomBudgetExceeded
from .parser import parse_formula
from .syntax import (And, Box, Choice, Const, Formula, Plus, RDiv, Seq, Var,
                     format_formula, iff)

DEFAULT_ATOM_BUDGET = 10 ** 7
_BLOCK = 1024  # assignments per log_consequence block; small blocks keep peak memory low

AXIOM_NAMES = ("A-1", "A-reg", "A-const", "A-choice", "A-seq", "A-plus")

_ALIASES = {
    "A-c̄": "A-const",   # combining macron
    "A-c¯": "A-const",
    "A-c": "A-const",
    "A-∪": "A-choice",   # union sign
    "A-u": "A-choice",
    "A-;": "A-seq",
    "A-+": "A-plus",
}


def canonical_axiom_name(name: str) -> str | None:
    name = name.strip()
    if name in AXIOM_NAMES:
        return name
    return _ALIASES.get(name)


# -- justifications and script structure -------------------------------------

@dataclass(frozen=True)
class ByAxiom:
    axiom: str


@dataclass(frozen=True)
class ByLog:
    refs: tuple[int, ...]


@dataclass(frozen=True)
class ByRMon:
    ref: int


@dataclass(frozen=True)
class ByRPlus:
    ref: int


Justification = ByAxiom | ByLog | ByRMon | ByRPlus


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    by: Justification


@dataclass(frozen=True)
class ProofScript:
    lines: tuple[ProofLine, ...]

    @property
    def conclusion(self) -> Formula:
        if not self.lines:
            raise ValueError("empty proof script")
        return self.lines[-1].formula


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    failed_line: int | None = None
    reason: str | None = None
    warnings: tuple[str, ...] = field(default=())


# -- axiom schemes, checked by construction ------------------------------------

def _unfolded(scheme: str, x: Formula) -> Formula | None:
    """The formula a biconditional scheme pairs with its boxed side x, or
    None when x does not have the scheme's shape."""
    if not isinstance(x, Box):
        return None
    a, f = x.action, x.body
    if scheme == "A-reg" and isinstance(f, And):
        return And(Box(a, f.left), Box(a, f.right))     # [a]f & [a]g
    if scheme == "A-const" and isinstance(f, RDiv) and isinstance(f.left, Const):
        return RDiv(f.left, Box(a, f.right))            # #c -> [a]f
    if scheme == "A-choice" and isinstance(a, Choice):
        return And(Box(a.left, f), Box(a.right, f))     # [a]f & [b]f
    if scheme == "A-seq" and isinstance(a, Seq):
        return Box(a.left, Box(a.right, f))             # [a][b]f
    if scheme == "A-plus" and isinstance(a, Plus):
        return Box(a.body, And(f, x))                   # [a](f & [a+]f)
    return None


def matches_axiom(formula: Formula, name: str, algebra: FLAlgebra) -> bool:
    """Is the formula an instance of the named scheme?

    Biconditional schemes are recognized in either orientation.
    """
    canon = canonical_axiom_name(name)
    if canon is None:
        raise ValueError(f"unknown axiom name {name!r}")
    if canon == "A-1":
        return isinstance(formula, Box) and formula.body == Const(algebra.one)
    if not (isinstance(formula, And) and isinstance(formula.left, RDiv)):
        return False
    x, y = formula.left.left, formula.left.right
    return formula == iff(x, y) and (y == _unfolded(canon, x) or x == _unfolded(canon, y))


def match_axiom(formula: Formula, algebra: FLAlgebra) -> str | None:
    """Name of the first scheme the formula instantiates, if any."""
    for name in AXIOM_NAMES:
        if matches_axiom(formula, name, algebra):
            return name
    return None


# -- the propositional base, decided semantically ------------------------------

def log_consequence(premises: Sequence[Formula], conclusion: Formula,
                    algebra: FLAlgebra,
                    atom_budget: int = DEFAULT_ATOM_BUDGET) -> bool:
    """Does the conclusion follow from the premises propositionally?

    Variables and outermost boxes are the atoms; everything else is
    evaluated through the algebra. True iff every atom assignment that
    puts one below the meet of the premises also puts one below the
    conclusion. Exact for a finite algebra, at |algebra| ** #atoms
    assignments; past atom_budget the check refuses instead of guessing.
    """
    if atom_budget < 1:
        raise ValueError("atom budget must be positive")
    # one assignment per one-state model; the atoms are given, never looked into
    plan = kernel.plan((conclusion, *premises), algebra, lambda node: isinstance(node, (Var, Box)))
    atoms = len(plan.inputs)
    count = algebra.size ** atoms
    if count > atom_budget:
        raise AtomBudgetExceeded(
            f"{count} assignments over {atoms} atoms exceed the budget of {atom_budget}")
    holds = algebra.arrays.leq[algebra.one]
    for start in range(0, count, _BLOCK):
        block = min(_BLOCK, count - start)
        views = plan.bind(1, block)
        kernel.digits(np.arange(start, start + block), algebra.size,
                      [views[slot][0] for slot in plan.inputs.values()])
        conclusion_values, *premise_values = plan.run({})
        refuted = ~holds[conclusion_values[0]]
        for values in premise_values:
            refuted &= holds[values[0]]
        if refuted.any():
            return False
    return True


# -- script checking -----------------------------------------------------------

def _ambient_warnings(algebra: FLAlgebra) -> tuple[str, ...]:
    out = []
    if not is_commutative(algebra):
        out.append("algebra is not commutative: the constant-shifting axiom is unsound here")
    if not is_integral(algebra):
        out.append("algebra is not integral: soundness of the system is not guaranteed here")
    return tuple(out)


def check_proof(script: ProofScript, algebra: FLAlgebra,
                atom_budget: int = DEFAULT_ATOM_BUDGET) -> Verdict:
    """Check every line; report the first failure with its reason."""
    if atom_budget < 1:
        raise ValueError("atom budget must be positive")
    warnings = _ambient_warnings(algebra)

    def reject(i: int, reason: str) -> Verdict:
        return Verdict(False, i, reason, warnings)

    for i, line in enumerate(script.lines):
        by = line.by
        if isinstance(by, ByAxiom):
            name = canonical_axiom_name(by.axiom)
            if name is None:
                return reject(i, f"unknown axiom name {by.axiom!r}")
            if not matches_axiom(line.formula, name, algebra):
                return reject(i, f"formula is not an instance of {name}")
        elif isinstance(by, (ByLog, ByRMon, ByRPlus)):
            refs = by.refs if isinstance(by, ByLog) else (by.ref,)
            for r in refs:
                if not (0 <= r < i):
                    return reject(i, f"CircularCitation: line {i} cites line {r}")
            if isinstance(by, ByLog):
                cited = [script.lines[r].formula for r in refs]
                if not log_consequence(cited, line.formula, algebra, atom_budget):
                    return reject(i, "not a consequence of the cited lines over this algebra")
            elif isinstance(by, ByRMon):
                cited, want = script.lines[by.ref].formula, line.formula
                if not isinstance(cited, RDiv):
                    return reject(i, "monotonicity must cite an implication")
                a = want.left.action if isinstance(want, RDiv) and isinstance(want.left, Box) else None
                if a is None or want != RDiv(Box(a, cited.left), Box(a, cited.right)):
                    return reject(i, "conclusion is not the boxed form of the cited implication")
            else:
                cited, want = script.lines[by.ref].formula, line.formula
                a = cited.right.action if isinstance(cited, RDiv) and isinstance(cited.right, Box) else None
                if a is None or cited != RDiv(cited.left, Box(a, cited.left)):
                    return reject(i, "iteration must cite a line of shape f -> [A]f")
                if want != RDiv(cited.left, Box(Plus(a), cited.left)):
                    return reject(i, "conclusion is not the iterated form of the cited implication")
        else:
            return reject(i, f"unknown justification {by!r}")
    return Verdict(True, None, None, warnings)


# -- JSON form ------------------------------------------------------------------

def _line_from_json(obj: dict, algebra: FLAlgebra, where: str) -> ProofLine:
    if not isinstance(obj, dict) or "formula" not in obj or "by" not in obj:
        raise ValueError(f'{where}: each proof line needs "formula" and "by"')
    by_raw = obj["by"]
    if not isinstance(by_raw, dict):
        raise ValueError(f'{where}: "by" must be an object with a "kind"')
    kind = by_raw.get("kind")

    def cited(refs) -> tuple[int, ...]:
        if not isinstance(refs, list) or not all(
                isinstance(r, int) and not isinstance(r, bool) for r in refs):
            raise ValueError(f"{where}: cited lines must be a list of line numbers")
        return tuple(refs)

    if kind == "axiom":
        if not isinstance(by_raw.get("axiom"), str):
            raise ValueError(f'{where}: an axiom line needs "axiom", a scheme name')
        by: Justification = ByAxiom(by_raw["axiom"])
    elif kind == "log":
        by = ByLog(cited(by_raw.get("refs", [])))
    elif kind in ("rmon", "rplus"):
        refs = cited([by_raw["ref"]] if "ref" in by_raw else by_raw.get("refs", []))
        if len(refs) != 1:
            raise ValueError(f"{where}: {kind} takes exactly one cited line")
        by = ByRMon(refs[0]) if kind == "rmon" else ByRPlus(refs[0])
    else:
        raise ValueError(f"{where}: unknown justification kind {kind!r}")
    if not isinstance(obj["formula"], str):
        raise ValueError(f'{where}: "formula" must be a string')
    return ProofLine(parse_formula(obj["formula"], algebra), by)


def read_proof(source, algebra: FLAlgebra | dict | str | None = None
               ) -> tuple[ProofScript, FLAlgebra]:
    """A proof script and the algebra its lines are read over.

    The source is a dict with a "lines" array, a list of lines, or the
    path of a JSON file holding either. The algebra argument wins over a
    dict's own "algebra" field (inline or URI): see `algebra.ambient`.
    """
    source = read_json(source, "proof")
    if not isinstance(source, (dict, list)):
        raise ValueError("a proof source must be a JSON object or a list")
    algebra = ambient(source, algebra, "proof")
    raw_lines = source.get("lines") if isinstance(source, dict) else source
    if not isinstance(raw_lines, list):
        raise ValueError('proof dict needs a "lines" array')
    lines = tuple(_line_from_json(obj, algebra, f"line {i}") for i, obj in enumerate(raw_lines))
    return ProofScript(lines), algebra


def load_proof(source, algebra: FLAlgebra | dict | str | None = None) -> ProofScript:
    """The proof script of read_proof(source, algebra)."""
    return read_proof(source, algebra)[0]


def proof_to_json(script: ProofScript) -> list[dict]:
    out = []
    for line in script.lines:
        by = line.by
        if isinstance(by, ByAxiom):
            j = {"kind": "axiom", "axiom": by.axiom}
        elif isinstance(by, ByLog):
            j = {"kind": "log", "refs": list(by.refs)}
        elif isinstance(by, ByRMon):
            j = {"kind": "rmon", "ref": by.ref}
        else:
            j = {"kind": "rplus", "ref": by.ref}
        out.append({"formula": format_formula(line.formula), "by": j})
    return out
