"""Hilbert-style proof scripts over box axioms and two rules, plus checking.

A script is a list of lines, each a formula with a justification:

  * an axiom instance, one of six schemes over arbitrary actions,
    formulas, and constants;
  * a consequence of earlier lines in the algebra's propositional base,
    decided exactly by brute force over atom assignments (variables and
    outermost boxes are the atoms), evaluated by the kernel as batches of
    one-state models, 1024 assignments per block;
  * monotonicity: from f -> g conclude [A]f -> [A]g;
  * iteration: from f -> [A]f conclude f -> [A+]f.

Checking is per line; the verdict reports the first failure. Soundness of
the axioms needs the algebra commutative and integral, so checking over
one that is not attaches warnings (the constant-shifting axiom really can
fail there) without rejecting the script.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import kernel
from .algebra import FLAlgebra, is_commutative, is_integral, load_algebra
from .errors import AtomBudgetExceeded
from .parser import parse_formula
from .syntax import (And, Box, Choice, Const, Formula, Fuse, LDiv, Or, Plus,
                     RDiv, Seq, Var, format_formula)

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


# -- axiom scheme matching ----------------------------------------------------

def _iff_parts(f: Formula) -> tuple[Formula, Formula] | None:
    """Split And(RDiv(a,b), RDiv(b,a)) into (a, b)."""
    if (isinstance(f, And) and isinstance(f.left, RDiv) and isinstance(f.right, RDiv)
            and f.left.left == f.right.right and f.left.right == f.right.left):
        return f.left.left, f.left.right
    return None


def _matches_scheme(name: str, x: Formula, y: Formula) -> bool:
    if name == "A-reg":
        return (isinstance(x, Box) and isinstance(x.body, And)
                and isinstance(y, And) and isinstance(y.left, Box) and isinstance(y.right, Box)
                and y.left.action == x.action == y.right.action
                and y.left.body == x.body.left and y.right.body == x.body.right)
    if name == "A-const":
        return (isinstance(x, Box) and isinstance(x.body, RDiv) and isinstance(x.body.left, Const)
                and isinstance(y, RDiv) and isinstance(y.left, Const) and isinstance(y.right, Box)
                and x.body.left == y.left and x.action == y.right.action
                and x.body.right == y.right.body)
    if name == "A-choice":
        return (isinstance(x, Box) and isinstance(x.action, Choice)
                and isinstance(y, And) and isinstance(y.left, Box) and isinstance(y.right, Box)
                and y.left.action == x.action.left and y.right.action == x.action.right
                and y.left.body == y.right.body == x.body)
    if name == "A-seq":
        return (isinstance(x, Box) and isinstance(x.action, Seq)
                and isinstance(y, Box) and isinstance(y.body, Box)
                and y.action == x.action.left and y.body.action == x.action.right
                and y.body.body == x.body)
    if name == "A-plus":
        return (isinstance(x, Box) and isinstance(x.action, Plus)
                and isinstance(y, Box) and y.action == x.action.body
                and isinstance(y.body, And) and y.body.left == x.body
                and y.body.right == x)
    raise ValueError(f"unknown axiom scheme {name!r}")


def matches_axiom(formula: Formula, name: str, algebra: FLAlgebra) -> bool:
    """Is the formula an instance of the named scheme?

    Biconditional schemes are recognized in either orientation.
    """
    canon = canonical_axiom_name(name)
    if canon is None:
        raise ValueError(f"unknown axiom name {name!r}")
    if canon == "A-1":
        return isinstance(formula, Box) and formula.body == Const(algebra.one)
    pair = _iff_parts(formula)
    if pair is None:
        return False
    x, y = pair
    return _matches_scheme(canon, x, y) or _matches_scheme(canon, y, x)


def match_axiom(formula: Formula, algebra: FLAlgebra) -> str | None:
    """Name of the first scheme the formula instantiates, if any."""
    for name in AXIOM_NAMES:
        if matches_axiom(formula, name, algebra):
            return name
    return None


# -- the propositional base, decided semantically ------------------------------

def _collect_atoms(formula: Formula, acc: dict[Formula, None]) -> None:
    if isinstance(formula, (Var, Box)):
        acc[formula] = None
    elif isinstance(formula, (And, Or, Fuse, LDiv, RDiv)):
        _collect_atoms(formula.left, acc)
        _collect_atoms(formula.right, acc)
    elif not isinstance(formula, Const):
        raise TypeError(f"not a formula: {formula!r}")


def log_consequence(premises: Sequence[Formula], conclusion: Formula,
                    algebra: FLAlgebra,
                    atom_budget: int = DEFAULT_ATOM_BUDGET) -> bool:
    """Does the conclusion follow from the premises propositionally?

    Variables and outermost boxes are opaque atoms; everything else is
    evaluated through the algebra. True iff every atom assignment that
    puts one below the meet of the premises also puts one below the
    conclusion. Exact for a finite algebra, at |algebra| ** #atoms
    assignments; past atom_budget the check refuses instead of guessing.
    """
    if atom_budget < 1:
        raise ValueError("atom budget must be positive")
    atoms: dict[Formula, None] = {}
    for g in premises:
        _collect_atoms(g, atoms)
    _collect_atoms(conclusion, atoms)
    names = tuple(atoms)
    count = algebra.size ** len(names)
    if count > atom_budget:
        raise AtomBudgetExceeded(
            f"{count} assignments over {len(names)} atoms exceed the budget of {atom_budget}")
    arrs = algebra.arrays
    for start in range(0, count, _BLOCK):
        block = min(_BLOCK, count - start)
        # one assignment per one-state model; the atoms are seeded, never looked into
        _, memo = kernel.decode(np.arange(start, start + block), algebra.size, 1, (), names)
        refuted = ~arrs.leq[algebra.one, kernel.evaluate(conclusion, algebra, memo, {}, block, 1)]
        for g in premises:
            refuted &= arrs.leq[algebra.one, kernel.evaluate(g, algebra, memo, {}, block, 1)]
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
                cited = script.lines[by.ref].formula
                if not isinstance(cited, RDiv):
                    return reject(i, "monotonicity must cite an implication")
                want = line.formula
                if not (isinstance(want, RDiv)
                        and isinstance(want.left, Box) and isinstance(want.right, Box)
                        and want.left.action == want.right.action
                        and want.left.body == cited.left and want.right.body == cited.right):
                    return reject(i, "conclusion is not the boxed form of the cited implication")
            else:
                cited = script.lines[by.ref].formula
                if not (isinstance(cited, RDiv) and isinstance(cited.right, Box)
                        and cited.right.body == cited.left):
                    return reject(i, "iteration must cite a line of shape f -> [A]f")
                want = line.formula
                if not (isinstance(want, RDiv) and want.left == cited.left
                        and isinstance(want.right, Box) and isinstance(want.right.action, Plus)
                        and want.right.action.body == cited.right.action
                        and want.right.body == cited.left):
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
        if "axiom" not in by_raw:
            raise ValueError(f'{where}: an axiom line needs "axiom"')
        by: Justification = ByAxiom(str(by_raw["axiom"]))
    elif kind == "log":
        by = ByLog(cited(by_raw.get("refs", [])))
    elif kind in ("rmon", "rplus"):
        refs = cited([by_raw["ref"]] if "ref" in by_raw else by_raw.get("refs", []))
        if len(refs) != 1:
            raise ValueError(f"{where}: {kind} takes exactly one cited line")
        by = ByRMon(refs[0]) if kind == "rmon" else ByRPlus(refs[0])
    else:
        raise ValueError(f"{where}: unknown justification kind {kind!r}")
    return ProofLine(parse_formula(str(obj["formula"]), algebra), by)


def load_proof(source, algebra: FLAlgebra | None = None) -> ProofScript:
    """Read a proof script from a dict, a list of lines, or a JSON file.

    A dict form may carry "algebra" (inline or URI), used when no algebra
    argument is given; a passed algebra always wins.
    """
    if isinstance(source, str):
        if not os.path.exists(source):
            raise ValueError(f"no such proof file: {source}")
        with open(source) as fh:
            source = json.load(fh)
    if isinstance(source, dict):
        if algebra is None and "algebra" in source:
            algebra = load_algebra(source["algebra"])
        raw_lines = source.get("lines")
        if not isinstance(raw_lines, list):
            raise ValueError('proof dict needs a "lines" array')
    elif isinstance(source, list):
        raw_lines = source
    else:
        raise ValueError("proof source must be a dict, a list, or a file path")
    if algebra is None:
        raise ValueError("proof gives no algebra and none was supplied")
    lines = tuple(_line_from_json(obj, algebra, f"line {i}") for i, obj in enumerate(raw_lines))
    return ProofScript(lines)


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
