"""Spans around flpdl's public functions, kept in memory.

A traced run replaces each public function named in TARGETS with a wrapper
that records [name, start, end, parent, job, attrs]. The library itself is
not changed: the wrapper is bound wherever a loaded flpdl module holds the
original, so calls between modules (parse_formula inside load_proof,
log_consequence inside check_proof) are seen too. Relation operations are
wrapped only where the semantics module calls them, so a closure is one span
and the compositions inside it are part of it. A span that would open inside
a span of the same name is not recorded (Model.values recurses).

An untraced run installs nothing, so it pays nothing.
"""

from __future__ import annotations

import sys
from time import perf_counter

import oracle


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None

    def record(self, name, start, end, attrs=None):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, self.job, attrs])

    def wrap(self, fn, name, attrs=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = perf_counter()
                stack.pop()
                if attrs is not None:
                    rec[5] = attrs(args, kwargs, None, exc)
                raise
            rec[2] = perf_counter()
            stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        return traced


def _decide_attrs(args, kwargs, result, exc):
    mode = kwargs.get("mode", args[4] if len(args) > 4 else "exhaustive")
    if exc is not None:
        frontier = getattr(exc, "frontier", None)
        if frontier is None:
            return None
        return {"mode": mode, "models": frontier["models_checked"], "outcome": "budget"}
    outcome = type(result).__name__
    return {"mode": mode, "models": result.models_checked, "outcome": outcome}


def _check_attrs(args, kwargs, result, exc):
    if result is None:
        return None
    return {"lines": len(args[0].lines) if result.accepted else result.failed_line + 1}


def _log_attrs(args, kwargs, result, exc):
    premises, conclusion, algebra = args[0], args[1], args[2]
    return {"assignments": algebra.size ** len(oracle.log_atoms(list(premises) + [conclusion]))}


def _partition_attrs(args, kwargs, result, exc):
    if result is None:
        return None
    return {"classes": result.class_count, "states": len(result.class_of)}


# (module, function, span name, attrs, modules whose binding is replaced or None for all)
TARGETS = (
    ("flpdl.algebra", "build_algebra", "algebra.build", None, None),
    ("flpdl.algebra", "check_algebra_properties", "algebra.check", None, None),
    ("flpdl.parser", "parse_formula", "parser.parse",
     lambda a, k, r, e: {"chars": len(a[0])}, None),
    ("flpdl.relations", "rel_union", "relations.union", None, ("flpdl.semantics",)),
    ("flpdl.relations", "rel_compose", "relations.compose", None, ("flpdl.semantics",)),
    ("flpdl.relations", "transitive_closure", "relations.closure", None, ("flpdl.semantics",)),
    ("flpdl.semantics", "load_model", "semantics.load", None, None),
    ("flpdl.semantics", "valid_in_model", "semantics.valid", None, None),
    ("flpdl.filtration", "phi_partition", "filtration.partition", _partition_attrs, None),
    ("flpdl.filtration", "filtrate", "filtration.filtrate", None, None),
    ("flpdl.decision", "decide_bounded", "decision.decide", _decide_attrs, None),
    ("flpdl.proofs", "load_proof", "proofs.load", None, None),
    ("flpdl.proofs", "check_proof", "proofs.check", _check_attrs, None),
    ("flpdl.proofs", "log_consequence", "proofs.log", _log_attrs, None),
)


def install(tracer: Tracer) -> None:
    """Bind a traced wrapper wherever a loaded flpdl module holds a target."""
    import flpdl.semantics

    modules = {name: mod for name, mod in sys.modules.items()
               if mod is not None and (name == "flpdl" or name.startswith("flpdl."))}
    for module, attr, name, attrs, where in TARGETS:
        original = getattr(modules[module], attr)
        traced = tracer.wrap(original, name, attrs)
        for mod_name, mod in modules.items():
            if (where is None or mod_name in where) and getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
    model = flpdl.semantics.Model
    model.values = tracer.wrap(model.values, "semantics.values",
                               lambda a, k, r, e: {"states": a[0].frame.size})
