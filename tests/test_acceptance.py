"""Acceptance gate: one test per verification criterion.

Each test runs the corresponding criterion from flpdl.selftest, prints
its one-line report, and fails if the criterion failed or overran its
time limit. `fl-pdl selftest` runs the same suite from the shell.
"""

import itertools

from flpdl import kernel, selftest


def _check(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_1_algebra_validation():
    _check(selftest.criterion_1)


def test_criteria_time_themselves_with_a_monotonic_clock(monkeypatch):
    # a wall clock that steps 1,000 s at every reading neither fails a criterion
    # nor shows in its time
    wall = itertools.count(0.0, 1000.0)
    monkeypatch.setattr(selftest.time, "time", lambda: next(wall))
    result = _check(selftest.criterion_1)
    assert result.seconds < 5.0


def test_criterion_2_closure_minimality():
    _check(selftest.criterion_2)


def test_criterion_3_classical_reduction():
    _check(selftest.criterion_3)


def test_criterion_4_scheme_validities():
    _check(selftest.criterion_4)


def test_criterion_5_filtration_theorem():
    _check(selftest.criterion_5)


def test_criterion_6_decision_procedure(monkeypatch):
    states, run = set(), kernel.Plan.run

    def recording(self, *args, **kwargs):
        states.add(self.n)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(kernel.Plan, "run", recording)
    result = _check(selftest.criterion_6)
    # the cross-check evaluates 3-state models although every instance is valid exactly
    assert 3 in states
    # every instance is decided exactly; the 3-state searches cut by the budget are named
    assert ("12 axiom instances valid exactly, 0 skipped; "
            "at 3 states 7 countermodel-free, 5 cut by the budget: ") in result.detail
    assert result.detail.count(" over builtin:") == 5


def test_criterion_7_proof_checker():
    _check(selftest.criterion_7)


def test_criterion_8_integrality_boundary():
    _check(selftest.criterion_8)
