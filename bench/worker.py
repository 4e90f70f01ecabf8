"""The workload process: set-up, then a closed loop of jobs, one at a time.

Reads a JSON request on stdin: {"mode": "probe" | "run", "seconds",
"min_jobs", "trace", "spec": {workload, algebras, jobs}, "root", "work"}.
It then imports flpdl, builds the workload's algebras, loads its models,
formulas and proofs through the public loaders, and prints "READY <import
seconds>": the runner times set-up from launch to that line. It then times
the calibration step (speed.py) and prints "SPEED <step seconds>", so set-up
can be scaled by its own process's speed. A probe exits there. A run repeats
whole rounds over the job list until `seconds` have passed and at least
`min_jobs` jobs have run (so a p90 has ten jobs beyond it), timing each job
from call to verdict, and prints one JSON line: per-execution records,
calibration samples, rounds, peak RSS and, when traced, the spans.

The in-process workloads call the library through module attributes, so a
traced run sees the wrappers tracing.install binds. The cli workload starts
one `python -m flpdl.cli` child per job with PYTHONPATH=src (or, traced, the
same command line through cli_traced.py).
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

import speed


def canon(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- set-up -----------------------------------------------------------------------

class Context:
    def __init__(self, request):
        self.spec = request["spec"]
        self.root = Path(request["root"])
        self.work = request.get("work")
        self.trace = request.get("trace", False)
        self.tracer = None
        self.algebras = {}


def setup(ctx: Context) -> None:
    from flpdl import algebra, parser, proofs, semantics

    spec = ctx.spec
    ctx.algebras = {key: algebra.load_algebra(src) for key, src in spec["algebras"].items()}
    for job in spec["jobs"]:
        kind = job["kind"]
        if kind == "mc":
            A = ctx.algebras[job["alg"]]
            semantics.load_model(job["model"], A)
            parser.parse_formula(job["text"], A)
        elif kind == "decide":
            parser.parse_formula(job["text"], ctx.algebras[job["alg"]])
        elif kind == "proof":
            proofs.load_proof(job["script"], ctx.algebras[job["alg"]])


# -- jobs: each returns the outcome to check; the timer stops before describe ------

def run_mc(ctx, job):
    from flpdl import filtration, parser, semantics, syntax
    from oracle import actions_bottom_up

    A = ctx.algebras[job["alg"]]
    model = semantics.load_model(job["model"], A)
    formula = parser.parse_formula(job["text"], A)
    phis = syntax.closure_of([formula])
    # relations first, bottom-up: each is memoized on the frame, so Model.values
    # below only evaluates formulas and the two layers are timed apart
    for action in actions_bottom_up(phis):
        semantics.derived_relation(model.frame, action)
    values = [model.values(f) for f in phis]
    verdict = semantics.valid_in_model(model, formula)
    part = filtration.phi_partition(model, phis)
    small = filtration.filtrate(model, phis, part)
    quotient = [small.values(f) for f in phis]
    return phis, values, verdict, part, quotient


def describe_mc(raw):
    from oracle import fmt

    phis, values, verdict, part, quotient = raw
    keys = [fmt(f) for f in phis]
    return {"closure": {k: list(v) for k, v in zip(keys, values)},
            "quotient": {k: [q[c] for c in part.class_of] for k, q in zip(keys, quotient)},
            "class_of": list(part.class_of), "valid": list(verdict)}


def run_decide(ctx, job):
    from flpdl import decision, errors, parser

    A = ctx.algebras[job["alg"]]
    formula = parser.parse_formula(job["text"], A)
    try:
        return decision.decide_bounded(formula, A, job["max_states"], budget=job["budget"],
                                       mode=job["mode"], seed=job["seed"])
    except errors.BudgetExceeded as exc:
        return exc


def describe_decide(out):
    name = type(out).__name__
    if name == "BudgetExceeded":
        return {"kind": "budget", "frontier": out.frontier}
    if name == "Countermodel":
        m = out.model
        return {"kind": "countermodel", "states": m.frame.size,
                "relations": {str(a): [list(r) for r in rel.values]
                              for a, rel in sorted(m.frame.atomic.items())},
                "valuation": {str(p): list(row) for p, row in sorted(m.valuation.items())},
                "witness": out.witness_state, "value": out.value,
                "models_checked": out.models_checked}
    if name == "ValidByExhaustion":
        return {"kind": "valid-by-exhaustion", "bound": out.bound,
                "models_checked": out.models_checked}
    return {"kind": "no-countermodel", "max_states": out.max_states,
            "models_checked": out.models_checked, "exhaustive": out.exhaustive}


def run_proof(ctx, job):
    from flpdl import proofs

    A = ctx.algebras[job["alg"]]
    script = proofs.load_proof(job["script"], A)
    return script, proofs.check_proof(script, A)


def describe_proof(raw):
    script, verdict = raw
    return {"accepted": verdict.accepted, "failed_line": verdict.failed_line,
            "warnings": len(verdict.warnings), "lines": len(script.lines)}


def run_cli(ctx, job):
    env = dict(os.environ, PYTHONPATH="src")
    if ctx.trace:
        env["BENCH_SPANS"] = str(ctx.root / ctx.work / "spans.json")
        cmd = [sys.executable, str(Path(__file__).with_name("cli_traced.py"))]
    else:
        cmd = [sys.executable, "-m", "flpdl.cli"]
    proc = subprocess.run(cmd + job["argv"], cwd=ctx.root, env=env, capture_output=True,
                          text=True, timeout=120)
    return proc


def describe_cli(proc):
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr[-2000:]}


RUNNERS = {"mc": (run_mc, describe_mc), "decide": (run_decide, describe_decide),
           "proof": (run_proof, describe_proof), "cli": (run_cli, describe_cli)}


def collect_child_spans(ctx, job_id):
    """Append a traced cli child's spans, re-indexed under this job."""
    path = ctx.root / ctx.work / "spans.json"
    if not path.exists():
        return
    spans = ctx.tracer.spans
    base = len(spans)
    for name, start, end, parent, _job, attrs in json.loads(path.read_text()):
        spans.append([name, start, end, parent + base if parent >= 0 else -1, job_id, attrs])
    path.unlink()


# -- the closed loop ------------------------------------------------------------------

CALIBRATE_EVERY_S = 0.025


def timed_pass(ctx: Context, seconds: float, min_jobs: int) -> dict:
    """Closed loop over whole rounds. Each record: job, round, start, latency and
    outcome; between jobs the calibration step is timed at most every
    CALIBRATE_EVERY_S, into [time, step seconds] samples."""
    jobs = ctx.spec["jobs"]
    records = []
    rounds = 0
    samples = [[time.perf_counter(), speed.calibrate()]]
    started = time.perf_counter()
    while True:
        for i, job in enumerate(jobs):
            run, describe = RUNNERS[job["kind"]]
            if time.perf_counter() - samples[-1][0] >= CALIBRATE_EVERY_S:
                samples.append([time.perf_counter(), speed.calibrate()])
            if ctx.tracer is not None:
                ctx.tracer.job = [rounds, i]
            t0 = time.perf_counter()
            try:
                raw = run(ctx, job)
                error = None
            except Exception as exc:  # a crash is an outcome the gate counts
                error = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if ctx.tracer is not None:
                ctx.tracer.job = None
                if job["kind"] == "cli":
                    collect_child_spans(ctx, [rounds, i])
            out = {"error": error} if error else describe(raw)
            records.append([i, rounds, t0, latency, canon(out)])
        rounds += 1
        if time.perf_counter() - started >= seconds and len(records) >= min_jobs:
            break
    samples.append([time.perf_counter(), speed.calibrate()])
    usage = resource.RUSAGE_CHILDREN if ctx.spec["workload"] == "cli" else resource.RUSAGE_SELF
    return {"records": records, "rounds": rounds, "samples": samples,
            "peak_rss_kb": resource.getrusage(usage).ru_maxrss}


def main() -> int:
    # a stopped run unwinds, so subprocess.run ends the cli child it is waiting on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    request = json.loads(sys.stdin.read())
    ctx = Context(request)
    t0 = time.perf_counter()
    import flpdl  # noqa: F401  (first: numpy is loaded by this import, not before it)
    import_s = time.perf_counter() - t0
    setup_started = time.perf_counter()
    if ctx.trace:
        import tracing

        ctx.tracer = tracing.Tracer()
        tracing.install(ctx.tracer)
        ctx.tracer.job = "setup"
    setup(ctx)
    setup_wall = time.perf_counter() - setup_started
    print(f"READY {import_s:.6f}", flush=True)
    setup_speed = sum(speed.calibrate() for _ in range(5)) / 5
    print(f"SPEED {setup_speed:.9f}", flush=True)
    if request["mode"] == "probe":
        return 0
    if ctx.tracer is not None:
        ctx.tracer.job = None
    result = timed_pass(ctx, request["seconds"], request.get("min_jobs", 0))
    result["setup_wall"] = setup_wall
    result["setup_speed"] = setup_speed
    result["import_s"] = import_s
    if ctx.tracer is not None:
        result["spans"] = ctx.tracer.spans
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
