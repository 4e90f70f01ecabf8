"""Benchmark of flpdl: four seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload model-check --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all      # every workload, untraced and traced
    python3 bench/run.py --smoke             # all four at small sizes, in seconds

Workloads (see BENCHMARK.json for why each was chosen):
  model-check  load_model, parse_formula, derived relations, Model.values over
               the closure, valid_in_model, phi_partition + filtrate and the
               value-preservation check, on 16-48 state models
  search       decide_bounded: criterion 6's axiom instances, pinned refutable
               formulas, the non-commutative constant shift, #one, sampling
  proofs       load_proof + check_proof: the bundled corpus over six algebras,
               its corrupted twins, and seeded heavy `log` lines
  cli          one `python -m flpdl.cli` child per job (PYTHONPATH=src)

Each workload runs in its own process (bench/worker.py): one client, a closed
loop, one job at a time, whole rounds over the job list until --seconds have
passed. The runner makes the inputs from --seed, computes every expected
outcome with bench/oracle.py (never from the code under test), times set-up
in fresh interpreters, and checks every execution.

--trace 0 reports the end-to-end metrics. --trace 1 splits --seconds between
an untraced pass and a traced pass (bench/tracing.py) and reports the
per-layer metrics: times and counts per pass, where a pass is the set-up plus
one round; layer self times; the time no layer span covers; and the tracing
overhead against the untraced pass. Spans are written to bench/out/.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics. `failed` counts executions whose outcome is neither the
expected one nor a known contract defect pinned in the cli workload; the
report above it gives failed_frac with those defects included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("model-check", "search", "proofs", "cli")
PROBES = 7
MIN_JOBS = 100

END_TO_END = (("setup_s", "s"), ("jobs_per_s", "1/s"), ("job_s_p50", "s"),
              ("job_s_p90", "s"), ("peak_rss_mb", "MB"))

SPAN_TIMES = {
    "algebra.build_s": "algebra.build", "algebra.check_s": "algebra.check",
    "parser.parse_s": "parser.parse",
    "relations.closure_s": "relations.closure", "relations.compose_s": "relations.compose",
    "semantics.values_s": "semantics.values",
    "filtration.partition_s": "filtration.partition",
    "filtration.filtrate_s": "filtration.filtrate",
    "decision.busy_s": "decision.decide",
    "proofs.load_s": "proofs.load", "proofs.check_s": "proofs.check",
}
# counts that must repeat exactly, round after round and run after run
EXACT_COUNTS = ("algebra.builds", "parser.formulas", "relations.closures", "relations.derived",
                "semantics.state_evals", "decision.models_checked", "decision.countermodels",
                "decision.budget_exhausted", "proofs.lines", "proofs.assignments")
LAYERS = ("algebra", "parser", "relations", "semantics", "filtration", "decision", "proofs", "cli")
CLI_SUBCOMMANDS = ("algebra-check", "eval", "valid", "filter", "decide", "prove-check")


def per_layer_units() -> dict:
    units = {name: "s" for name in SPAN_TIMES}
    units.update({name: "count" for name in EXACT_COUNTS})
    units.update({"parser.chars_per_s": "1/s", "semantics.state_evals_per_s": "1/s",
                  "decision.models_per_s": "1/s", "decision.sample_models_per_s": "1/s",
                  "proofs.assignments_per_s": "1/s", "filtration.classes_per_state": "ratio",
                  "relations.chain_closure_share": "ratio"})
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.unattributed_s": "s", "trace.overhead_pct": "%",
                  "cli.import_s": "s", "cli.floor_s": "s", "cli.known_defects": "count",
                  "host.speed": "ratio"})
    units.update({f"cli.{sub}_s": "s" for sub in CLI_SUBCOMMANDS})
    return units


# -- processes ------------------------------------------------------------------------

def pin() -> None:
    """Keep the workload process, and the cli children it starts, on one processor,
    so the calibration step runs where the jobs run."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def scaled(seconds: float, loop_s: float) -> float:
    """A time measured while the calibration step took loop_s, at the reference speed."""
    return seconds * speed.REFERENCE_S / loop_s


def launch(request: dict, env: dict) -> tuple[float, float, float, dict | None]:
    """Start a workload process; return (seconds to READY, the calibration step's time
    in that process right after, import seconds, result). A run's records gain their
    scaled latency."""
    payload = json.dumps(request).encode()
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, preexec_fn=pin)
    rest = None
    try:
        proc.stdin.write(payload)
        proc.stdin.close()
        ready = proc.stdout.readline().decode()
        ready_s = time.perf_counter() - started
        loop = proc.stdout.readline().decode()
        rest = proc.stdout.read().decode()
    finally:
        if rest is None:    # interrupted: stop the workload process and what it started
            proc.terminate()
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or not ready.startswith("READY ") or not loop.startswith("SPEED "):
        raise RuntimeError(f"workload process failed with exit code {code}")
    loop_s = float(loop.split()[1])
    result = None
    if request["mode"] == "run":
        result = json.loads(rest.strip().splitlines()[-1])
        # [job, round, start, raw latency, outcome] -> [job, round, scaled latency,
        # outcome, raw latency, scale factor]
        samples = result.pop("samples")
        records = []
        for i, r, t0, lat, out in result["records"]:
            loop_t = speed.around(samples, t0, t0 + lat)
            records.append([i, r, scaled(lat, loop_t), out, lat, speed.REFERENCE_S / loop_t])
        result["records"] = records
    return ready_s, loop_s, float(ready.split()[1]), result


def source_fingerprint(with_bench: bool = False) -> str:
    """Hash of flpdl's sources and data (and the benchmark's own code, if asked)."""
    paths = sorted((ROOT / "src" / "flpdl").rglob("*.py")) + sorted(
        (ROOT / "src" / "flpdl" / "data").rglob("*.json"))
    if with_bench:
        paths += sorted(BENCH.glob("*.py"))
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(args, workload) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    python = Path(sys.executable).name
    return {"workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "src_sha256": source_fingerprint(),
            "invocation": (f"PYTHONPATH=src {python} -m flpdl.cli ..." if workload == "cli"
                           else f"PYTHONPATH=src {python} bench/worker.py")}


# -- checking -------------------------------------------------------------------------

def classify(expect: dict, outcome: str) -> str:
    """'ok', 'known-defect' or 'failed' for one execution."""
    import workloads as W

    if "exact" in expect:
        return "ok" if outcome == expect["exact"] else "failed"
    doc = json.loads(outcome)
    if "sample" in expect:
        return "ok" if W.check_sample(expect["sample"], doc) else "failed"
    if "reject_at" in expect:
        ok = doc.get("accepted") is False and doc.get("failed_line") == expect["reject_at"]
        return "ok" if ok else "failed"
    return W.check_cli(expect, doc)


def check(w, result) -> dict:
    verdicts = [classify(w.expect[rec[0]], rec[3]) for rec in result["records"]]
    examples = [f"job {rec[0]} {json.dumps(w.jobs[rec[0]])[:160]} -> {rec[3][:240]}"
                for rec, v in zip(result["records"], verdicts) if v == "failed"]
    return {"attempted": len(verdicts), "failed": verdicts.count("failed"),
            "known": verdicts.count("known-defect"), "examples": examples[:3]}


# -- metrics --------------------------------------------------------------------------

def timings(lat, setup) -> dict:
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    return {"setup_s": statistics.median(setup), "jobs_per_s": len(lat) / sum(lat),
            "job_s_p50": statistics.median(lat), "job_s_p90": p90,
            "_beyond_p90": sum(1 for v in lat if v > p90)}


def end_to_end(result, setup) -> dict:
    """Scaled to the reference speed; the same figures as measured are under "_raw"."""
    return {**timings([r[2] for r in result["records"]], [scaled(t, l) for t, l in setup]),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "_raw": timings([r[4] for r in result["records"]], [t for t, _l in setup]),
            "_setup_n": len(setup), "_samples": len(result["records"])}


def layer_metrics(w, traced, untraced_e2e, traced_e2e, untraced, import_samples) -> tuple[dict, list]:
    """Per-pass layer metrics from the traced run's spans; drift is a list of messages."""
    spans = traced["spans"]
    rounds = traced["rounds"]
    factor = {(r, i): f for i, r, _lat, _out, _raw, f in traced["records"]}
    setup_factor = speed.REFERENCE_S / traced["setup_speed"]
    dur = [(s[2] - s[1]) * (setup_factor if s[4] == "setup" else factor.get(tuple(s[4] or ()), 1.0))
           for s in spans]
    covered = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            covered[s[3]] += dur[i]
    groups = ["setup"] + list(range(rounds))

    def group_of(span):
        return "setup" if span[4] == "setup" else (span[4][0] if span[4] is not None else None)

    per_group = {g: {} for g in groups}

    def add(g, key, value):
        bucket = per_group.get(g)
        if bucket is not None:
            bucket[key] = bucket.get(key, 0) + value

    shapes = [job.get("shape") for job in w.jobs]
    for i, s in enumerate(spans):
        g = group_of(s)
        name, attrs = s[0], s[5] or {}
        add(g, "time:" + name, dur[i])
        add(g, "count:" + name, 1)
        add(g, "self:" + name.split(".")[0], dur[i] - covered[i])
        if s[3] < 0:
            add(g, "top", dur[i])
        for key, value in attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                add(g, f"attr:{name}:{key}", value)
        if name == "decision.decide" and attrs:
            add(g, f"mode:{attrs['mode']}:models", attrs["models"])
            add(g, f"mode:{attrs['mode']}:time", dur[i])
            add(g, "outcome:" + attrs["outcome"], 1)
        if name == "relations.closure" and g != "setup" and shapes[s[4][1]] == "chain":
            add(g, "chain_closures", 1)
    for rec in traced["records"]:
        add(rec[1], "latency", rec[2])
    add("setup", "latency", traced["setup_wall"] * setup_factor)

    def values_of(g):
        b = per_group[g]
        get = b.get
        return {
            **{m: get("time:" + n, 0.0) for m, n in SPAN_TIMES.items()},
            "algebra.builds": get("count:algebra.build", 0),
            "parser.formulas": get("count:parser.parse", 0),
            "relations.closures": get("count:relations.closure", 0),
            "relations.derived": sum(get(f"count:relations.{k}", 0)
                                     for k in ("union", "compose", "closure")),
            "semantics.state_evals": get("attr:semantics.values:states", 0),
            "decision.models_checked": get("attr:decision.decide:models", 0),
            "decision.countermodels": get("outcome:Countermodel", 0),
            "decision.budget_exhausted": get("outcome:budget", 0),
            "proofs.lines": get("attr:proofs.check:lines", 0),
            "proofs.assignments": get("attr:proofs.log:assignments", 0),
            "_chars": get("attr:parser.parse:chars", 0),
            "_log_s": get("time:proofs.log", 0.0),
            "_classes": get("attr:filtration.partition:classes", 0),
            "_states": get("attr:filtration.partition:states", 0),
            "_chain": get("chain_closures", 0),
            "_ex_models": get("mode:exhaustive:models", 0), "_ex_s": get("mode:exhaustive:time", 0.0),
            "_sa_models": get("mode:sample:models", 0), "_sa_s": get("mode:sample:time", 0.0),
            **{f"{layer}.self_s": get("self:" + layer, 0.0) for layer in LAYERS},
            "trace.unattributed_s": get("latency", 0.0) - get("top", 0.0),
        }

    setup = values_of("setup")
    by_round = [values_of(r) for r in range(rounds)]
    drift = []
    for name in EXACT_COUNTS:
        seen = {v[name] for v in by_round}
        if len(seen) > 1:
            drift.append(f"{name} differs between rounds: {sorted(seen)}")
    per_pass = {k: setup[k] + statistics.fmean(v[k] for v in by_round) for k in setup}

    def ratio(a, b):
        return a / b if b else 0.0

    m = {k: v for k, v in per_pass.items() if not k.startswith("_")}
    m["parser.chars_per_s"] = ratio(per_pass["_chars"], per_pass["parser.parse_s"])
    m["semantics.state_evals_per_s"] = ratio(per_pass["semantics.state_evals"],
                                             per_pass["semantics.values_s"])
    m["decision.models_per_s"] = ratio(per_pass["_ex_models"], per_pass["_ex_s"])
    m["decision.sample_models_per_s"] = ratio(per_pass["_sa_models"], per_pass["_sa_s"])
    m["proofs.assignments_per_s"] = ratio(per_pass["proofs.assignments"], per_pass["_log_s"])
    m["filtration.classes_per_state"] = ratio(per_pass["_classes"], per_pass["_states"])
    m["relations.chain_closure_share"] = ratio(per_pass["_chain"], per_pass["relations.closures"])
    m["trace.overhead_pct"] = 100.0 * (1.0 - traced_e2e["jobs_per_s"] / untraced_e2e["jobs_per_s"])

    # the cli metrics are wall times of whole children, read from the untraced pass
    by_group: dict = {}
    for rec in untraced["records"]:
        job = w.jobs[rec[0]]
        if job["kind"] == "cli":
            by_group.setdefault(job["group"], []).append(rec[2])
    m["cli.import_s"] = statistics.median(import_samples) if w.name == "cli" else 0.0
    m["host.speed"] = statistics.median(rec[5] for rec in untraced["records"])
    m["cli.floor_s"] = statistics.median(by_group.get("input-error", [0.0]))
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}_s"] = statistics.median(by_group.get(sub, [0.0]))
    m["cli.known_defects"] = 0
    return m, drift


def drift_across_runs(name, args, counts) -> list:
    """Compare this run's exact counts with an earlier run of the same inputs and sources."""
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    key = source_fingerprint(with_bench=True)
    path = out_dir / f"counts-{name}-seed{args.seed}{'-smoke' if args.smoke else ''}-{key}.json"
    if path.exists():
        before = json.loads(path.read_text())
        return [f"{k} was {before[k]} in an earlier run, now {counts[k]}"
                for k in counts if before.get(k) != counts[k]]
    path.write_text(json.dumps(counts))
    return []


# -- one workload ---------------------------------------------------------------------

def build(name, seed, work, smoke):
    import workloads as W

    if name == "cli":
        return W.cli(seed, work, smoke)
    return W.GENERATORS[name](seed, smoke)


def run_workload(name, args, work) -> dict:
    w = build(name, args.seed, work, args.smoke)
    # a fixed hash seed keeps set and dict layouts, and so timings, alike between runs
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    base = {"spec": w.spec(), "root": str(ROOT), "work": str(work.relative_to(ROOT))}
    setup_samples, import_samples = [], []
    for _ in range(1 if args.smoke else PROBES):
        ready_s, loop_s, import_s, _ = launch(dict(base, mode="probe"), env)
        setup_samples.append((ready_s, loop_s))
        import_samples.append(scaled(import_s, loop_s))
    # a --trace 1 run splits its time between an untraced and a traced pass; the
    # end-to-end pass of --trace 0 and of --workload all runs at least MIN_JOBS jobs
    half = args.trace and args.workload != "all"
    seconds = args.seconds / 2 if args.trace else args.seconds
    ready_s, loop_s, import_s, untraced = launch(dict(
        base, mode="run", seconds=seconds if half else args.seconds,
        min_jobs=0 if half or args.smoke else MIN_JOBS), env)
    setup_samples.append((ready_s, loop_s))
    import_samples.append(scaled(import_s, loop_s))
    checked = check(w, untraced)
    e2e = end_to_end(untraced, setup_samples)
    report = {"workload": name, "e2e": e2e, "check": checked, "rounds": untraced["rounds"],
              "jobs_per_round": len(w.jobs)}
    if args.trace:
        _, _, _, traced = launch(dict(base, mode="run", seconds=seconds, trace=True), env)
        traced_check = check(w, traced)
        layers, drift = layer_metrics(w, traced, e2e, end_to_end(traced, setup_samples),
                                      untraced, import_samples)
        layers["cli.known_defects"] = checked["known"] / untraced["rounds"]
        drift += drift_across_runs(name, args, {k: layers[k] for k in EXACT_COUNTS})
        report.update(layers=layers, drift=drift, traced_check=traced_check,
                      traced_rounds=traced["rounds"])
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        with open(out_dir / f"spans-{name}-seed{args.seed}.jsonl", "w") as fh:
            for span in traced["spans"]:
                fh.write(json.dumps(span) + "\n")
    return report


def print_report(report, prov) -> None:
    e2e, c = report["e2e"], report["check"]
    raw = e2e["_raw"]
    print(f"== {report['workload']}: {c['attempted']} jobs in {report['rounds']} rounds "
          f"of {report['jobs_per_round']} (untraced; at reference speed, as measured)")
    print(f"  setup_s       {e2e['setup_s']:.4f} s   {raw['setup_s']:.4f} s  "
          f"(median of {e2e['_setup_n']} launches)")
    print(f"  jobs_per_s    {e2e['jobs_per_s']:.3f} 1/s  {raw['jobs_per_s']:.3f} 1/s")
    print(f"  job_s_p50     {e2e['job_s_p50']:.5f} s  {raw['job_s_p50']:.5f} s")
    print(f"  job_s_p90     {e2e['job_s_p90']:.5f} s  {raw['job_s_p90']:.5f} s  "
          f"(n={e2e['_samples']}, {e2e['_beyond_p90']} beyond)")
    print(f"  peak_rss_mb   {e2e['peak_rss_mb']:.1f} MB")
    frac = (c["failed"] + c["known"]) / c["attempted"]
    print(f"  failed_frac   {frac:.4f}  ({c['failed']} failed, {c['known']} known contract "
          f"defects, of {c['attempted']})")
    for example in c["examples"]:
        print(f"  FAILED {example}")
    if "layers" in report:
        print(f"  per layer, traced ({report['traced_rounds']} rounds; per pass = set-up + one round):")
        units = per_layer_units()
        for k in sorted(report["layers"]):
            print(f"    {k:32s} {report['layers'][k]:.6g} {units[k]}")
        for msg in report["drift"]:
            print(f"  DRIFT {msg}")
    print("  provenance " + json.dumps(prov))


def result_line(report, trace) -> dict:
    c = report["check"]
    attempted, failed = c["attempted"], c["failed"]
    if trace:
        attempted += report["traced_check"]["attempted"]
        failed += report["traced_check"]["failed"]
        units = per_layer_units()
        metrics = {k: {"value": report["layers"][k], "unit": units[k]} for k in sorted(units)}
    else:
        metrics = {k: {"value": report["e2e"][k], "unit": u} for k, u in END_TO_END}
    correct = failed == 0 and not report.get("drift")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="every workload at small sizes, one round each, traced")
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "flpdl" / "__init__.py").is_file():
        print(f"error: no flpdl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        args.workload, args.seconds, args.trace = "all", 0.0, 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.workload == "all":
        args.trace = 1

    work = BENCH / ".work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    lines = {}
    try:
        for name in names:
            report = run_workload(name, args, work)
            prov = provenance(args, name)
            print_report(report, prov)
            lines[name] = result_line(report, args.trace)
            out_dir = BENCH / "out"
            out_dir.mkdir(exist_ok=True)
            (out_dir / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
                json.dumps({"provenance": prov, **lines[name],
                            "end_to_end": {k: report["e2e"][k] for k, _u in END_TO_END},
                            "as_measured": {k: v for k, v in report["e2e"]["_raw"].items()
                                            if not k.startswith("_")}},
                           indent=1))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{n}/{k}": v for n, r in lines.items() for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
