"""Layered benchmark of the deltadyn CLI.  See perfbench/README.md.

    python3 perfbench/run.py --workload verify|basis-deep|flow-session|all
                             --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a source checkout; deltadyn is imported from
./src.  Every request goes through `deltadyn.cli.cli_main(argv)` in a
worker interpreter (perfbench/worker.py), one process computing at a
time: a closed loop with one client.  The last stdout line is the
result object; the line before it is the full record.

Times are reported in reference seconds: each measured interval is
scaled by REF_CALIB_S over the time the worker's calibration kernel took
next to it.  The CPU speed of a shared machine drifts by up to 2x over
minutes; the kernel drifts with it, so the scaled times do not.  Raw
wall times are kept in the record.
"""

import argparse
import collections
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from oracles import Oracles  # noqa: E402

SETUP_PROBES = 10
# Nominal time of one calibration sample (worker.calibrate); a time of t
# measured next to a sample of c reads as t * REF_CALIB_S / c.
REF_CALIB_S = 0.003
RUN_LIMIT_S = 170  # a run must end within 180 s; workers are killed before that
SPAN_SUM_TOLERANCE_S = 1e-6
BUILD_DEPTHS = (16, 32, 48, 64, 96)
LAYER_SELF = (
    "series.compositional_inverse",
    "series.seq_mul",
    "umbral.basic_sequence_from_delta",
    "umbral.basic_sequence_by_recurrence",
    "autonomous.group_law_residuals",
    "autonomous.autonomous_sequence",
    "deltaflow.verify_delta_ode",
    "deltaflow.delta_flow",
    "flows.taylor_compose",
    "flows.Flow.to_monomial",
    "solver.iterate",
    "solver.solve_forward",
    "numeric.numeric_closed_form_check",
    "scalars.format_scalar",
)
LAYER_CALLS = ("series.seq_mul", "scalars.format_scalar")
# Flow requests of this order are split by field for scalars.q*_req_p50_ms.
FIELD_SPLIT_ORDER = 32


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _spawn(workload, seed, index, trace, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--index", str(index)]
    if trace:
        cmd.append("--trace")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError("worker %s/%s did not finish within the run's time limit" % (workload, index))
    end = time.monotonic()
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("worker failed (exit %s): %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
    payload = json.loads(proc.stdout)
    payload["setup_raw_s"] = payload["ready"] - start
    # The worker's whole life as its user pays it, less the calibration.
    payload["busy_raw_s"] = end - start - payload["calib_spent_s"]
    for r in payload["results"]:
        r["norm_s"] = r["seconds"] * REF_CALIB_S / r["calib_s"]
    return payload


def _run_pass(workload, seed, reqs, trace, deadline):
    """One pass over the request list: results, job seconds, set-up samples, peak RSS."""
    if workload in workloads.COLD:
        payloads = [_spawn(workload, seed, i, trace, deadline) for i in range(len(reqs))]
        job_raw_s = sum(p["busy_raw_s"] for p in payloads)
        job_s = sum(p["busy_raw_s"] * REF_CALIB_S / p["results"][0]["calib_s"] for p in payloads)
    else:
        payloads = [_spawn(workload, seed, "all", trace, deadline)]
        job_raw_s = sum(r["seconds"] for r in payloads[0]["results"])
        job_s = sum(r["norm_s"] for r in payloads[0]["results"])
    results = [r for p in payloads for r in p["results"]]
    if [r["index"] for r in results] != list(range(len(reqs))):
        raise BenchError("worker answered the wrong requests")
    return {
        "results": results,
        "job_s": job_s,
        "job_raw_s": job_raw_s,
        "setup_raw": [p["setup_raw_s"] for p in payloads],
        "ready_calib": [p["ready_calib_s"] for p in payloads],
        "rss": max(p["peak_rss_mb"] for p in payloads),
    }


def _judge(oracles, reqs, run):
    tally = {"ok": 0, "error": 0, "wrong": 0}
    bits = 0
    problems = []
    for r in run["results"]:
        req = reqs[r["index"]]
        verdict, b, detail = oracles.check(req, r)
        tally[verdict] += 1
        bits = max(bits, b)
        if verdict != "ok":
            problems.append({"argv": " ".join(req["argv"]), "verdict": verdict, "detail": detail})
    run["tally"] = tally
    run["max_coeff_bits"] = bits
    run["problems"] = problems


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _p90(xs):
    return statistics.quantiles(xs, n=10)[-1]


def _metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def _end_to_end(runs, setup_raw, ready_calib):
    lat = [r["norm_s"] for run in runs for r in run["results"]]
    raw = [r["seconds"] for run in runs for r in run["results"]]
    attempted = len(lat)
    ok = sum(run["tally"]["ok"] for run in runs)
    m = {
        # Set-up intervals are too short to scale one by one; the median
        # takes the median kernel time of the same fresh interpreters.
        "setup_s": _metric(_median(setup_raw) * REF_CALIB_S / _median(ready_calib), "s", len(setup_raw)),
        "job_s": _metric(_median([run["job_s"] for run in runs]), "s", len(runs)),
        "req_p50_ms": _metric(_median(lat) * 1000.0, "ms", attempted),
        "ok_ratio": _metric(ok / attempted, "ratio", attempted),
        "peak_rss_mb": _metric(max(run["rss"] for run in runs), "MB", len(runs)),
    }
    extra = {
        "raw_setup_s": _metric(_median(setup_raw), "s", len(setup_raw)),
        "raw_job_s": _metric(_median([run["job_raw_s"] for run in runs]), "s", len(runs)),
        "raw_req_p50_ms": _metric(_median(raw) * 1000.0, "ms", attempted),
        "speed": _metric(_median([r["seconds"] / r["norm_s"] for run in runs for r in run["results"]]),
                         "raw/reference", attempted),
    }
    if attempted >= 100:
        extra["req_p90_ms"] = _metric(_p90(lat) * 1000.0, "ms", attempted)
    else:
        extra["req_p90_ms"] = "omitted: %d requests, fewer than 100" % attempted
    return m, extra


def _per_layer(reqs, plain, traced):
    layers = {}
    builds = {}
    groups = {g: [] for g in workloads.VERIFY_GROUPS}
    hits = misses = 0
    for r in traced["results"]:
        tr = r["trace"]
        span_self = sum(rec[2] for rec in tr["layers"].values())
        if abs(span_self - tr["root_s"]) > SPAN_SUM_TOLERANCE_S:
            raise BenchError("self times do not sum to the request's traced time")
        scale = REF_CALIB_S / r["calib_s"]
        for name, (calls, total, self_s) in tr["layers"].items():
            acc = layers.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total * scale
            acc[2] += self_s * scale
        for depth, dur in tr["builds"]:
            builds.setdefault(depth, []).append(dur * scale)
        req = reqs[r["index"]]
        if req["kind"] == "verify":
            groups[req["group"]].extend(d * scale for d in tr["run_checks_s"])
        hits += r["cache_hits"]
        misses += r["cache_misses"]

    n = len(traced["results"])
    m = {}
    for name in LAYER_SELF:
        m[name + ".self_s"] = _metric(layers.get(name, [0, 0.0, 0.0])[2], "s", n)
    for name in LAYER_CALLS:
        m[name + ".calls"] = _metric(layers.get(name, [0])[0], "count", n)
    m["cli.self_s"] = _metric(layers.get("cli", [0, 0.0, 0.0])[2], "s", n)
    for d in BUILD_DEPTHS:
        xs = builds.get(d, [])
        m["umbral.build_p50_ms.d%d" % d] = _metric(_median(xs) * 1000.0, "ms", len(xs))
    m["umbral.basis_builds"] = _metric(sum(len(v) for v in builds.values()), "count", n)
    m["umbral.basis_cache.hit_ratio"] = _metric(hits / (hits + misses) if hits + misses else 0.0,
                                                "ratio", hits + misses)
    for g, xs in groups.items():
        m["verifysuite.group_ms." + g] = _metric(_median(xs) * 1000.0, "ms", len(xs))
    for field, name in (("Qi", "scalars.qi_req_p50_ms"), ("Q", "scalars.q_req_p50_ms")):
        xs = [r["norm_s"] for r in plain["results"]
              if reqs[r["index"]]["kind"] == "flow"
              and reqs[r["index"]]["order"] == FIELD_SPLIT_ORDER
              and reqs[r["index"]]["field"] == field]
        m[name] = _metric(_median(xs) * 1000.0, "ms", len(xs))
    m["scalars.max_coeff_bits"] = _metric(traced["max_coeff_bits"], "bits", n)
    m["trace.overhead_ratio"] = _metric(traced["job_s"] / plain["job_s"], "ratio", 1)
    table = {name: {"calls": c, "total_s": t, "self_s": s} for name, (c, t, s) in sorted(layers.items())}
    return m, {"layers": table}


def run_workload(workload, seed, seconds, trace):
    """Run one workload; returns (result object, record row)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    reqs = workloads.generate(workload, seed)
    oracles = Oracles(ROOT, reqs)
    _spawn(workload, seed, -1, False, deadline)  # warm-up: byte-compile, fill the page cache
    probes = [_spawn(workload, seed, -1, False, deadline) for _ in range(SETUP_PROBES)]
    setup_raw = [p["setup_raw_s"] for p in probes]
    ready_calib = [p["ready_calib_s"] for p in probes]

    # Whole passes only: start another while it should end within --seconds
    # of wall time.
    runs = []
    measured = 0.0
    while not runs or (not trace and measured + runs[-1]["job_raw_s"] <= seconds):
        run = _run_pass(workload, seed, reqs, False, deadline)
        measured += run["job_raw_s"]
        _judge(oracles, reqs, run)
        runs.append(run)
    if trace:
        traced = _run_pass(workload, seed, reqs, True, deadline)
        _judge(oracles, reqs, traced)
        runs.append(traced)
    if not trace:
        for run in runs:
            setup_raw.extend(run["setup_raw"])
            ready_calib.extend(run["ready_calib"])

    attempted = sum(len(run["results"]) for run in runs)
    wrong = sum(run["tally"]["wrong"] for run in runs)
    failed = sum(run["tally"]["error"] + run["tally"]["wrong"] for run in runs)
    if trace:
        metrics, extra = _per_layer(reqs, runs[0], runs[1])
    else:
        metrics, extra = _end_to_end(runs, setup_raw, ready_calib)
    problems = collections.Counter(
        (p["argv"], p["verdict"], p["detail"]) for run in runs for p in run["problems"]
    )
    row = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "requests_per_pass": len(reqs),
        "passes": len(runs),
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "pass_job_s": [run["job_s"] for run in runs],
        "pass_raw_job_s": [run["job_raw_s"] for run in runs],
        "pass_req_s": [[r["norm_s"] for r in run["results"]] for run in runs],
        "pass_raw_req_s": [[r["seconds"] for r in run["results"]] for run in runs],
        "metrics": metrics,
        "extra": extra,
        "failures": [{"argv": a, "verdict": v, "detail": d, "count": c}
                     for (a, v, d), c in sorted(problems.items())],
    }
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    return result, row


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _machine():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": _git_sha(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the record to this JSON file")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "deltadyn", "cli.py")):
        sys.stderr.write("perfbench: no deltadyn sources under %s\n" % os.path.join(ROOT, "src"))
        return 2
    sys.set_int_max_str_digits(0)  # the oracles read answers past the CLI's limit
    sys.path.insert(0, os.path.join(ROOT, "src"))

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    rows = []
    results = []
    try:
        for name in names:
            result, row = run_workload(name, args.seed, args.seconds, bool(args.trace))
            results.append(result)
            rows.append(row)
            for metric, v in row["metrics"].items():
                sys.stderr.write("%-14s %-44s %14.6g %s\n" % (name, metric, v["value"], v["unit"]))
    except BenchError as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 1

    record = {"machine": _machine(), "rows": rows}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {"%s.%s" % (n, k): v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(record))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
