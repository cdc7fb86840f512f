"""One serving interpreter: set up, run requests through cli_main, report.

    python3 perfbench/worker.py --root DIR --workload W --seed N
                                --index all|I|-1 [--trace]

Set-up is what a `deltadyn` user pays before the first answer: start
the interpreter, import deltadyn from DIR/src, load the corpus and
generate the request list from the seed.  ``--index all`` then serves
every request of the pass in this interpreter (caches kept between
them), ``--index I`` serves request I alone, and ``--index -1`` serves
nothing (a set-up probe).  Each request is timed from just before
`cli_main` to just after it, with its stdout and stderr captured.

The worker also times a fixed exact-arithmetic kernel that does not use
deltadyn: once when it is ready and again after every request, outside
the timed regions.  The benchmark scales each time by the kernel time
next to it (see `run.py`).  One JSON object goes to stdout at the end.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import sys
import time
from fractions import Fraction

# Kernel repetitions per calibration sample: the median of several when
# the worker is ready and after a cold request, one between two requests
# of a session.
CALIB_REPS = 5
CALIB_REPS_SESSION = 1


def _kernel():
    acc = Fraction(0)
    x = Fraction(3, 7)
    for k in range(1, 160):
        acc = acc * x + Fraction(k, k + 1)
    n = 1
    for k in range(1, 1500):
        n = n * 3 + k
    return acc.denominator.bit_length() + n.bit_length()


def calibrate(reps):
    """Median over ``reps`` samples of the seconds three kernel runs take.

    The collector is paused so that a large heap left by the request
    does not slow the kernel down.
    """
    samples = []
    gc.disable()
    try:
        for _ in range(reps):
            t0 = time.perf_counter()
            for _ in range(3):
                _kernel()
            samples.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    samples.sort()
    return samples[len(samples) // 2]


def _peak_rss_mb():
    # VmHWM belongs to this process image alone; ru_maxrss can carry the
    # parent's peak across fork and exec.
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--index", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import deltadyn
    from deltadyn import cli, solver, umbral

    if not os.path.abspath(deltadyn.__file__).startswith(src + os.sep):
        raise SystemExit("deltadyn imported from %s, not %s" % (deltadyn.__file__, src))
    solver.load_corpus()
    import workloads

    reqs = workloads.generate(args.workload, args.seed)
    cache = umbral.basic_sequence_from_delta
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()

    if args.index == "all":
        indices = range(len(reqs))
        reps = CALIB_REPS_SESSION
    else:
        indices = () if int(args.index) < 0 else (int(args.index),)
        reps = CALIB_REPS
    spent = time.perf_counter()
    calib = [calibrate(CALIB_REPS)]
    spent = time.perf_counter() - spent

    results = []
    for i in indices:
        argv = list(reqs[i]["argv"])
        out, err = io.StringIO(), io.StringIO()
        info0 = cache.cache_info()
        raised = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if tracer:
                    rc = tracer.call_root(cli.cli_main, argv)
                else:
                    rc = cli.cli_main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a leaked exception is a failed request
                rc, raised = None, "%s: %s" % (type(exc).__name__, exc)
            t1 = time.perf_counter()
        info1 = cache.cache_info()
        t2 = time.perf_counter()
        calib.append(calibrate(reps))
        spent += time.perf_counter() - t2
        res = {
            "index": i,
            "rc": rc,
            "raised": raised,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "seconds": t1 - t0,
            "calib_s": (calib[-2] + calib[-1]) / 2,
            "cache_hits": info1.hits - info0.hits,
            "cache_misses": info1.misses - info0.misses,
        }
        if tracer:
            res["trace"] = tracer.request_summary()
        results.append(res)

    json.dump(
        {
            "ready": ready,
            "ready_calib_s": calib[0],
            "calib_spent_s": spent,
            "peak_rss_mb": _peak_rss_mb(),
            "results": results,
        },
        sys.stdout,
    )
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
