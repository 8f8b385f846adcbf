"""One pass of a benchmark workload in a fresh interpreter.

Usage: python3 perfbench/worker.py PLAN.json

The plan (written by run.py) names the package source directory, the
`cli.main` argument lists to run in order, whether to trace, and where to
write the result.  Set-up time runs from the first line of this file
through the package import, the first factoring call (which sieves the
trial-division primes) and reading the plan.  Each call is then made
after the previous one returned, with stderr captured per call.

After the pass, while a whole sweep still fits in the plan's `repeat_s`
(counted from the first call), the calls that took at most `repeat_max_s`
run again in the same order.  Their repeat latencies and exit codes are
kept per call, so run.py can take each call's fastest latency.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(plan_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import powerful_ap
    from powerful_ap import arith, cli

    if not os.path.abspath(powerful_ap.__file__).startswith(plan["src"] + os.sep):
        raise RuntimeError(f"imported {powerful_ap.__file__}, not the checkout's package")
    arith.factorize(2)
    setup_s = time.perf_counter() - T0

    tracer = None
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(powerful_ap)

    clock = time.perf_counter

    def call(argv) -> tuple[float, int, str]:
        err = io.StringIO()
        t = clock()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return clock() - t, code, err.getvalue()

    calls = []
    start = clock()
    for argv in plan["calls"]:
        s, code, stderr = call(argv)
        calls.append({"s": s, "code": code, "stderr": stderr, "reps": []})
    wall_s = clock() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    again = [i for i, c in enumerate(calls) if c["s"] <= plan["repeat_max_s"]]
    sweep_s = sum(calls[i]["s"] for i in again)
    while again and clock() - start + sweep_s <= plan["repeat_s"]:
        t = clock()
        for i in again:
            s, code, _ = call(plan["calls"][i])
            calls[i]["reps"].append([s, code])
        sweep_s = clock() - t

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calls": calls,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["counts"] = tracer.counts
        slow_s, slow_n = tracer.slowest_factorize
        result["slowest_factorize"] = {"s": slow_s, "n": str(slow_n)}
        tracer.write(plan["spans"])
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
