"""The powerful-ap benchmark: one command, four workloads, gated on correctness.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: search_scan, hit_battery, pell_verify, pell_screen (see
perfbench/README.md for what each measures and why).  One client drives
the package through `powerful_ap.cli.main` in a closed loop: each call is
made after the previous one returned.  A pass runs the whole workload once
in a fresh interpreter (worker.py); passes repeat while another one fits in
S seconds.  Time metrics are taken from the fastest pass and the others
are medians over passes.  An untraced pass spends the rest of the S
seconds on repeat sweeps of its short calls, and each call's latency is
the fastest of its samples.  --trace 0 prints
the end-to-end metrics; --trace 1 alternates untraced and traced passes and
prints the per-layer metrics.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit status is 0 when every
correctness gate held, 1 when one failed, 2 when the package is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")

SETUP_SAMPLES = 3  # set-up-only interpreters started before each untraced pass
REPEAT_MAX_S = 0.5  # calls up to this long are repeated to steady their latency
RUN_LIMIT_S = 170  # every run ends well inside the 180 s a run may take

# sha256 of the `search --limit 1e8 --dmax 1e6` JSON report at the seed
# commit; the report must stay byte-identical.
SEARCH_REPORT_SHA256 = "c083535ceec224e87765619f304f3907f5fc314e803360e323065b317103a390"

VERIFY_BUDGET = "100000000"
SCREEN_BUDGET = "200000"


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def pell_3ap_terms(m: int) -> tuple[int, int]:
    """(N, d) of the m-th Pell 3-AP, from the recurrence on X^2 - 2Y^2 = -1."""
    x, y = 1, 1
    for _ in range(m):
        x, y = 3 * x + 4 * y, 2 * x + 3 * y
    odd = 2 * y + 1
    return 8 * x * x, 8 * odd + 4


def load_json(path: str, failures: list[str]):
    try:
        with open(path, encoding="ascii") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        failures.append(f"{os.path.basename(path)}: unreadable report ({exc})")
        return None


def check_verified(report, expected: set[tuple[int, int]], label: str,
                   failures: list[str]) -> None:
    """Every entry verified, and the entries are exactly the expected (N, d)."""
    if not isinstance(report, list):
        failures.append(f"{label}: report is not a list")
        return
    if not all(isinstance(e, dict) and e.get("verified") is True for e in report):
        failures.append(f"{label}: an entry is not verified")
        return
    seen = {(int(e["N"]), int(e["d"])) for e in report}
    if len(report) != len(expected) or seen != expected:
        failures.append(f"{label}: report covers {len(seen)} progressions, "
                        f"expected {len(expected)}")


def budget_error(stderr: str) -> bool:
    """stderr is one JSON line naming BudgetExceeded and its number."""
    lines = stderr.splitlines()
    if len(lines) != 1:
        return False
    try:
        obj = json.loads(lines[0])
    except ValueError:
        return False
    return obj.get("error") == "BudgetExceeded" and "number" in obj


# ------------------------------------------------------------------ workloads

class SearchScan:
    """The flagship scan: one `search --limit 1e8 --dmax 1e6` call."""

    def __init__(self, seed: int, work: str):
        self.pairs, _ = inputs.checked_search_hits()
        self.items = self.pairs
        self.outs = [os.path.join(work, "search.json")]
        self.calls = [["search", "--limit", str(inputs.SEARCH_LIMIT),
                       "--dmax", str(inputs.SEARCH_DMAX), "--out", self.outs[0]]]

    def check(self, calls, failures: list[str]) -> None:
        if calls[0]["code"] != 0:
            failures.append(f"search exited {calls[0]['code']}")
        elif sha256_file(self.outs[0]) != SEARCH_REPORT_SHA256:
            failures.append("search report differs from the frozen bytes")


class HitBattery:
    """`verify hits.json` over every flagship hit, in seed order."""

    def __init__(self, seed: int, work: str):
        self.pairs = 0
        _, hits = inputs.checked_search_hits()
        self.expected = set(hits)
        self.items = len(hits)
        path = os.path.join(work, "hits.json")
        with open(path, "w", encoding="ascii") as fh:
            json.dump([{"k": 3, "terms": [str(n), str(n + d), str(n + 2 * d)],
                        "d": str(d), "family": "search"}
                       for n, d in inputs.permuted(hits, seed)], fh)
        self.outs = [os.path.join(work, "hit_report.json")]
        self.calls = [["verify", path, "--out", self.outs[0]]]
        self.digest = None

    def check(self, calls, failures: list[str]) -> None:
        if calls[0]["code"] != 0:
            failures.append(f"verify exited {calls[0]['code']}")
            return
        digest = sha256_file(self.outs[0])
        if digest == self.digest:
            return  # same bytes as a pass already checked in full
        check_verified(load_json(self.outs[0], failures), self.expected,
                       "hit report", failures)
        if not failures:
            self.digest = digest


class PellFamily:
    """One `verify --family pell3 --m M --budget B` call per m, seed order."""

    def __init__(self, seed: int, work: str, ms, budget: str, may_exhaust: bool):
        self.pairs = 0
        self.order = inputs.permuted(ms, seed)
        self.items = len(self.order)
        self.may_exhaust = may_exhaust
        self.outs = [os.path.join(work, f"pell{m}.json") for m in self.order]
        self.calls = [["verify", "--family", "pell3", "--m", str(m),
                       "--budget", budget, "--out", out]
                      for m, out in zip(self.order, self.outs)]

    def check(self, calls, failures: list[str]) -> None:
        completed = set()
        for m, out, call in zip(self.order, self.outs, calls):
            if call["code"] == 0:
                completed.add(m)
                check_verified(load_json(out, failures), {pell_3ap_terms(m)},
                               f"pell3 m={m}", failures)
            elif not (self.may_exhaust and call["code"] == 2
                      and budget_error(call["stderr"])):
                failures.append(f"pell3 m={m} exited {call['code']}: "
                                f"{call['stderr'].strip()[:200]}")
        if self.may_exhaust and not completed >= set(inputs.PELL_SCREEN_PINNED):
            failures.append(f"screen completed {sorted(completed)}, "
                            f"expected a superset of {inputs.PELL_SCREEN_PINNED}")


WORKLOADS = {
    "search_scan": SearchScan,
    "hit_battery": HitBattery,
    "pell_verify": lambda seed, work: PellFamily(
        seed, work, inputs.PELL_VERIFY_MS, VERIFY_BUDGET, may_exhaust=False),
    "pell_screen": lambda seed, work: PellFamily(
        seed, work, inputs.PELL_SCREEN_MS, SCREEN_BUDGET, may_exhaust=True),
}


# -------------------------------------------------------------------- passes

def run_worker(work: str, tag: str, calls, timeout: float,
               spans: str | None = None, repeat_s: float = 0) -> dict:
    """Run one worker process to completion and return its result; with
    `spans` set the pass is traced and its spans are written there.  Short
    calls are swept again while a sweep fits in `repeat_s` from the first."""
    plan = {
        "src": SRC,
        "calls": calls,
        "repeat_s": repeat_s,
        "repeat_max_s": REPEAT_MAX_S,
        "trace": spans is not None,
        "spans": spans,
        "result": os.path.join(work, f"{tag}.result.json"),
    }
    plan_path = os.path.join(work, f"{tag}.plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    proc = subprocess.run([sys.executable, WORKER, plan_path], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    with open(plan["result"], encoding="utf-8") as fh:
        return json.load(fh)


def latency_ms(calls) -> tuple[float, float]:
    """(median, tail) call latency in ms, where a call's latency is the
    fastest of its first run and its repeats (the host's slow phases only
    ever add time); the tail is the slowest call with at least ten calls
    beyond it (p80 of 50, p93 of 150), or the slowest call when a pass
    makes ten or fewer."""
    lat = sorted(min([c["s"]] + [s for s, _ in c["reps"]]) * 1000 for c in calls)
    return statistics.median(lat), lat[-11] if len(lat) > 10 else lat[-1]


def end_to_end(workload, res: dict) -> dict[str, float]:
    calls = res["calls"]
    p50, tail = latency_ms(calls)
    return {
        "wall_s": res["wall_s"],
        "items_per_s": workload.items / res["wall_s"],
        "item_p50_ms": p50,
        "item_tail_ms": tail,
        "completed_ratio": sum(c["code"] == 0 for c in calls) / len(calls),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(workload, res: dict, report_bytes: int) -> dict[str, float]:
    layers = res["layers"]

    def get(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    hits = res["counts"].get("search.find_kaps.hits", 0)
    pairs = workload.pairs if get("search.find_kaps", "calls") else 0
    return {
        "search.find_kaps.s": get("search.find_kaps", "s"),
        "search.find_kaps.pairs": pairs,
        "search.find_kaps.hits": hits,
        "search.find_kaps.hit_ratio": hits / pairs if pairs else 0,
        "search.enumerate_powerful.s": get("search.enumerate_powerful", "s"),
        "search.enumerate_powerful.values":
            res["counts"].get("search.enumerate_powerful.values", 0),
        "search.consecutive_check.s": get("search.consecutive_check", "s"),
        "search.record_min_ratio.s": get("search.record_min_ratio", "s"),
        "arith.factorize.calls": get("arith.factorize", "calls"),
        "arith.factorize.s": get("arith.factorize", "s"),
        "arith.factorize.max_s": res["slowest_factorize"]["s"],
        "arith.factorize.budget_exceeded": get("arith.factorize", "budget_exceeded"),
        "arith.is_squarefree.calls": get("arith.is_squarefree", "calls"),
        "arith.decompose_powerful.calls": get("arith.decompose_powerful", "calls"),
        "arith.is_prime.calls": get("arith.is_prime", "calls"),
        "arith.is_prime.s": get("arith.is_prime", "s"),
        "abcver.analyze_triple.calls": get("abcver.analyze_triple", "calls"),
        "abcver.analyze_triple.s": get("abcver.analyze_triple", "s"),
        "abcver.analyze_triple.self_s": get("abcver.analyze_triple", "self_s"),
        "constructions.validate_witness.calls":
            get("constructions.validate_witness", "calls"),
        "constructions.validate_witness.self_s":
            get("constructions.validate_witness", "self_s"),
        "constructions.pell_3ap.s": get("constructions.pell_3ap", "s"),
        "pell.pell_solution.s": get("pell.pell_solution", "s"),
        "cli.main.s": get("cli.main", "s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "cli.report_bytes": report_bytes,
    }


# The host's speed switches between a fast and a slow phase, about 1.5
# times apart, for seconds to minutes at a time; a slow phase only ever
# adds time, so a time is taken from the fastest pass.
FASTEST = {"wall_s": min, "items_per_s": max, "item_p50_ms": min, "item_tail_ms": min}


def aggregate(samples: list[dict[str, float]]) -> dict[str, float]:
    """Time metrics from the fastest pass, the others as medians."""
    return {k: FASTEST.get(k, statistics.median)(s[k] for s in samples)
            for k in samples[0]}


def measure(name: str, seed: int, seconds: float, trace: bool, work: str):
    workload = WORKLOADS[name](seed, work)
    spans_path = os.path.join(WORK, f"{name}.spans.tsv")
    started = time.monotonic()

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    failures: list[str] = []
    notes: list[str] = []
    setup, plain, traced, traced_walls = [], [], [], []
    attempted = failed = 0
    longest = 0.0
    while True:
        t = time.monotonic()
        traced_pass = trace and len(traced) < len(plain)
        tag = f"pass{len(plain) + len(traced)}"
        if not trace:
            setup += [run_worker(work, f"{tag}-setup{i}", [], remaining())["setup_s"]
                      for i in range(SETUP_SAMPLES)]
        for out in workload.outs:
            if os.path.exists(out):
                os.remove(out)
        repeat_s = 0 if trace else seconds - (time.monotonic() - started)
        res = run_worker(work, tag, workload.calls, remaining(),
                         spans_path if traced_pass else None, repeat_s)
        longest = max(longest, time.monotonic() - t)
        setup.append(res["setup_s"])
        pass_failures: list[str] = []
        workload.check(res["calls"], pass_failures)
        for c, argv in zip(res["calls"], workload.calls):
            if any(code != c["code"] for _, code in c["reps"]):
                pass_failures.append(f"{' '.join(argv[:5])}: a repeat exited "
                                     f"differently from the first call")
        attempted += sum(1 + len(c["reps"]) for c in res["calls"])
        sweeps = max(len(c["reps"]) for c in res["calls"])
        if sweeps:
            notes.append(f"{tag}: {sweeps} repeat sweeps of the "
                         f"{sum(bool(c['reps']) for c in res['calls'])} calls "
                         f"of at most {REPEAT_MAX_S} s")
        # a failure message names one call, except the screen's pinned-set check
        failed += min(len(pass_failures), len(res["calls"]))
        failures.extend(pass_failures)
        if traced_pass:
            report_bytes = sum(os.path.getsize(out) for out in workload.outs
                               if os.path.exists(out))
            traced.append(per_layer(workload, res, report_bytes))
            traced_walls.append(res["wall_s"])
            slowest = res["slowest_factorize"]
        else:
            plain.append(end_to_end(workload, res))
        if trace and not traced:
            continue
        if time.monotonic() - started + longest > seconds or longest > remaining():
            break

    if trace:
        metrics = aggregate(traced)
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(p["wall_s"] for p in plain))
        if slowest["s"]:
            notes.append(f"slowest factorize call: {slowest['s']:.3f} s on n = {slowest['n']}")
        notes.append(f"spans of the last traced pass: {spans_path}")
    else:
        metrics = aggregate(plain)
        metrics["setup_s"] = statistics.median(setup)
    notes.insert(0, f"{name}: {len(plain)} untraced and {len(traced)} traced passes; "
                    + ("metrics are medians over traced passes" if trace else
                       "times are from the fastest pass, the rest are medians"))
    return failures, notes, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "powerful_ap", "cli.py")):
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        failures, notes, attempted, failed, metrics = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in failures:
        print(f"GATE FAILED: {msg}", file=sys.stderr)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    print("\n".join(notes))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
