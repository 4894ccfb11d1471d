"""macops benchmark: seeded closed-loop CLI request streams, checked and timed.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload {jpoly,kostka,verify} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --pin     # rewrite perfbench/digests.json

One client sends the workload's request list (perfbench/pools.py) one
request at a time to a fresh worker process, which runs each through
``macops.cli.main`` in-process. A run repeats such rounds, each in a new
worker, for about S seconds and reports medians over rounds. Every
request's stdout is checked against a pinned sha256 digest, and a
``verify`` request must also report ``pass`` with at least one record.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds and prints the per-layer metrics (perfbench/layertrace.py).
The last stdout line is the result object; the line before it holds the
provenance and details, which are also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from layertrace import COUNTERS, METRICS  # noqa: E402
from pools import WORKLOADS, key, pool, request_list  # noqa: E402

# Untraced rounds a --trace 0 run makes at least; chosen so the shortest run
# still holds enough requests for a tail percentile above the 85th.
MIN_ROUNDS = {"jpoly": 3, "kostka": 10, "verify": 12}
SETUP_PROBES = 7  # extra worker start-ups that run no request
HARD_LIMIT_S = 150.0  # no round starts that is expected to end after this
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile


class WorkerFailed(RuntimeError):
    pass


def spawn(requests, traced=False, spans_path="", timeout=HARD_LIMIT_S):
    """Run one request list in a fresh worker; return its document plus setup_s."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("MACOPS_MAX_WEIGHT", None)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(SRC), "1" if traced else "0", spans_path],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env, cwd=str(ROOT),
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        if ready.strip() != "ready":
            proc.kill()
            _, err = proc.communicate()
            raise WorkerFailed(f"worker did not start: {err.strip()[-2000:]}")
        out, err = proc.communicate(json.dumps(requests) + "\n", timeout=timeout)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    doc = json.loads(out.strip().splitlines()[-1])
    doc["setup_s"] = setup
    return doc


def failure(argv, rec, digests) -> str | None:
    """Why one request failed, or None when its output is correct."""
    if rec["exc"] is not None:
        return f"raised {rec['exc']}"
    if rec["rc"] != 0:
        return f"exit code {rec['rc']}"
    if argv[0] == "verify":
        try:
            doc = json.loads(rec["stdout"])
        except ValueError:
            return "verify output is not JSON"
        if doc.get("status") != "pass":
            return f"verify status {doc.get('status')!r}"
        if not doc.get("records"):
            return "verify passed with zero records"
    want = digests.get(key(argv))
    if want is None:
        return "no pinned digest"
    if hashlib.sha256(rec["stdout"].encode()).hexdigest() != want:
        return "stdout digest mismatch"
    return None


def tail_percentile(workload: str) -> float:
    """Highest percentile with TAIL_BEYOND samples beyond it in MIN_ROUNDS rounds.

    It depends only on the request list, so it does not move when a faster
    program fits more rounds into a run; the value is then read from the
    latencies of every round of the run.
    """
    n = MIN_ROUNDS[workload] * len(pool(workload))
    return 100.0 * (n - TAIL_BEYOND) / n


def nearest_rank(values, pct: float):
    ordered = sorted(values)
    rank = math.ceil(round(pct / 100.0 * len(ordered), 9))
    return ordered[max(rank - 1, 0)]


def run_round(requests, digests, traced=False, spans_path="", timeout=HARD_LIMIT_S):
    doc = spawn(requests, traced, spans_path, timeout)
    fails = []
    for argv, rec in zip(requests, doc["requests"]):
        why = failure(argv, rec, digests)
        if why is not None:
            fails.append((key(argv), why))
    if len(doc["requests"]) != len(requests):
        fails.append(("<round>", "worker answered fewer requests than sent"))
    return {
        "wall_s": doc["wall_s"],
        "latencies_s": [r["latency_s"] for r in doc["requests"]],
        "p50_s": statistics.median(r["latency_s"] for r in doc["requests"]),
        "setup_s": doc["setup_s"],
        "rss_mb": doc["maxrss_kb"] / 1024.0,
        "attempted": len(requests),
        "fails": fails,
        "layers": doc.get("layers"),
        "spans": doc.get("spans"),
    }


def provenance(workload, seed) -> dict:
    files = sorted((SRC / "macops").rglob("*.py"))
    src_hash = hashlib.sha256()
    for f in files:
        src_hash.update(f.relative_to(SRC).as_posix().encode() + b"\0" + f.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "pool_sizes": {w: len(pool(w)) for w in WORKLOADS},
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def measure(workload, seed, seconds, traced) -> tuple[dict, dict]:
    """Run rounds for about `seconds`; return (result object, details)."""
    digests = json.loads(DIGESTS.read_text())[workload]
    requests = request_list(workload, seed)
    OUT.mkdir(exist_ok=True)
    began = time.monotonic()

    spawn([])  # first start-up may compile bytecode; not counted
    setups = [spawn([])["setup_s"] for _ in range(SETUP_PROBES)]

    plain, traced_rounds = [], []
    t0 = time.monotonic()
    while True:
        want_traced = traced and len(traced_rounds) < len(plain)
        spans_path = ""
        if want_traced and not traced_rounds:  # later traced rounds repeat its counts
            spans_path = str(OUT / f"spans-{workload}-seed{seed}.tsv")
        budget = HARD_LIMIT_S - (time.monotonic() - began)
        rnd = run_round(requests, digests, want_traced, spans_path, timeout=max(budget, 1.0))
        (traced_rounds if want_traced else plain).append(rnd)
        setups.append(rnd["setup_s"])
        elapsed = time.monotonic() - t0
        total = time.monotonic() - began
        next_traced = traced and len(traced_rounds) < len(plain)
        nxt = (traced_rounds if next_traced else plain) or plain
        estimate = statistics.median(r["wall_s"] + r["setup_s"] for r in nxt)
        have_one = bool(plain) and (bool(traced_rounds) or not traced)
        have_min = have_one and len(plain) >= (1 if traced else MIN_ROUNDS[workload])
        if have_one and total + estimate > HARD_LIMIT_S:
            break
        if have_min and elapsed + estimate > seconds:
            break

    rounds = plain + traced_rounds
    attempted = sum(r["attempted"] for r in rounds)
    fails = [f for r in rounds for f in r["fails"]]
    failed = len(fails)
    latencies = [x for r in plain for x in r["latencies_s"]]
    tail_pct = tail_percentile(workload)
    details = {
        "requests_per_round": len(requests),
        "rounds": len(plain),
        "traced_rounds": len(traced_rounds),
        "round_wall_s": [r["wall_s"] for r in plain],
        "fail_ratio": failed / attempted,
        "first_failures": fails[:10],
        "req_tail_percentile": tail_pct,
        "req_tail_samples": len(latencies),
        "setup_samples": len(setups),
    }
    med = statistics.median
    if not traced:
        metrics = {
            "wall_s": (med(r["wall_s"] for r in plain), "s"),
            # per-round medians pair latencies measured at one machine speed
            "req_p50_ms": (1000 * med(r["p50_s"] for r in plain), "ms"),
            "req_tail_ms": (1000 * nearest_rank(latencies, tail_pct), "ms"),
            "setup_s": (med(setups), "s"),
            "peak_rss_mb": (med(r["rss_mb"] for r in plain), "MB"),
        }
    else:
        layers = [r["layers"] for r in traced_rounds]
        metrics = {}
        for name, (unit, _) in METRICS.items():
            if name == "trace.overhead_s":
                value = med(r["wall_s"] for r in traced_rounds) - med(r["wall_s"] for r in plain)
            elif name in COUNTERS:
                value = layers[0][name]
            else:
                value = med(l[name] for l in layers)
            metrics[name] = (value, unit)
        details["counters_repeat"] = all(
            l[c] == layers[0][c] for l in layers for c in COUNTERS
        )
        details["spans_per_round"] = traced_rounds[0]["spans"]
        details["traced_wall_s"] = med(r["wall_s"] for r in traced_rounds)
        details["untraced_wall_s"] = med(r["wall_s"] for r in plain)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    details["measured_s"] = time.monotonic() - began
    return result, details


def pin() -> None:
    """Record the stdout digest of every pool entry of every workload."""
    table = {}
    for workload in WORKLOADS:
        entries = pool(workload)
        doc = spawn(entries, timeout=3600)
        table[workload] = {}
        for argv, rec in zip(entries, doc["requests"]):
            if rec["exc"] is not None or rec["rc"] != 0:
                raise WorkerFailed(f"{key(argv)}: rc={rec['rc']} exc={rec['exc']}")
            table[workload][key(argv)] = hashlib.sha256(rec["stdout"].encode()).hexdigest()
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="rewrite the pinned digests")
    args = ap.parse_args(argv)
    if not (SRC / "macops" / "cli.py").is_file():
        print(f"error: no macops sources at {SRC}", file=sys.stderr)
        return 2
    if args.pin:
        pin()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    try:
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerFailed, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    record = {
        "provenance": provenance(args.workload, args.seed),
        "details": details,
        "result": result,
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": record["provenance"], "details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
