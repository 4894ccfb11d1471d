"""Tests of the benchmark itself: output checks, tracing, pools, provenance.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import pools  # noqa: E402
import run  # noqa: E402

SMALL = ("jpoly", "--lambda", "2,1", "--nvars", "2", "--via", "kplus", "--format", "json")
EMPTY_VERIFY = ("verify", "--suite", "lowering", "--m", "9", "--format", "json")


def _digests(workload):
    return json.loads(run.DIGESTS.read_text())[workload]


def test_pools_have_the_documented_sizes_and_every_entry_is_pinned():
    sizes = {w: len(pools.pool(w)) for w in pools.WORKLOADS}
    assert sizes == {"jpoly": 188, "kostka": 7, "verify": 10}
    table = json.loads(run.DIGESTS.read_text())
    for w in pools.WORKLOADS:
        assert sorted(table[w]) == sorted(pools.key(a) for a in pools.pool(w))


def test_request_list_is_a_seeded_order_of_the_pool():
    a = pools.request_list("jpoly", 5)
    assert a == pools.request_list("jpoly", 5)
    assert a != pools.request_list("jpoly", 6)
    assert sorted(a) == sorted(pools.pool("jpoly"))


def test_matching_digest_passes_and_corrupted_digest_fails():
    doc = run.spawn([SMALL])
    rec = doc["requests"][0]
    digests = _digests("jpoly")
    assert run.failure(SMALL, rec, digests) is None
    corrupted = dict(digests)
    good = corrupted[pools.key(SMALL)]
    corrupted[pools.key(SMALL)] = ("0" if good[0] != "0" else "1") + good[1:]
    assert run.failure(SMALL, rec, corrupted) == "stdout digest mismatch"


def test_zero_record_verify_fails_even_with_its_digest_pinned():
    rec = run.spawn([EMPTY_VERIFY])["requests"][0]
    assert rec["rc"] == 0 and json.loads(rec["stdout"])["status"] == "pass"
    pinned = {pools.key(EMPTY_VERIFY): hashlib.sha256(rec["stdout"].encode()).hexdigest()}
    assert run.failure(EMPTY_VERIFY, rec, pinned) == "verify passed with zero records"


def test_nonzero_exit_fails():
    argv = ("jpoly", "--lambda", "3,2,1", "--nvars", "2", "--format", "json")
    rec = run.spawn([argv])["requests"][0]
    assert run.failure(argv, rec, {}) == "exit code 2"


def test_tail_percentile_keeps_ten_samples_beyond():
    pct = run.tail_percentile("verify")
    n = run.MIN_ROUNDS["verify"] * 10
    values = list(range(n))
    assert run.nearest_rank(values, pct) == n - 11


def test_two_traced_runs_with_one_seed_give_identical_counters():
    first, d1 = run.measure("verify", 3, 0, traced=True)
    second, d2 = run.measure("verify", 3, 0, traced=True)
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(layertrace.METRICS)
    for name in layertrace.COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name
    m = first["metrics"]
    # the wrappers reached names imported across modules
    assert m["operators.apply.div_s"]["value"] > 0
    assert m["rings.mul.calls"]["value"] > 0
    assert m["identities.run_suite.s"]["value"] > 0
    assert d1["spans_per_round"] == d2["spans_per_round"]


def test_untraced_run_reports_every_end_to_end_metric():
    result, details = run.measure("verify", 1, 0, traced=False)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_ROUNDS["verify"] * 10
    assert details["req_tail_samples"] == result["attempted"]


def test_benchmark_json_lists_every_layer_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    assert listed == layertrace.METRICS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
