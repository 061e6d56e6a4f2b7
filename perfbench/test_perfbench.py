"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import array
import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import metrics  # noqa: E402
import reference  # noqa: E402
import run as bench  # noqa: E402
from tracer import NO_PARENT, Tracer, read_spans, self_times  # noqa: E402


# -- the tail-percentile rule ----------------------------------------------------------


@pytest.mark.parametrize("n, pct, idx", [
    (20, 50.0, 9),        # ten samples beyond the median
    (100, 90.0, 89),      # p95 leaves only five beyond
    (1000, 99.0, 989),
    (10000, 99.9, 9989),
    (1009, 99.0, 998),
])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, idx):
    samples = list(range(n))[::-1]
    got_pct, value, beyond = metrics.tail_percentile(samples)
    assert (got_pct, value) == (pct, idx)
    assert beyond == n - 1 - idx >= 10


def test_timings_take_each_requests_mean_pass_scaled_by_the_kernel():
    ref = reference.REF_SECONDS
    passes = [[0.001, 0.005, 0.002], [0.003, 0.004, 0.002], [0.002, 0.006, 0.002]]
    # kernel samples of the passes average 2 ref: request times count half;
    # those of the set-ups average ref / 2: set-up times count double
    samples, setup_samples = [ref, 3 * ref], [ref / 4, 3 * ref / 4]
    out, notes = metrics.end_to_end([0.5, 0.9, 0.6], setup_samples, passes, samples, 2048)
    assert out["wall_s"] == pytest.approx((0.002 + 0.005 + 0.002) / 2)
    assert out["throughput_rps"] == pytest.approx(3 / 0.0045)
    assert out["latency_p50_ms"] == pytest.approx(1.0)
    assert out["latency_tail_ms"] == pytest.approx(2.5)
    assert out["setup_s"] == pytest.approx(1.2) and out["peak_rss_mb"] == 2.0
    assert (notes["passes"], notes["latency_samples"]) == (3, 3)
    assert notes["unscaled_wall_s"] == pytest.approx(0.009)


def test_reference_kernel_does_the_same_work_every_time():
    assert reference.kernel() == reference.kernel()
    assert 0.0 < reference.sample() < 1.0
    assert reference.factor([2.0 * reference.REF_SECONDS] * 3) == pytest.approx(0.5)


def test_tail_falls_back_to_maximum_below_eleven_samples():
    assert metrics.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 0)
    assert metrics.tail_percentile(range(11))[0] == 100.0
    assert metrics.tail_percentile(range(20))[0] == 50.0


# -- self time -------------------------------------------------------------------------


def _spans(rows):
    """rows: (name, start, end, parent index)"""
    names = sorted({r[0] for r in rows})
    return {"names": names,
            "name": array.array("i", [names.index(r[0]) for r in rows]),
            "start": array.array("d", [r[1] for r in rows]),
            "end": array.array("d", [r[2] for r in rows]),
            "parent": array.array("i", [r[3] for r in rows]),
            "request": array.array("i", [1] * len(rows))}


def test_self_time_of_nested_and_sibling_spans():
    spans = _spans([
        ("mathieu.tau", 0.0, 10.0, NO_PARENT),
        ("modules.colon", 1.0, 4.0, 0),            # first child
        ("linalg.rref_rows", 2.0, 3.0, 1),         # grandchild inside it
        ("modules.colon", 5.0, 9.0, 0),            # sibling
        ("linalg.rref_rows", 11.0, 12.0, NO_PARENT),
    ])
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    out = metrics.per_layer(spans, {}, {}, 1.0)
    assert out["mathieu.self_s"] == 3.0
    assert out["modules.self_s"] == 6.0
    assert out["linalg.self_s"] == out["linalg.rref_rows.self_s"] == 2.0
    assert out["modules.colon.calls"] == 2


def test_reuse_ratios_count_lookups_under_their_callers():
    spans = _spans([
        ("mathieu.tau", 0.0, 10.0, NO_PARENT),
        ("modules.colon", 1.0, 2.0, 0),
        ("mathieu.idempotent", 2.0, 3.0, 0),
        ("modules.colon", 4.0, 5.0, NO_PARENT),   # a direct call, no lookup
    ])
    counts = {("modules.colon_cached", "mathieu.tau"): 4}
    out = metrics.per_layer(spans, counts, {}, 1.0)
    assert out["modules.colon_reuse_ratio"] == 0.75
    assert out["mathieu.verdict_reuse_ratio"] == 0.75
    assert out["modules.colon.calls"] == 2
    assert out["modules.colon_cached.calls"] == 4


def test_tracer_wraps_every_alias_and_restores_them(tmp_path):
    importlib.import_module("mathieuspaces.cli")
    import mathieuspaces as ms
    import mathieuspaces.linalg as linalg
    import mathieuspaces.modules as modules

    original = linalg.solve_right_kernel
    tracer = Tracer()
    tracer.install([("linalg", "rref_rows", "linalg.rref_rows", "span"),
                    ("linalg", "solve_right_kernel", "linalg.solve_right_kernel", "span"),
                    ("algebras", "Algebra.multiply", "algebras.multiply", "count")])
    try:
        assert modules.solve_right_kernel is linalg.solve_right_kernel is ms.solve_right_kernel
        assert modules.solve_right_kernel is not original
        ms.solve_right_kernel(ms.GF(5), [(1, 2, 3)], 3)
        ms.matrix_algebra(2, 2).multiply((1, 0, 0, 1), (0, 1, 0, 0))
    finally:
        tracer.uninstall()
    assert modules.solve_right_kernel is original is ms.solve_right_kernel
    spans = tracer.spans()
    names = [spans["names"][i] for i in spans["name"]]
    assert names[0] == "linalg.solve_right_kernel"
    # the kernel's rref and its Subspace canonicalisation are children of it
    assert names.count("linalg.rref_rows") == 2
    assert all(spans["parent"][i] == 0 for i in range(1, len(names)))
    # matrix_algebra validates associativity with multiply before the call above
    assert tracer.named_counts()[("algebras.multiply", None)] > 1
    path = tmp_path / "spans.bin"
    tracer.write(str(path))
    back = read_spans(str(path))
    assert back["names"] == spans["names"]
    assert back["start"] == spans["start"] and back["parent"] == spans["parent"]


# -- request lists and traced counts -----------------------------------------------------


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_same_seed_gives_byte_identical_requests(workload):
    importlib.import_module("mathieuspaces.cli")
    wl = importlib.import_module(bench.WORKLOADS[workload])

    def dump(seed):
        return json.dumps(wl.make_requests(seed), sort_keys=True).encode()

    first = dump(7)
    assert first == dump(7)
    assert first != dump(8)


def _traced_metrics(workload: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--trace", "1"],
                         capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
def test_traced_counts_repeat_for_the_same_seed(workload):
    first = _traced_metrics(workload, 5)
    second = _traced_metrics(workload, 5)
    counts = {k for k, v in first.items() if v["unit"] == "count"}
    assert counts and all(first[k] == second[k] for k in counts)
    assert any(first[k]["value"] > 0 for k in counts)
    assert first["trace.overhead_ratio"]["value"] > 0


# -- BENCHMARK.json and the runner --------------------------------------------------------


def test_benchmark_json_matches_what_the_runs_print():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    importlib.import_module("mathieuspaces.cli")
    suite = sys.modules["mathieuspaces.verify"].SUITE
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert all(m["unit"] == metrics.END_TO_END[m["name"]] for m in spec["end_to_end"])
    names = metrics.per_layer_names([name for name, _fn in suite])
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == metrics.unit_of(m["name"]) for m in spec["per_layer"])


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cold-queries",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
