"""Benchmark for mathieuspaces: one closed-loop workload per process.

    python3 perfbench/run.py --workload decider-scan --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

An untraced run is cut into SLICES slices, each run in a process of its own,
one after another, so that what one process happens to get from the machine
does not set the whole run.  A slice sets the workload up from a clean import
of the package, at least once and for at least SETUP_SLICE_SECONDS, then
makes passes over the request list, one request at a time on one thread,
until its passes have taken its share of `--seconds` (default: `run_seconds`
of BENCHMARK.json).  Every answer is checked after its pass against an
expectation prepared during set-up by another route.  Between requests,
every `reference.SAMPLE_INTERVAL` seconds, and around each set-up, a slice
times the reference kernel of `reference.py`, and every time the run reports
is scaled by the mean kernel time.  The run reports the median set-up time
and, for every request, its mean time over the passes of all slices (see
`metrics.end_to_end`).

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it sets up
once, makes two untraced passes and one traced pass, writes the spans to
`perfbench/out/` and prints the per-layer metrics, in unscaled seconds.  The
last line of standard output is a JSON object with `correct`, `attempted`,
`failed` and `metrics`.  The exit code is 1 when any request failed and 2 on
a usage error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
PACKAGE = "mathieuspaces"
# Processes an untraced run is cut into; each sets up at least once and for at
# least SETUP_SLICE_SECONDS before its passes.
SLICES = 4
# Seconds the slices of an untraced run may take before it gives up on them.
RUN_TIMEOUT = 170
SETUP_SLICE_SECONDS = 0.5
# Kernel runs before and after each set-up.
SETUP_SAMPLES = 8
# Untraced passes a traced run makes before its traced pass; the first pass
# after a set-up can be the slowest.
UNTRACED_PASSES = 2

WORKLOADS = {
    "verify-paper": "workloads.verify_paper",
    "decider-scan": "workloads.decider_scan",
    "poly-predicates": "workloads.poly_predicates",
    "cold-queries": "workloads.cold_queries",
}


def fresh_import():
    """Drop every loaded module of the package and import it again."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE + ".cli")


def setup(wl, seed: int, workdir: str, tracer=None) -> tuple:
    """(seconds, requests, state, expected); a tracer sees only `build`."""
    t0 = time.perf_counter()
    fresh_import()
    requests = wl.make_requests(seed)
    if tracer is not None:
        tracer.install()
    try:
        state = wl.build(requests)
    finally:
        if tracer is not None:
            tracer.uninstall()
    expected = wl.prepare(state, requests, workdir)
    return time.perf_counter() - t0, requests, state, expected


class Raised:
    """The result of a request that raised."""

    def __init__(self, exc: BaseException):
        self.text = "".join(traceback.format_exception_only(type(exc), exc)).strip()


def one_pass(wl, state, count: int, tracer=None, samples=None) -> tuple:
    """(wall seconds, results, latencies) of one closed-loop pass.

    Given a list `samples`, it appends to it a kernel time after every
    `reference.SAMPLE_INTERVAL` seconds of requests.
    """
    clock = time.perf_counter
    results, latencies = [], []
    t_pass = t_sample = clock()
    for i in range(count):
        if tracer is not None:
            tracer.request_id = i + 1
        t0 = clock()
        try:
            result = wl.call(state, i)
        except Exception as exc:  # a failed request is counted, not fatal
            result = Raised(exc)
        t1 = clock()
        latencies.append(t1 - t0)
        results.append(result)
        if samples is not None and t1 - t_sample > reference.SAMPLE_INTERVAL:
            samples.append(reference.sample())
            t_sample = clock()
    return clock() - t_pass, results, latencies


def failures(wl, state, results, expected) -> list:
    out = []
    for i, (result, want) in enumerate(zip(results, expected)):
        if isinstance(result, Raised):
            out.append((i, result.text))
            continue
        reason = wl.check(state, i, result, want)
        if reason is not None:
            out.append((i, reason))
    return out


def report(correct: bool, attempted: int, failed: list, metrics: dict, units) -> None:
    for i, reason in failed[:10]:
        print(f"FAILED request {i}: {reason}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units(name)}")
    print(f"failed_ratio {len(failed) / attempted:.6g} ratio ({len(failed)} of {attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
    }))


def run_slice(wl, seed: int, seconds: float, workdir: str) -> dict:
    """The raw times, kernel samples and failures of one slice."""
    clock = time.perf_counter
    setup_times, setup_samples, passes, samples, failed = [], [], [], [], []
    t_slice = clock()
    while not setup_times or clock() - t_slice < SETUP_SLICE_SECONDS:
        state = None  # release the previous set-up before the next
        gc.collect()
        setup_samples += [reference.sample() for _ in range(SETUP_SAMPLES)]
        elapsed, requests, state, expected = setup(wl, seed, workdir)
        setup_samples += [reference.sample() for _ in range(SETUP_SAMPLES)]
        setup_times.append(elapsed)
    measured = 0.0
    while not passes or measured + measured / len(passes) <= seconds:
        wall, results, lats = one_pass(wl, state, len(requests), samples=samples)
        passes.append(lats)
        failed += failures(wl, state, results, expected)
        measured += wall
    return {"setup_times": setup_times, "setup_samples": setup_samples, "passes": passes,
            "samples": samples, "failed": failed,
            "peak_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def run_untraced(name: str, seed: int, seconds: float) -> bool:
    import metrics as m

    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--seconds", repr(seconds / SLICES), "--trace", "0", "--slice"]
    slices = []
    deadline = time.monotonic() + RUN_TIMEOUT
    for _ in range(SLICES):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, check=False,
                                 timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"error: the slices of {name} took over {RUN_TIMEOUT} s", file=sys.stderr)
            return False
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            print(f"error: a slice of {name} exited with code {out.returncode}",
                  file=sys.stderr)
            return False
        slices.append(json.loads(out.stdout.splitlines()[-1]))

    def pooled(key):
        return [x for part in slices for x in part[key]]

    passes, failed = pooled("passes"), pooled("failed")
    metrics, notes = m.end_to_end(pooled("setup_times"), pooled("setup_samples"), passes,
                                  pooled("samples"), max(part["peak_kb"] for part in slices))
    print("; ".join(f"{k} {v}" for k, v in notes.items()))
    report(not failed, len(passes) * len(passes[0]), failed, metrics, m.END_TO_END.get)
    return not failed


def run_traced(wl, name: str, seed: int, workdir: str) -> bool:
    import metrics as m
    from tracer import Tracer

    tracer = Tracer()
    _elapsed, requests, state, expected = setup(wl, seed, workdir, tracer)
    failed, plain = [], []
    for _ in range(UNTRACED_PASSES):
        _wall, results, lats = one_pass(wl, state, len(requests))
        failed += failures(wl, state, results, expected)
        plain.append(lats)
    # each request's faster time of the two
    plain_lats = [min(times) for times in zip(*plain)]
    plain_wall = sum(plain_lats)
    tracer.install()
    try:
        traced_wall, results, _lats = one_pass(wl, state, len(requests), tracer)
    finally:
        tracer.uninstall()
    failed += failures(wl, state, results, expected)
    verify = sys.modules[PACKAGE + ".verify"]
    check_names = [check for check, _fn in verify.SUITE]
    check_times = dict.fromkeys(check_names, 0.0)
    if name == "verify-paper":
        check_times.update({req["check"]: t for req, t in zip(requests, plain_lats)
                            if req["check"] in check_times})
    metrics = m.per_layer(tracer.spans(), tracer.named_counts(), check_times,
                          traced_wall / plain_wall)
    path = os.path.join(OUT, f"trace-{name}-seed{seed}.bin")
    tracer.write(path)
    print(f"requests per pass {len(requests)}; untraced {plain_wall:.3f} s; "
          f"traced pass {traced_wall:.3f} s; spans written to {os.path.relpath(path, ROOT)}")
    ordered = {k: metrics[k] for k in m.per_layer_names(check_names)}
    report(not failed, (UNTRACED_PASSES + 1) * len(requests), failed, ordered, m.unit_of)
    return not failed


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time of an untraced run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slice", action="store_true",
                        help="run one slice of an untraced run and print its raw "
                             "times as JSON (used by the run itself)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, PACKAGE)):
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    if not args.trace and not args.slice:
        return 0 if run_untraced(args.workload, args.seed, args.seconds) else 1
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    wl = importlib.import_module(WORKLOADS[args.workload])
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            return 0 if run_traced(wl, args.workload, args.seed, workdir) else 1
        print(json.dumps(run_slice(wl, args.seed, args.seconds, workdir)))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
