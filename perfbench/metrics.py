"""Metric definitions: the end-to-end summary of a run and the per-layer
numbers derived from a trace."""

from __future__ import annotations

import statistics

import reference
from tracer import NO_PARENT, self_times

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Percentiles tried for the tail, highest first, in tenths of a percent.
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
TAIL_MIN_BEYOND = 10


def tail_percentile(samples) -> tuple:
    """(percentile, value, samples beyond it) for the highest percentile of
    TAIL_LADDER that still has at least ten samples beyond it.

    With too few samples for any of them the tail is the maximum, reported
    as percentile 100 with no sample beyond it.
    """
    values = sorted(samples)
    n = len(values)
    if not n:
        raise ValueError("no samples")
    for per_mille in TAIL_LADDER:
        idx = max(0, -(-per_mille * n // 1000) - 1)  # nearest rank
        beyond = n - 1 - idx
        if beyond >= TAIL_MIN_BEYOND:
            return per_mille / 10, values[idx], beyond
    return 100.0, values[-1], 0


def end_to_end(setup_times, setup_samples, passes, samples, peak_rss_kb) -> tuple:
    """(metrics, notes) for an untraced run.

    `passes` holds the request latencies of each pass, `samples` the kernel
    times taken between its requests, and `setup_samples` those taken around
    its set-ups, all in seconds.  Times are reported in reference seconds
    (see `reference.py`): request times are scaled by the kernel samples of
    the passes, and set-up times by those of the set-ups.

    Every request timing comes from each request's mean time over the
    passes: `wall_s` is their sum, the mean time of a pass, and the median
    and tail latency are taken over them.  Set-up is the median of the
    set-ups, which the run spreads over its length.
    """
    scale = reference.factor(samples)
    means = [statistics.fmean(times) * scale for times in zip(*passes)]
    wall = sum(means)
    pct, tail, beyond = tail_percentile(means)
    metrics = {
        "setup_s": statistics.median(setup_times) * reference.factor(setup_samples),
        "wall_s": wall,
        "throughput_rps": len(means) / wall,
        "latency_p50_ms": statistics.median(means) * 1000.0,
        "latency_tail_ms": tail * 1000.0,
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }
    notes = {
        "setup_runs": len(setup_times),
        "passes": len(passes),
        "latency_samples": len(means),
        "latency_tail_percentile": pct,
        "latency_tail_beyond": beyond,
        "unscaled_wall_s": round(wall / scale, 6),
        "kernel_samples": len(samples),
        "kernel_mean_ms": round(reference.REF_SECONDS / scale * 1000.0, 6),
    }
    return metrics, notes


# -- per-layer metrics ------------------------------------------------------------

LAYERS = ("linalg", "algebras", "modules", "mathieu", "polyspaces", "serialize", "cli",
          "verify")

# metric -> span or count name whose calls it reports
CALLS = {
    "modules.colon.calls": ("modules.colon",),
    "modules.colon_cached.calls": ("modules.colon_cached",),
    "modules.max_submodule.calls": ("modules.max_submodule",),
    "mathieu.sigma.calls": ("mathieu.sigma",),
    "mathieu.tau.calls": ("mathieu.tau",),
    "mathieu.idempotent.calls": ("mathieu.idempotent",),
    "mathieu.ideal.calls": ("mathieu.ideal",),
    "linalg.rref_rows.calls": ("linalg.rref_rows",),
    "linalg.solve_right_kernel.calls": ("linalg.solve_right_kernel",),
    "linalg.subspace_intersect.calls": ("linalg.subspace_intersect",),
    "linalg.preimage_subspace.calls": ("linalg.preimage_subspace",),
    "algebras.mult_table.builds": ("algebras.mult_table.build",),
    "algebras.trajectory.calls": ("algebras.power_trajectory", "algebras.trajectory_indices"),
    "algebras.idempotents.scans": ("algebras.idempotents.build",),
    "algebras.multiply.calls": ("algebras.multiply",),
    "mathieu.bruteforce.calls": ("mathieu.bruteforce",),
    "mathieu.witness_checks": ("mathieu.witness_check",),
    "polyspaces.evaluate.calls": ("polyspaces.evaluate",),
    "polyspaces.poly_mul.calls": ("polyspaces.poly_mul",),
    "polyspaces.omega_member.calls": ("polyspaces.omega_member",),
    "polyspaces.exact_integral.calls": ("polyspaces.exact_integral",),
    "algebras.construct.calls": ("algebras.construct",),
    "serialize.load.calls": ("serialize.load",),
    "cli.main.calls": ("cli.main",),
}
# metric -> span name whose self time it reports
SELF = {
    "mathieu.idempotent.self_s": "mathieu.idempotent",
    "linalg.rref_rows.self_s": "linalg.rref_rows",
    "mathieu.bruteforce.self_s": "mathieu.bruteforce",
}
# metric -> span name whose total (inclusive) time it reports
TOTAL = {
    "algebras.mult_table_s": "algebras.mult_table.build",
    "polyspaces.omega_member_s": "polyspaces.omega_member",
    "algebras.construct_s": "algebras.construct",
    "modules.construct_s": "modules.construct",
}
DECIDERS = ("mathieu.ideal", "mathieu.idempotent", "mathieu.bruteforce")
SET_BUILDERS = ("mathieu.sigma", "mathieu.tau")
# Every caller of `colon_cached`.  `colon_cached` records no span, so a colon
# space it computes has its caller as parent; `is_module_mathieu` calls
# `colon` directly and is left out of the reuse ratio.
COLON_CACHE_CALLERS = SET_BUILDERS + ("mathieu.find_quasi_stable_violation",
                                      "mathieu.find_stable_violation")


def per_layer_names(check_names) -> list:
    """Every per-layer metric, in report order."""
    names = list(CALLS) + list(SELF) + list(TOTAL)
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += ["modules.colon_reuse_ratio", "mathieu.verdict_reuse_ratio"]
    names += [f"verify.{check}_s" for check in check_names]
    names += ["trace.overhead_ratio", "trace.spans"]
    return names


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer(spans: dict, counts, check_times: dict, overhead_ratio: float) -> dict:
    """Per-layer metrics from the spans and count-only calls of a traced run.

    `counts` maps (name, enclosing span name or None) to calls; `check_times`
    maps each verify check to its untraced time around the call.
    """
    names = spans["names"]
    span_calls = [0] * len(names)
    self_by_name = [0.0] * len(names)
    total_by_name = [0.0] * len(names)
    deciders_in_sets = colons_via_cache = 0
    ids = {n: i for i, n in enumerate(names)}
    set_builder_ids = {ids[n] for n in SET_BUILDERS if n in ids}
    cache_caller_ids = {ids[n] for n in COLON_CACHE_CALLERS if n in ids}
    decider_ids = {ids[n] for n in DECIDERS if n in ids}
    colon_id = ids.get("modules.colon")
    name_col, parent_col = spans["name"], spans["parent"]
    for i, (nid, own, s, e) in enumerate(zip(name_col, self_times(spans),
                                             spans["start"], spans["end"])):
        span_calls[nid] += 1
        self_by_name[nid] += own
        total_by_name[nid] += e - s
        p = parent_col[i]
        if p == NO_PARENT:
            continue
        if nid in decider_ids and name_col[p] in set_builder_ids:
            deciders_in_sets += 1
        elif nid == colon_id and name_col[p] in cache_caller_ids:
            colons_via_cache += 1

    calls = _calls_by_name(names, span_calls, counts)

    def self_of(name):
        return self_by_name[ids[name]] if name in ids else 0.0

    def total_of(name):
        return total_by_name[ids[name]] if name in ids else 0.0

    out = {m: sum(calls.get(n, 0) for n in srcs) for m, srcs in CALLS.items()}
    out.update({m: self_of(n) for m, n in SELF.items()})
    out.update({m: total_of(n) for m, n in TOTAL.items()})
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for n, t in zip(names, self_by_name)
                                     if n.split(".", 1)[0] == layer)

    def cached_under(callers):
        return sum(c for (n, parent), c in counts.items()
                   if n == "modules.colon_cached" and parent in callers)

    def reuse(computed, lookups):
        return 1.0 - computed / lookups if lookups else 0.0

    out["modules.colon_reuse_ratio"] = reuse(colons_via_cache,
                                             cached_under(COLON_CACHE_CALLERS))
    out["mathieu.verdict_reuse_ratio"] = reuse(deciders_in_sets, cached_under(SET_BUILDERS))
    for check, seconds in check_times.items():
        out[f"verify.{check}_s"] = seconds
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.spans"] = len(name_col)
    return out


def _calls_by_name(names, span_calls, counts) -> dict:
    """Calls per name: spans counted from the span list, plus count-only calls."""
    calls = {n: c for n, c in zip(names, span_calls) if c}
    for (n, _parent), c in counts.items():
        calls[n] = calls.get(n, 0) + c
    return calls
