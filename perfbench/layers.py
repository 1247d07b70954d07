"""Per-layer numbers from the spans of :mod:`perfbench.tracer`.

Every per-layer metric of ``BENCHMARK.json`` is computed here from one unit
of work -- a pass for the batch workloads, the traced phase of requests for
``service_open`` -- so all workloads report the same names (a layer a
workload does not reach reads 0).
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("web", "text", "classify", "core", "parallel", "persistence", "service")


def total(spans, name: str) -> float:
    return sum(span.duration for span in spans if span.name == name)


def self_total(spans, name: str) -> float:
    return sum(span.self_time for span in spans if span.name == name)


def layer_self_times(spans) -> dict[str, float]:
    """Self time per layer, summed over every process and thread."""
    out = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        out[span.layer] = out.get(span.layer, 0.0) + span.self_time
    return out


def root_time(spans, pid: int, tid: int) -> float:
    """Time covered by the outermost spans of one thread.

    Self times telescope, so this is also the sum of the self times of
    every span on that thread: the part of the unit the trace explains.
    """
    by_interval = sorted(
        (span.start, span.end) for span in spans if span.pid == pid and span.tid == tid
    )
    covered = 0.0
    reach = float("-inf")
    for start, end in by_interval:
        if start >= reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def compute_metrics(spans) -> dict[str, float]:
    """The span-derived per-layer metrics of one unit of work."""
    dedupe = [span.tags for span in spans if span.name == "core.annotate_values"]
    n_cells = sum(tags["n_cells"] for tags in dedupe)
    n_unique = sum(tags["n_unique"] for tags in dedupe)
    return {
        "web.search_many_s": total(spans, "web.search_many"),
        "web.rank_s": total(spans, "web.rank"),
        "web.snippet_s": self_total(spans, "web.search_many"),
        "text.transform_s": total(spans, "text.transform"),
        "classify.classify_many_s": self_total(spans, "classify.classify_many"),
        "core.annotate_values_self_s": self_total(spans, "core.annotate_values"),
        "core.dedupe_ratio": n_cells / n_unique if n_unique else 0.0,
        "core.prep_s": total(spans, "core.prep"),
        "core.postprocess_s": total(spans, "core.postprocess"),
        "persistence.load_s": self_total(spans, "persistence.load")
        + total(spans, "persistence.bucket_load"),
        "persistence.save_s": total(spans, "persistence.save"),
    } | {
        f"layer.{layer}_self_s": seconds
        for layer, seconds in layer_self_times(spans).items()
    }


def diagnostics_metrics(diagnostics) -> dict[str, float]:
    """Per-layer ratios and counts from a run's public ``RunDiagnostics``."""
    results = diagnostics.results_cache_hits + diagnostics.results_cache_misses
    memo = diagnostics.label_memo_hits + diagnostics.label_memo_misses
    loads = diagnostics.worker_loads
    return {
        "web.queries_per_cell": diagnostics.queries_issued / diagnostics.n_cells
        if diagnostics.n_cells
        else 0.0,
        "web.results_hit_ratio": diagnostics.results_cache_hits / results if results else 0.0,
        "core.label_memo_hit_ratio": diagnostics.label_memo_hits / memo if memo else 0.0,
        "parallel.worker_busy_s": float(sum(load.busy_seconds for load in loads)),
        "parallel.imbalance_ratio": diagnostics.imbalance_ratio,
        "parallel.tasks": float(sum(load.n_tasks for load in loads)),
        "persistence.bytes_loaded": float(diagnostics.cache_load_bytes),
        "persistence.lock_wait_s": diagnostics.cache_lock_wait_seconds,
    }


def fold(per_unit: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced units."""
    from statistics import median

    keys: dict[str, list[float]] = defaultdict(list)
    for metrics in per_unit:
        for key, value in metrics.items():
            keys[key].append(value)
    return {key: median(values) for key, values in keys.items()}


def self_time_table(metrics: dict[str, float], wall: float, unit: str) -> list[str]:
    """Human-readable self-time breakdown of one (median) unit."""
    lines = [f"  self time per {unit} (all processes; pool workers run concurrently):"]
    for layer in LAYERS:
        seconds = metrics.get(f"layer.{layer}_self_s", 0.0)
        share = seconds / wall if wall else 0.0
        lines.append(f"    {layer:<12} {seconds * 1000:10.1f} ms  {share:6.1%} of wall")
    lines.append(
        f"    {'untraced':<12} {metrics.get('trace.untraced_s', 0.0) * 1000:10.1f} ms  "
        f"coverage {metrics.get('trace.coverage', 0.0):.1%} of {wall * 1000:.1f} ms wall"
    )
    return lines
