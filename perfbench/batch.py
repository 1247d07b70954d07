"""The batch workloads: ``gft_cold`` and ``mirror_warm``.

Both annotate a corpus in passes for the run's measuring time and time each
pass from outside the program.  A traced run alternates untraced and traced
passes: the traced ones give the per-layer numbers, the pair of medians the
tracing overhead.
"""

from __future__ import annotations

import gc
import os
import shutil
import threading
import time

from repro.core.annotator import EntityAnnotator
from repro.core.config import AnnotatorConfig

from perfbench import common, layers, workloads
from perfbench.common import WorkDir, median, percentile
from perfbench.tracer import Tracer, install_layer_wrappers

MIN_PASSES = 3
"""Passes of each kind (untraced, traced) a run makes however short it is:
a ``mirror_warm`` pass and its compaction take ~4 s, so a short run
would otherwise report the mean of two."""


class Passes:
    """Runs passes until the measuring time is spent, tracing every other one."""

    def __init__(self, seconds: float, tracer: Tracer | None) -> None:
        self.deadline = time.perf_counter() + seconds
        self.tracer = tracer
        self.walls: list[float] = []  # untraced pass wall times
        self.traced_walls: list[float] = []
        self.traced_metrics: list[dict[str, float]] = []

    def __iter__(self):
        index = 0
        while True:
            traced = self.tracer is not None and index % 2 == 1
            done = len(self.traced_walls if traced else self.walls)
            others = len(self.walls if traced else self.traced_walls)
            if time.perf_counter() >= self.deadline and done >= MIN_PASSES and (
                self.tracer is None or others >= MIN_PASSES
            ):
                return
            if traced:
                install_layer_wrappers(self.tracer)
                self.tracer.enabled = True
            try:
                yield traced
            finally:
                if traced:
                    self.tracer.enabled = False
                    self.tracer.uninstall()
            index += 1

    def record(self, traced: bool, wall: float, metrics: dict[str, float] | None) -> None:
        if traced:
            self.traced_walls.append(wall)
            self.traced_metrics.append(metrics or {})
        else:
            self.walls.append(wall)

    def trace_summary(self) -> dict[str, float]:
        folded = layers.fold(self.traced_metrics)
        if self.traced_walls and self.walls:
            folded["trace.overhead_ratio"] = median(self.traced_walls) / median(self.walls) - 1.0
        return folded


def _pass_trace(spans, wall: float, diagnostics) -> dict[str, float]:
    metrics = layers.compute_metrics(spans)
    metrics.update(layers.diagnostics_metrics(diagnostics))
    busiest = max((load.busy_seconds for load in diagnostics.worker_loads), default=None)
    metrics["parallel.overhead_s"] = 0.0 if busiest is None else wall - busiest
    covered = layers.root_time(spans, os.getpid(), threading.get_ident())
    metrics["trace.coverage"] = covered / wall if wall else 0.0
    metrics["trace.untraced_s"] = max(0.0, wall - covered)
    return metrics


def _batch_e2e(walls, n_cells: int, n_tables: int, compact: list[float]) -> dict[str, float]:
    pass_s = median(walls)
    return {
        "cells_per_s": n_cells / pass_s,
        "compact_s": median(compact),
        "lat_p50_ms": pass_s * 1000.0,
        "lat_p95_ms": percentile(walls, 95) * 1000.0,
        "max_rate_rps": n_tables / pass_s,
    }


def gft_cold(config, seconds: float, tracer: Tracer | None, work: WorkDir) -> dict:
    """One-shot CLI runs over the 40-table GFT corpus, every cache cold.

    A pass resets the engine's compute caches, then a fresh annotator does
    what ``annotate_tables(workers=1, cache_dir=<empty dir>)`` does --
    ``load_caches``, the corpus pass, ``save_caches`` through the memory
    backend.  ``compact_s`` times that save again on the last pass's
    state (:func:`~perfbench.common.timed_saves`).
    """
    timeline = common.Timeline()
    setup, setup_times = common.repeated_setup(config)
    timeline.mark("set-up")
    engine, classifier = setup.world.search_engine, setup.classifier
    corpus = workloads.gft_corpus(setup.world)
    tables, keys = corpus.tables, workloads.TYPE_KEYS

    # Reference: per-table annotate_table on a fresh, cold annotator.  It
    # classifies the same snippets as a pass, so it also fills the
    # process-lifetime text memos once, as in any long batch process.
    engine.reset_compute_caches()
    reference_annotator = EntityAnnotator(classifier, engine)
    reference = [reference_annotator.annotate_table(table, keys) for table in tables]
    want = common.digest(reference)
    timeline.mark("reference")

    def one_pass():
        engine.reset_compute_caches()
        cache_dir = work.fresh("gft-cache")
        annotator = EntityAnnotator(classifier, engine)
        gc.collect()  # every pass starts from the same collector state
        start = time.perf_counter()
        annotator.load_caches(cache_dir)
        run = annotator.annotate_tables(tables, keys)
        annotator.save_caches(cache_dir)
        return time.perf_counter() - start, run, cache_dir, annotator

    passes = Passes(seconds, tracer)
    n_cells = attempted = failed = 0
    last_dir = None
    for traced in passes:
        wall, run, cache_dir, annotator = one_pass()
        annotations = list(run.tables.values())
        common.check_identical("gft_cold pass", common.digest(annotations), want)
        n_cells = run.diagnostics.n_cells
        attempted += n_cells
        failed += common.degraded_cells(annotations)
        metrics = None
        if traced:
            metrics = _pass_trace(tracer.collect(), wall, run.diagnostics)
            metrics["persistence.bytes_written"] = float(common.tree_bytes(cache_dir))
        passes.record(traced, wall, metrics)
        if last_dir is not None:
            shutil.rmtree(last_dir)
        last_dir = cache_dir
    f1 = common.micro_f1(annotations, corpus.gold)
    timeline.mark("passes")
    compact = common.timed_saves(annotator, work, "gft-save")
    timeline.mark("saves")

    report = [
        f"  shape: {len(tables)} tables, {corpus.n_rows_total} rows, {n_cells} candidate cells, "
        f"{run.diagnostics.queries_issued} distinct queries, 0 fresh names",
        f"  passes: {len(passes.walls)} untraced, {len(passes.traced_walls)} traced; "
        f"pass wall median {median(passes.walls):.3f} s",
    ]
    if tracer is None:
        report.append(timeline.line())
    result = {
        "setup_times": setup_times,
        "e2e": _batch_e2e(passes.walls, n_cells, len(tables), compact)
        | {"f1": f1, "rss_peak_mb": common.self_peak_rss_mb()},
        "attempted": attempted,
        "failed": failed,
        "report": report,
    }
    if tracer is not None:
        trace = passes.trace_summary() | {"persistence.buckets_rewritten": 0.0, "persistence.n_buckets": 0.0}
        # Warm start from the memory backend (load, run, merge-save) for
        # comparison with the cold pass: traced, so the split shows.
        warm_dir = last_dir
        engine.reset_compute_caches()
        annotator = EntityAnnotator(classifier, engine)
        install_layer_wrappers(tracer)
        tracer.enabled = True
        start = time.perf_counter()
        annotator.annotate_tables(tables, keys, cache_dir=warm_dir)
        warm_wall = time.perf_counter() - start
        tracer.enabled = False
        tracer.uninstall()
        spans = tracer.collect()
        report.append(
            f"  warm start from the memory backend: {warm_wall:.3f} s "
            f"(load {layers.total(spans, 'persistence.load'):.3f} s, "
            f"save {layers.total(spans, 'persistence.save'):.3f} s) "
            f"vs cold traced pass {median(passes.traced_walls):.3f} s"
        )
        timeline.mark("warm start")
        report.append(timeline.line())
        result["trace"] = trace
        result["trace_wall"] = median(passes.traced_walls)
    return result


MIRROR_TABLES = 60
MIRROR_ROWS = 80
MIRROR_FRESH = (8,)  # fresh names per 80-row table: 10 %
MIRROR_WORKERS = 2
MIRROR_BUCKETS = 16
"""Hash buckets per disk store (the CLI default is 64).  Every pass's
compaction rewrites all of them, and each rewritten file costs ~70 ms to
delete afterwards on ext4 (see :class:`~perfbench.common.Deleter`); 16
keeps the clean-up of a pass shorter than the pass."""


def mirror_warm(config, seconds: float, tracer: Tracer | None, work: WorkDir) -> dict:
    """A mirrored corpus over a warm shared disk store, on the worker pool.

    Set-up adds seeding: one cold GFT run with the disk backend, then
    compaction.  Each pass starts from a fresh copy of that store, runs
    ``annotate_tables(workers=2, cache_dir=copy)`` on a fresh annotator
    over a reset engine, then ``compact_caches()`` (timed as
    ``compact_s``).
    """
    timeline = common.Timeline()
    setup, setup_times = common.repeated_setup(config)
    timeline.mark("set-up")
    engine, classifier = setup.world.search_engine, setup.classifier
    corpus = workloads.gft_corpus(setup.world)
    disk = AnnotatorConfig(cache_backend="disk", cache_buckets=MIRROR_BUCKETS)
    seed_dir = work.fresh("mirror-seed")
    start = time.perf_counter()
    engine.reset_compute_caches()
    seeder = EntityAnnotator(classifier, engine, disk)
    seeder.annotate_tables(corpus.tables, workloads.TYPE_KEYS, cache_dir=seed_dir)
    seeder.compact_caches()
    seed_seconds = time.perf_counter() - start
    engine.detach_results_store()
    timeline.mark("seeding")
    inputs = workloads.mirrored_tables(
        setup.world, corpus, "mirror", MIRROR_TABLES, MIRROR_ROWS, MIRROR_FRESH
    )
    tables, keys = inputs.tables, workloads.TYPE_KEYS

    def one_pass(workers: int, compact: bool = True, traced: bool = False):
        cache_dir = work.copy(seed_dir, "mirror-cache")
        engine.reset_compute_caches()
        engine.detach_results_store()
        annotator = EntityAnnotator(classifier, engine, disk)
        gc.collect()  # every pass starts from the same collector state
        start = time.perf_counter()
        run = annotator.annotate_tables(tables, keys, workers=workers, cache_dir=cache_dir)
        ran = time.perf_counter()
        # The pass's spans only: compaction is measured as its own metric.
        spans = tracer.collect() if traced else None
        written = common.tree_bytes(cache_dir)
        compact_start = time.perf_counter()
        compacted = annotator.compact_caches() if compact else {}
        end = time.perf_counter()
        if traced:
            tracer.collect()
        return run, ran - start, end - compact_start, compacted, written, cache_dir, spans

    # Reference: the same pass in-process (workers=1).
    deleter = common.Deleter()
    run, workers1_wall, _, _, _, cache_dir, _ = one_pass(1, compact=False)
    want = common.digest(run.tables.values())
    deleter.delete(cache_dir)
    seed_bytes = common.tree_bytes(seed_dir)
    timeline.mark("reference")

    passes = Passes(seconds, tracer)
    compact: list[float] = []
    attempted = failed = 0
    peak_workers_mb = 0.0
    try:
        for traced in passes:
            run, wall, compact_s, compacted, written, cache_dir, spans = one_pass(
                MIRROR_WORKERS, traced=traced
            )
            annotations = list(run.tables.values())
            common.check_identical("mirror_warm pass (workers=2 vs workers=1)", common.digest(annotations), want)
            attempted += run.diagnostics.n_cells
            failed += common.degraded_cells(annotations)
            peak_workers_mb = max(
                peak_workers_mb,
                sum(load.peak_rss_kb for load in run.diagnostics.worker_loads) / 1024.0,
            )
            metrics = None
            if traced:
                metrics = _pass_trace(spans, wall, run.diagnostics)
                metrics["persistence.bytes_written"] = float(max(0, written - seed_bytes))
                metrics["persistence.buckets_rewritten"] = float(sum(v or 0 for v in compacted.values()))
                metrics["persistence.n_buckets"] = float(len(compacted) * disk.cache_buckets)
            else:
                compact.append(compact_s)
            passes.record(traced, wall, metrics)
            deleter.delete(cache_dir)
        timeline.mark("passes")
    finally:
        deleter.finish()
    timeline.mark("clean-up")
    f1 = common.micro_f1(annotations, inputs.gold)
    diagnostics = run.diagnostics
    report = [
        f"  shape: {len(tables)} tables, {inputs.n_rows} rows, {diagnostics.n_cells} candidate cells, "
        f"{len(set(c for t in tables for r in t.rows for c in r[:1]))} distinct names, "
        f"{inputs.fresh_names} fresh names ({inputs.fresh_names / inputs.n_rows:.1%} of rows)",
        f"  pool: {diagnostics.queries_issued} queries issued at workers={MIRROR_WORKERS} "
        f"(per-task dedupe); buckets rewritten by compaction: "
        f"{sum(v or 0 for v in compacted.values())}",
        f"  passes: {len(passes.walls)} untraced, {len(passes.traced_walls)} traced; "
        f"pass wall median {median(passes.walls):.3f} s at workers={MIRROR_WORKERS}, "
        f"{workers1_wall:.3f} s at workers=1 (one reference pass)",
        timeline.line(),
    ]
    result = {
        "setup_times": setup_times,
        "setup_extra": seed_seconds,
        "e2e": _batch_e2e(passes.walls, diagnostics.n_cells, len(tables), compact)
        | {"f1": f1, "rss_peak_mb": common.self_peak_rss_mb() + peak_workers_mb},
        "attempted": attempted,
        "failed": failed,
        "report": report,
    }
    if tracer is not None:
        result["trace"] = passes.trace_summary()
        result["trace_wall"] = median(passes.traced_walls)
    return result
