"""The ``service_open`` workload: an open loop against a resident daemon.

The daemon is ``repro.cli serve`` in its own process (hosted by
``perfbench/serve.py``), warm-started from a memory-backend cache directory
seeded with the GFT corpus.  This process is the load generator: a
dispatcher thread releases ``annotate_table`` requests on a fixed schedule
(uniform spacing at the phase's rate), whatever the daemon is doing, and
at most :data:`CONNECTIONS` connection threads carry them.  A request's
latency runs from the moment it was *due*, so time it spent waiting for a
free connection behind a stalled daemon counts; ``lag`` is how late the
dispatcher itself woke.  A request that fails or times out counts as
failed and as missing the latency limit.

An untraced run measures the nominal rate, then a short ladder of higher
rates; a traced run measures the nominal rate twice, first with the
daemon's layer wrappers off and then on.
"""

from __future__ import annotations

import gc
import math
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.annotator import EntityAnnotator
from repro.core.config import AnnotatorConfig
from repro.core.preprocessing import Preprocessor
from repro.service.client import ServiceClient

from perfbench import common, layers, workloads
from perfbench.common import WorkDir, mean, median, percentile
from perfbench.tracer import Span

ROOT = Path(__file__).resolve().parent.parent

CONNECTIONS = min(2, os.cpu_count() or 1)
"""Connections the generator holds open (at most the host's cores)."""

REQUEST_ROWS = 12
REQUEST_FRESH = (2, 3)  # fresh names per request, alternating: ~21 % of rows
NOMINAL_RPS = 12.5
"""Well under capacity (~65 req/s over two connections).  The daemon's
full collections (see :data:`LATENCY_LIMIT_MS`) come about once per ~225
requests and delay the requests behind them; at 12.5 req/s a pause delays
about five, so the nominal p95 (ten requests beyond it in 200) stays the
unpaused tail unless three pauses land in one phase, where at 25 req/s
two pauses in a phase decided it."""
NOMINAL_SHARE = 0.67  # of the measuring time
MIN_NOMINAL_REQUESTS = 200
WARM_UP_REQUESTS = 20
"""Sent at the nominal rate before anything is measured: a freshly loaded
daemon runs one full collection over its new heap within its first ~20
requests, a once-per-start cost that is set-up, not steady state."""
LADDER = ((30.0, 0.2), (45.0, 0.2), (120.0, 0.1))
"""(rate, share of the measuring time) per ladder step.  120 rps is well
above what two connections can carry, so the last step shows the knee."""
LATENCY_LIMIT_MS = 500.0
"""p95 limit a ladder rate must meet for ``max_rate_rps``.  The daemon's
full garbage collections over its warm cache heap pause it for 200-450 ms
about once per ~225 requests; a tighter limit fails whichever short step a
pause happens to land in, so the ladder would measure the collector's
timing."""
BACKLOG_LIMIT = 0.25
"""A step whose dispatch queue still holds more than this share of its
requests when its schedule ends has a growing backlog (one collector pause
leaves a short queue that drains; a rate above capacity leaves a long one)."""
REQUEST_TIMEOUT_S = 10.0
START_TIMEOUT_S = 150.0


@dataclass
class Outcome:
    due: float
    lag: float = 0.0
    sent: float = 0.0
    done: float = math.inf
    answer: object = None
    error: str | None = None

    @property
    def latency(self) -> float:
        return self.done - self.due if self.error is None else math.inf


@dataclass
class Phase:
    label: str
    rate: float
    outcomes: dict[int, Outcome] = field(default_factory=dict)
    backlog: int = 0
    start: float = 0.0
    end: float = 0.0
    stats: dict = field(default_factory=dict)  # daemon counters over the phase

    @property
    def latencies(self) -> list[float]:
        return [outcome.latency for outcome in self.outcomes.values()]

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes.values() if outcome.error is not None)

    def p(self, q: float) -> float:
        return percentile(self.latencies, q) * 1000.0

    def completion_span(self) -> float:
        """Seconds from the first due time to the last reply."""
        done = [o.done for o in self.outcomes.values() if o.error is None]
        first = min(o.due for o in self.outcomes.values())
        return max(done) - first if done else math.inf

    def achieved_rps(self) -> float:
        """Completed requests per second over :meth:`completion_span`."""
        return (len(self.outcomes) - self.failed) / self.completion_span()

    def meets_limit(self) -> bool:
        n = len(self.outcomes)
        return self.p(95) <= LATENCY_LIMIT_MS and self.backlog <= max(2, BACKLOG_LIMIT * n)


class LoadGenerator:
    """Open-loop request dispatch over a fixed set of connections."""

    def __init__(self, socket_path: str) -> None:
        self.socket_path = socket_path
        self.queue: queue.Queue = queue.Queue()
        self.threads = [
            threading.Thread(target=self._connection, daemon=True) for _ in range(CONNECTIONS)
        ]
        for thread in self.threads:
            thread.start()

    def _connect(self) -> ServiceClient | None:
        try:
            return ServiceClient(self.socket_path, timeout=REQUEST_TIMEOUT_S)
        except OSError:
            return None

    def _connection(self) -> None:
        client = self._connect()
        while True:
            item = self.queue.get()
            if item is None:
                break
            outcome, table, finished = item
            outcome.sent = time.perf_counter()
            try:
                if client is None:
                    client = ServiceClient(self.socket_path, timeout=REQUEST_TIMEOUT_S)
                outcome.answer = client.annotate_table(table, workloads.TYPE_KEYS)
            except Exception as error:  # noqa: BLE001 - every failure counts
                outcome.error = f"{type(error).__name__}: {error}"
                if client is not None:
                    client.close()
                client = None
            outcome.done = time.perf_counter()
            finished.release()
        if client is not None:
            client.close()

    def run(self, label: str, tables: list, first: int, rate: float, count: int) -> Phase:
        """Send tables ``first .. first+count-1`` at *rate*; wait for every reply."""
        phase = Phase(label=label, rate=rate)
        finished = threading.Semaphore(0)
        phase.start = time.perf_counter() + 0.05
        for offset in range(count):
            due = phase.start + offset / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcome = Outcome(due=due, lag=time.perf_counter() - due)
            phase.outcomes[first + offset] = outcome
            self.queue.put((outcome, tables[first + offset], finished))
        phase.backlog = self.queue.qsize()
        deadline = time.perf_counter() + REQUEST_TIMEOUT_S * (1 + phase.backlog)
        for _ in range(count):
            if not finished.acquire(timeout=max(0.0, deadline - time.perf_counter())):
                break
        for outcome in phase.outcomes.values():
            if outcome.done == math.inf and outcome.error is None:
                outcome.error = "no reply"
        phase.end = time.perf_counter()
        return phase

    def close(self) -> None:
        for _ in self.threads:
            self.queue.put(None)
        for thread in self.threads:
            thread.join(timeout=REQUEST_TIMEOUT_S + 5)


class Daemon:
    """One ``repro.cli serve`` process, started and stopped by the benchmark."""

    def __init__(self, work: WorkDir, config, cache_dir: Path, traced: bool) -> None:
        home = work.fresh("daemon")
        # Relative: a Unix socket path must stay under ~100 bytes.
        self.socket = os.path.relpath(home / "sock")
        self.log_path = home / "log"
        self.trace_file = home / "trace.jsonl" if traced else None
        command = [sys.executable, str(ROOT / "perfbench" / "serve.py")]
        if traced:
            command += ["--trace-file", str(self.trace_file)]
        command += ["--", "--socket", self.socket, "--seed", str(config.seed),
                    "--cache-dir", str(cache_dir)]
        if common.is_small(config):
            command.append("--small")
        start = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)
        try:
            self._wait_ready()
        except BaseException:
            self.kill()
            raise
        self.start_seconds = time.perf_counter() - start

    def _wait_ready(self) -> None:
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited early:\n{self.log_path.read_text()[-2000:]}")
            try:
                with ServiceClient(self.socket, timeout=START_TIMEOUT_S) as client:
                    client.ping()
                return
            except (FileNotFoundError, ConnectionRefusedError):
                time.sleep(0.01)
        raise RuntimeError(f"daemon not ready after {START_TIMEOUT_S:.0f} s")

    def stats(self) -> dict:
        with ServiceClient(self.socket) as client:
            return client.stats()

    def toggle_tracing(self) -> None:
        self.process.send_signal(signal.SIGUSR1)
        time.sleep(0.2)  # the handler runs at the daemon's next poll tick

    def stop(self) -> float:
        """Shut down through the protocol (drain, flush, exit); returns the
        seconds until the reply, which comes after the flush."""
        with ServiceClient(self.socket) as client:
            start = time.perf_counter()
            client.shutdown()
            seconds = time.perf_counter() - start
        self.process.wait(timeout=120)
        return seconds

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)


def service_open(config, seconds: float, tracer, work: WorkDir) -> dict:
    timeline = common.Timeline()
    setup = common.build_setup(config)
    engine, classifier = setup.world.search_engine, setup.classifier
    corpus = workloads.gft_corpus(setup.world)
    seed_dir = work.fresh("service-seed")
    EntityAnnotator(classifier, engine).annotate_tables(
        corpus.tables, workloads.TYPE_KEYS, cache_dir=seed_dir
    )
    # The reduced test world checks plumbing, not percentiles.
    minimum = 2 if common.is_small(config) else MIN_NOMINAL_REQUESTS
    nominal = max(minimum, round(NOMINAL_RPS * seconds * NOMINAL_SHARE))
    warm_up = ("warm-up", NOMINAL_RPS, 2 if common.is_small(config) else WARM_UP_REQUESTS)
    if tracer is None:
        plan = [warm_up, ("nominal", NOMINAL_RPS, nominal)] + [
            (f"{rate:g} rps", rate, max(2, round(rate * share * seconds))) for rate, share in LADDER
        ]
    else:  # wrappers off, then on: half the nominal requests each
        half = max(2, nominal // 2)
        plan = [warm_up, ("untraced", NOMINAL_RPS, half), ("traced", NOMINAL_RPS, half)]
    inputs = workloads.mirrored_tables(
        setup.world, corpus, "request", sum(n for _, _, n in plan), REQUEST_ROWS, REQUEST_FRESH
    )
    tables = inputs.tables
    timeline.mark("generator world, seeding, inputs")

    # Set-up, repeated: start a daemon until it answers.  Daemons are
    # killed when done (the warm state they would flush is the benchmark's
    # own); a traced one is shut down so it can write its spans.
    starts = []
    daemon = None
    # The generator's own heap (its world) is no business of the daemon's
    # latency: keep the collector from pausing the dispatcher over it.
    gc.collect()
    gc.freeze()
    try:
        for attempt in range(common.SETUP_REPEATS):
            serving = attempt == common.SETUP_REPEATS - 1
            daemon = Daemon(work, config, seed_dir, traced=tracer is not None and serving)
            starts.append(daemon.start_seconds)
            if not serving:
                daemon.kill()
                daemon = None
        timeline.mark("daemon starts and stops")
        phases = _drive(daemon, tables, plan, toggles={"warm-up", "traced"})
        timeline.mark("load")
        rss_mb = common.process_peak_rss_mb(daemon.process.pid)
        stats = daemon.stats()
        trace_file = daemon.trace_file
        if trace_file is not None:  # it must exit by itself to write its spans
            shutdown_s = daemon.stop()
    finally:
        gc.unfreeze()
        if daemon is not None:
            daemon.kill()

    # Correctness: every answer equals the in-process annotate_table answer
    # of an annotator as warm as the daemon was.
    reference = EntityAnnotator(classifier, engine)
    reference.load_caches(seed_dir)
    answered, failed, sent = [], 0, 0
    for phase in phases:
        for index, outcome in phase.outcomes.items():
            sent += 1
            if outcome.error is not None:
                failed += 1
                continue
            want = common.digest([reference.annotate_table(tables[index], workloads.TYPE_KEYS)])
            common.check_identical(f"service_open request {index}", common.digest([outcome.answer]), want)
            answered.append(outcome.answer)
    gold = inputs.gold
    f1 = common.micro_f1(answered, gold)
    timeline.mark("final stop, reference answers")

    # compact_s: the service's warm state written out through the memory
    # backend, as the daemon's flush does.  The daemon's own shutdown flush
    # merges into the seeded file, and the 2-3 full collections that
    # unpickling the old file triggers swing it by +-30 % from run to run.
    saves = common.timed_saves(reference, work, "service-save")
    timeline.mark("warm-state saves")

    first = phases[1]  # the nominal rate (untraced in a traced run)
    passing = [phase for phase in phases[2:] if phase.meets_limit()] if tracer is None else []
    top = passing[-1] if passing else first
    preprocessor = Preprocessor(AnnotatorConfig())
    nominal_cells = sum(
        len(preprocessor.candidate_cells(tables[index]))
        for index, outcome in first.outcomes.items()
        if outcome.error is None
    )
    report = [
        f"  shape: {len(tables)} request tables of {REQUEST_ROWS} rows, "
        f"{inputs.fresh_names} fresh names ({inputs.fresh_names / inputs.n_rows:.1%} of rows); "
        f"{CONNECTIONS} connections, uniform arrivals, latency limit p95 <= {LATENCY_LIMIT_MS:.0f} ms",
    ]
    for phase in phases:
        report.append(
            f"  {phase.label:>8} at {phase.rate:5.1f} rps: {len(phase.outcomes)} sent, {phase.failed} failed, "
            f"p50 {phase.p(50):7.1f} ms, p95 {phase.p(95):7.1f} ms, max {phase.p(100):7.1f} ms, "
            f"lag p95 {percentile([o.lag for o in phase.outcomes.values()], 95) * 1000:.2f} ms, "
            f"backlog {phase.backlog}, achieved {phase.achieved_rps():.2f} rps"
            + ("" if phase in phases[:2] or tracer is not None else
               ("  meets limit" if phase.meets_limit() else "  misses limit"))
        )
    report.append(timeline.line())
    report.append(f"  warm-state saves {', '.join(f'{t:.3f}' for t in saves)} s")
    if trace_file is not None:
        report.append(
            f"  daemon shutdown (drain + merge-save into the seeded directory): {shutdown_s:.3f} s"
        )
    report.append(
        f"  daemon: {stats['requests']} requests in {stats['batches']} batches "
        f"(mean batch {stats['mean_batch_size']:.2f}), loaded {stats['cache_load_bytes']} bytes"
    )
    result = {
        "setup_times": starts,
        "e2e": {
            "cells_per_s": nominal_cells / sum(first.latencies),
            "compact_s": median(saves),
            "lat_p50_ms": first.p(50),
            "lat_p95_ms": first.p(95),
            "max_rate_rps": top.achieved_rps() if top.meets_limit() else 0.0,
            "rss_peak_mb": rss_mb,
            "f1": f1,
        },
        "attempted": sent,
        "failed": failed,
        "report": report,
        "unit": "request",
    }
    if tracer is not None:
        spans = _read_spans(trace_file)
        result["trace"] = _service_trace(spans, phases, stats)
        result["trace_wall"] = mean(phases[2].latencies)
    return result


def _drive(daemon: Daemon, tables: list, plan, toggles: set[str]) -> list[Phase]:
    """Run the plan's phases in order; a traced daemon's wrappers flip
    (off, then on again) before each phase named in *toggles*."""
    generator = LoadGenerator(daemon.socket)
    phases: list[Phase] = []
    try:
        first = 0
        for step, (label, rate, count) in enumerate(plan):
            if daemon.trace_file is not None and label in toggles:
                daemon.toggle_tracing()
            before = daemon.stats()
            phase = generator.run(label, tables, first, rate, count)
            after = daemon.stats()
            phase.stats = {
                key: after[key] - before[key]
                for key, value in after.items()
                if isinstance(value, (int, float)) and key in before
            }
            phases.append(phase)
            first += count
            if step > 1 and not phase.meets_limit():
                break  # the ladder stops at the first rate that misses
            time.sleep(0.2)
    finally:
        generator.close()
    return phases


def _read_spans(path: Path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span.from_json(line) for line in handle]


def _service_trace(spans: list[Span], phases: list[Phase], stats: dict) -> dict[str, float]:
    """Per-layer numbers of the traced nominal phase, per request."""
    _, untraced, traced = phases
    window = [s for s in spans if traced.start - 0.1 <= s.start <= traced.end]
    n = len(traced.outcomes)
    metrics = {
        key: value / n if key.endswith("_s") else value
        for key, value in layers.compute_metrics(window).items()
    }
    # persistence is on the daemon's set-up and shutdown, not per request.
    metrics["persistence.load_s"] = layers.total(spans, "persistence.load")
    metrics["persistence.save_s"] = layers.total(spans, "persistence.save")
    metrics["persistence.bytes_loaded"] = float(stats["cache_load_bytes"])
    submits = [s for s in window if s.name == "service.submit" and s.tags.get("op") == "annotate_table"]
    # Request ids are per connection; a connection's requests share its
    # handler thread, so (thread, id) names one request.
    decodes = {(s.tid, s.tags["id"]): s for s in window if s.name == "service.decode"}
    batches = sorted(
        (s for s in window if s.name == "core.annotate" and s.tags.get("method") == "annotate_batch"),
        key=lambda s: s.start,
    )
    waits = []
    for submit in submits:
        decoded = decodes.get((submit.tid, submit.tags["id"]))
        if decoded is None:
            continue
        for batch in batches:
            if batch.start >= decoded.start and decoded.tags["table"] in batch.tags["tables"]:
                waits.append(batch.start - submit.start)
                break
    delta = traced.stats
    results = delta["results_cache_hits"] + delta["results_cache_misses"]
    memo = delta["label_memo_hits"] + delta["label_memo_misses"]
    metrics["web.queries_per_cell"] = delta["queries_issued"] / delta["cells"] if delta["cells"] else 0.0
    metrics["web.results_hit_ratio"] = delta["results_cache_hits"] / results if results else 0.0
    metrics["core.label_memo_hit_ratio"] = delta["label_memo_hits"] / memo if memo else 0.0
    ok = [o for o in traced.outcomes.values() if o.error is None]
    metrics["service.queue_wait_ms"] = median(waits) * 1000.0
    metrics["service.pass_ms"] = median(b.duration for b in batches) * 1000.0
    metrics["service.batch_size"] = mean(len(b.tags["tables"]) for b in batches)
    metrics["service.wire_ms"] = (
        mean(o.done - o.sent for o in ok) - mean(s.duration for s in submits)
    ) * 1000.0
    metrics["loadgen.lag_p95_ms"] = percentile([o.lag for o in traced.outcomes.values()], 95) * 1000.0
    covered = sum(s.duration for s in submits)
    total_latency = sum(o.latency for o in ok)
    metrics["trace.coverage"] = covered / total_latency if total_latency else 0.0
    metrics["trace.untraced_s"] = max(0.0, total_latency - covered) / n
    metrics["trace.overhead_ratio"] = traced.p(50) / untraced.p(50) - 1.0
    return metrics
