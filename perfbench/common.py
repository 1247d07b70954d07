"""Shared pieces of the benchmark: set-up, correctness gates and statistics."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.classify.snippet import SnippetTypeClassifier
from repro.core.training import TrainingCorpusBuilder
from repro.eval.evaluator import evaluate_annotations
from repro.service.protocol import annotation_to_payload
from repro.synth.types import TYPE_SPECS
from repro.synth.world import SyntheticWorld, WorldConfig, clear_world_cache

SETUP_REPEATS = 3
"""How many times a run builds its world and classifier; ``setup_s`` is
the median."""


class GateFailure(Exception):
    """A correctness gate failed: the run reports no numbers."""


def is_small(config: WorldConfig) -> bool:
    """Whether *config* is the reduced test world (``WorldConfig.small``)."""
    return config == WorldConfig.small(seed=config.seed)


@dataclass
class Setup:
    """What every workload starts from: the world and its SVM classifier."""

    world: SyntheticWorld
    classifier: SnippetTypeClassifier


def build_setup(config: WorldConfig) -> Setup:
    """Build the world and train the snippet classifier, bypassing caches."""
    clear_world_cache()
    world = SyntheticWorld.build(config)
    builder = TrainingCorpusBuilder(world.kb, world.search_engine, seed=config.seed)
    train, _, _ = builder.build_split(list(TYPE_SPECS))
    classifier = SnippetTypeClassifier(backend="svm").fit(train)
    clear_world_cache()  # the caller owns the only reference
    return Setup(world=world, classifier=classifier)


def repeated_setup(config: WorldConfig, repeats: int = SETUP_REPEATS) -> tuple[Setup, list[float]]:
    """Build the set-up *repeats* times; returns the last one and every time."""
    times: list[float] = []
    setup = None
    for _ in range(repeats):
        setup = None
        gc.collect()
        start = time.perf_counter()
        setup = build_setup(config)
        times.append(time.perf_counter() - start)
    assert setup is not None
    return setup, times


def timed_saves(annotator, work: "WorkDir", label: str) -> list[float]:
    """Seconds for :data:`SETUP_REPEATS` saves of *annotator*'s caches.

    Each save goes to a fresh directory after a collection, so every
    sample writes the same state from the same collector state: saved
    straight after a pass, a save runs into whichever full collections
    the pass left pending and swings by +-30 %.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        target = work.fresh(label)
        gc.collect()
        start = time.perf_counter()
        annotator.save_caches(target)
        times.append(time.perf_counter() - start)
    return times


# -- correctness -----------------------------------------------------------------------


def canonical(annotations) -> bytes:
    """Byte form of a sequence of table annotations (cells, scores, degraded)."""
    payload = [annotation_to_payload(annotation) for annotation in annotations]
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def digest(annotations) -> str:
    return hashlib.sha256(canonical(annotations)).hexdigest()


def check_identical(label: str, got: str, want: str) -> None:
    """The byte-identity gate between two digests of :func:`canonical`."""
    if got != want:
        raise GateFailure(f"{label}: output differs from its reference ({got[:12]} != {want[:12]})")


def micro_f1(annotations, gold) -> float:
    cells = [cell for annotation in annotations for cell in annotation.cells]
    keys = [spec.key for spec in TYPE_SPECS]
    return evaluate_annotations(cells, gold, keys).micro_f1()


def degraded_cells(annotations) -> int:
    return sum(len(annotation.degraded) for annotation in annotations)


# -- statistics --------------------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (failed requests) sort last."""
    ordered = sorted(values)
    if not ordered:
        return math.inf
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class Timeline:
    """Wall-clock marks of a run's stages, for the report."""

    def __init__(self) -> None:
        self._marks = [("start", time.perf_counter())]

    def mark(self, label: str) -> None:
        self._marks.append((label, time.perf_counter()))

    def line(self) -> str:
        stages = zip(self._marks, self._marks[1:])
        return "  timeline: " + ", ".join(
            f"{label} {end - begin:.1f} s" for (_, begin), (label, end) in stages
        )


# -- memory and files --------------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """This process's peak resident set size."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, 0 if unknown."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_bytes(path: Path) -> int:
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


@dataclass
class WorkDir:
    """A working directory inside the repository, removed on exit."""

    root: Path
    _count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)

    def fresh(self, prefix: str) -> Path:
        self._count += 1
        path = self.root / f"{prefix}-{self._count}"
        path.mkdir()
        return path

    def copy(self, source: Path, prefix: str) -> Path:
        self._count += 1
        path = self.root / f"{prefix}-{self._count}"
        shutil.copytree(source, path)
        return path

    def cleanup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class Deleter:
    """Removes directories on a background thread.

    On ext4, removing a file that was renamed over an existing one (what a
    disk-store compaction leaves behind) waits for a journal flush, ~70 ms
    a file on the reference host -- seconds per compacted store, longer
    than the pass that made it.  The deletions are I/O waits, so they run
    beside the next pass instead of between passes; :meth:`finish` waits
    for the rest.
    """

    def __init__(self) -> None:
        self._queue: list[Path] = []
        self._wake = threading.Condition()
        self._closed = False
        self._thread = threading.Thread(target=self._run, name="perfbench-deleter", daemon=True)
        self._thread.start()

    def delete(self, path: Path) -> None:
        with self._wake:
            self._queue.append(path)
            self._wake.notify()

    def _run(self) -> None:
        while True:
            with self._wake:
                while not self._queue and not self._closed:
                    self._wake.wait()
                if not self._queue:
                    return
                path = self._queue.pop(0)
            shutil.rmtree(path, ignore_errors=True)

    def finish(self) -> None:
        with self._wake:
            self._closed = True
            self._wake.notify()
        self._thread.join()
