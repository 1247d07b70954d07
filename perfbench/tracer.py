"""Outside-in span tracer: times the calls into each layer's public functions.

The program's own tracing (``repro.observability``) stays off.  Instead this
module replaces selected public functions and methods with thin wrappers
that record a span -- name, start, end, and the time covered by the spans
nested inside it on the same thread -- so a layer's *self time* is its
span's duration minus its children's.  Nothing under ``src/`` changes: the
wrappers are installed on module and class attributes at run time and
removed again by :meth:`Tracer.uninstall`.

The span name's prefix before the first ``.`` is the layer
(``web``, ``text``, ``classify``, ``core``, ``parallel``, ``persistence``,
``service``).  Spans named ``core.annotate`` are the containers that the
other layers nest in; their self time is the orchestration between layer
calls.

Spans are kept in memory.  Pool workers are forked from the traced
process, so they inherit the installed wrappers; a worker appends its spans
to ``<spill_dir>/<pid>.jsonl`` whenever its outermost span ends (workers
exit through ``os._exit``, so there is no exit hook to rely on), and the
parent reads them back with :meth:`Tracer.collect`.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    """One recorded call."""

    name: str
    start: float
    end: float
    child: float  # seconds covered by directly nested spans
    pid: int
    tid: int
    tags: dict

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_json(self) -> str:
        return json.dumps(
            [self.name, self.start, self.end, self.child, self.pid, self.tid, self.tags]
        )

    @classmethod
    def from_json(cls, line: str) -> "Span":
        name, start, end, child, pid, tid, tags = json.loads(line)
        return cls(name, start, end, child, pid, tid, tags)


class _Frame:
    __slots__ = ("child",)

    def __init__(self) -> None:
        self.child = 0.0


class Tracer:
    """Records spans from wrapped callables while :attr:`enabled` is true.

    Timestamps come from ``time.perf_counter``, which is
    ``CLOCK_MONOTONIC`` on Linux and therefore comparable across the
    processes of one host.
    """

    def __init__(self, spill_dir: Path | None = None) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self.spill_dir = spill_dir
        self._owner = self._pid = os.getpid()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        if os.getpid() != self._pid:
            # A forked worker: forget the parent's spans and open frames.
            self._pid = os.getpid()
            self.spans = []
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, tagger=None, probe=None):
        """*fn* wrapped to record a span called *name*.

        *tagger(args, result)* returns extra tags for the span.  With a
        *probe(args)*, the span is recorded only when the probe's value
        changed across the call (a cache lookup that actually read disk).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            before = probe(args) if probe is not None else None
            stack = tracer._stack()
            frame = _Frame()
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            if probe is not None and probe(args) == before:
                return result
            if stack:
                stack[-1].child += end - start
            tags = tagger(args, result) if tagger is not None else {}
            tracer.spans.append(
                Span(
                    name,
                    start,
                    end,
                    frame.child,
                    tracer._pid,
                    threading.get_ident(),
                    tags,
                )
            )
            if not stack and tracer._pid != tracer._owner:
                tracer._spill()
            return result

        return traced

    def patch(self, owner, attribute: str, name: str, tagger=None, probe=None) -> None:
        """Replace ``owner.attribute`` (a module or class) by its traced wrapper."""
        original = getattr(owner, attribute)
        self._installed.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(original, name, tagger, probe))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed = []

    # -- worker spill ------------------------------------------------------------------

    def _spill(self) -> None:
        if self.spill_dir is None:
            return
        path = self.spill_dir / f"{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(span.to_json() + "\n")
        self.spans = []

    def collect(self) -> list[Span]:
        """Take every span recorded so far, this process's and spilled ones."""
        spans, self.spans = self.spans, []
        if self.spill_dir is not None:
            for path in sorted(self.spill_dir.glob("*.jsonl")):
                with open(path, encoding="utf-8") as handle:
                    spans.extend(Span.from_json(line) for line in handle)
                path.unlink()
        return spans


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark attributes.

    Imports happen here, not at module import, so the benchmark can report
    a missing program cleanly.
    """
    from repro.classify.snippet import SnippetTypeClassifier
    from repro.core import parallel
    from repro.core.annotation import CellAnnotator
    from repro.core.annotator import EntityAnnotator
    from repro.core.preprocessing import Preprocessor
    from repro.persistence import ShardedDiskCacheStore
    from repro.service import protocol
    from repro.service.daemon import AnnotationService
    from repro.text.vectorizer import SnippetVectorizer
    from repro.web import search

    # web: the batched search entry and its BM25 ranking kernels (looked
    # up as module globals of repro.web.search at call time).
    tracer.patch(
        search.SearchEngine,
        "search_many",
        "web.search_many",
        tagger=lambda a, r: {"n_queries": len(a[1])},
    )
    tracer.patch(search, "bm25_norms", "web.rank")
    tracer.patch(search, "bm25_matched_scores", "web.rank")
    # text + classify
    tracer.patch(SnippetVectorizer, "transform", "text.transform")
    tracer.patch(
        SnippetTypeClassifier,
        "classify_many",
        "classify.classify_many",
        tagger=lambda a, r: {"n_snippets": len(a[1])},
    )
    # core.annotation: dedupe, vote, demux over a batch of cells
    tracer.patch(
        CellAnnotator,
        "annotate_values",
        "core.annotate_values",
        tagger=_dedupe_tags,
    )
    # core.annotator: pre- and post-processing, and the entry points
    tracer.patch(Preprocessor, "candidate_cells", "core.prep")
    tracer.patch(EntityAnnotator, "postprocess_table", "core.postprocess")
    for method in ("annotate_table", "annotate_tables", "annotate_table_slice"):
        tracer.patch(
            EntityAnnotator,
            method,
            "core.annotate",
            tagger=lambda a, r, method=method: {"method": method},
        )
    # The daemon's pooled pass; the table ids match it to the requests
    # whose ``service.decode`` span produced those tables.
    tracer.patch(
        EntityAnnotator,
        "annotate_batch",
        "core.annotate",
        tagger=lambda a, r: {"method": "annotate_batch", "tables": [id(t) for t in a[1]]},
    )
    # core.parallel: the pool's entry point (imported lazily by annotate_tables)
    tracer.patch(parallel, "annotate_tables_parallel", "parallel.run")
    # persistence: warm start, save, compaction and lazy bucket reads
    tracer.patch(EntityAnnotator, "load_caches", "persistence.load")
    tracer.patch(EntityAnnotator, "save_caches", "persistence.save")
    tracer.patch(
        EntityAnnotator,
        "compact_caches",
        "persistence.compact",
        tagger=lambda a, r: {"rewritten": sum(v or 0 for v in r.values())},
    )
    tracer.patch(
        ShardedDiskCacheStore,
        "get",
        "persistence.bucket_load",
        probe=lambda a: a[0].loaded_bytes,
    )
    # service: admission (handler thread) and request -> table mapping
    tracer.patch(
        AnnotationService,
        "submit",
        "service.submit",
        tagger=lambda a, r: {"op": a[1].op, "id": a[1].request_id},
    )
    tracer.patch(
        protocol,
        "table_for_request",
        "service.decode",
        tagger=lambda a, r: {"id": a[0].request_id, "table": id(r)},
    )



def _dedupe_tags(args, result) -> dict:
    pairs = args[1]
    queries = {value if context is None else f"{value} {context}" for value, context in pairs}
    return {"n_cells": len(pairs), "n_unique": len(queries)}
