"""The repository benchmark: one command, three workloads, correctness-gated.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gft_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with every tracer off and prints the end-to-end
metrics; ``--trace 1`` makes the traced run instead and prints the
per-layer metrics.  A human-readable report goes to stderr; the last line
of stdout is one JSON object::

    {"correct": true, "attempted": N, "failed": M, "metrics": {name: {"value": v, "unit": u}}}

A failed correctness gate prints ``"correct": false`` with no metrics and
exits with status 1.  Metric names and units are those of
``BENCHMARK.json``; ``perfbench/README.md`` defines each one per workload.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def declared_metrics(section: str) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares in *section*
    (``end_to_end`` or ``per_layer``), in declaration order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


WORKLOADS = ("gft_cold", "mirror_warm", "service_open")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=13, help="world and workload seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small",
        action="store_true",
        help="use WorldConfig.small() (the benchmark's own tests; not a measurement)",
    )
    return parser.parse_args(argv)


def _emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )


def main(argv=None) -> int:
    args = _parse(argv)
    os.chdir(ROOT)  # work paths (and the daemon's socket) are relative to it
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    try:
        from repro.synth.world import WorldConfig

        from perfbench import batch, common, layers, service
        from perfbench.tracer import Tracer
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    config = WorldConfig.small(seed=args.seed) if args.small else WorldConfig(seed=args.seed)
    work = common.WorkDir(ROOT / ".perfbench_work" / str(os.getpid()))
    tracer = Tracer(spill_dir=work.fresh("spill")) if args.trace else None
    run = {"gft_cold": batch.gft_cold, "mirror_warm": batch.mirror_warm,
           "service_open": service.service_open}[args.workload]
    started = time.perf_counter()
    try:
        result = run(config, args.seconds, tracer, work)
    except common.GateFailure as failure:
        print(f"perfbench: correctness gate failed: {failure}", file=sys.stderr)
        _emit(False, 1, 1, {})
        return 1
    finally:
        work.cleanup()
        try:
            work.root.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    end_to_end, per_layer = declared_metrics("end_to_end"), declared_metrics("per_layer")
    setup_s = common.median(result["setup_times"]) + result.get("setup_extra", 0.0)
    e2e = result["e2e"] | {"setup_s": setup_s}
    print(f"[{args.workload} seed={args.seed} trace={args.trace}] "
          f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    for line in result["report"]:
        print(line, file=sys.stderr)
    print(f"  set-up: {', '.join(f'{t:.3f}' for t in result['setup_times'])} s"
          + (f" + {result['setup_extra']:.3f} s seeding" if "setup_extra" in result else ""),
          file=sys.stderr)
    print(f"  failed_frac    {result['failed'] / result['attempted']:14.4f} "
          f"({result['failed']} of {result['attempted']} failed)", file=sys.stderr)
    for name, unit in end_to_end.items():
        print(f"  {name:<14} {e2e[name]:14.4f} {unit}", file=sys.stderr)
    if args.trace:
        trace = result["trace"]
        missing = sorted(set(per_layer) - set(trace))
        for line in layers.self_time_table(trace, result["trace_wall"], result.get("unit", "pass")):
            print(line, file=sys.stderr)
        for name, unit in per_layer.items():
            print(f"  {name:<30} {trace.get(name, 0.0):14.6f} {unit}", file=sys.stderr)
        if missing:
            print(f"  not reached by this workload (reported as 0): {', '.join(missing)}",
                  file=sys.stderr)
        metrics = {name: {"value": trace.get(name, 0.0), "unit": unit} for name, unit in per_layer.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in end_to_end.items()}
    _emit(True, result["attempted"], result["failed"], metrics)
    return 0


if __name__ == "__main__":
    # A terminated run still stops its daemon and removes its work files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
