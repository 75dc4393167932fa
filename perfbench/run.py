"""Benchmark of the cache stack: three workloads behind one command.

    python3 perfbench/run.py --workload etc-singles --seed 0 --seconds 40 --trace 0

Workloads (all closed loop; each takes its seed as an argument and
generates its inputs before timing):

* ``etc-singles`` — ETC-like traffic (97% reads, one block per op, Zipf
  0.99 over 20,000 files x 4 blocks) against two in-process shards with
  2 MB of cache each, on loopback TCP, through one cluster client with 16
  ops in flight.  Mostly misses: the per-request path and opens dominate.
* ``rtdata-resident`` — RTDATA-like traffic (75/25 reads/writes, 1-4
  blocks per op via readv/writev, Zipf 0.8 over 300 files x 4 blocks)
  that fits the 2 x 6.4 MB cache.  Same cluster shape.
* ``paper-mix`` — the paper's din+cs3+gli+ldk mix at 6.4 MB under LRU-SP
  with smart managers, on the simulator.  No server code runs.

A run repeats rounds for ``--seconds`` and reports medians over rounds
(see ``rounds.py``).  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it also runs one traced round and prints the
per-layer ledger (see ``ledger.py``), writing the spans to
``.perfbench/`` in the checkout.  Every round checks the program's output;
a failed check makes ``correct`` false and the exit code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("etc-singles", "rtdata-resident", "paper-mix")

#: end-to-end metrics of the result line: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "ops_per_s": ("ops/s", "higher"),
    "cpu_us_per_op": ("us", "lower"),
    "p50_ms": ("ms", "lower"),
    "p99_ms": ("ms", "lower"),
    "hit_ratio": ("ratio", "higher"),
    "block_ios_per_op": ("ratio", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: end-to-end metrics printed in the table only: ``error_rate`` is 0 on a
#: healthy run and travels in the result line as ``failed``/``attempted``;
#: ``sim_elapsed_s`` exists only where a simulated clock runs (paper-mix)
TABLE_ONLY: Dict[str, Tuple[str, str]] = {
    "error_rate": ("ratio", "lower"),
    "sim_elapsed_s": ("s", "lower"),
}

#: per-layer metrics of a traced run: name -> unit
PER_LAYER: Dict[str, str] = {
    "client.frames_per_op": "1/op",
    "client.opens_per_op": "1/op",
    "client.failed_calls": "count",
    "protocol.sends_per_op": "1/op",
    "protocol.encode_us_per_frame": "us",
    "protocol.decode_us_per_frame": "us",
    "protocol.validate_us_per_req": "us",
    "protocol.json_frames_per_op": "1/op",
    "protocol.busy_us_per_op": "us",
    "cluster.route_us_per_op": "us",
    "daemon.queue_wait_p50_us": "us",
    "daemon.queue_wait_p99_us": "us",
    "daemon.queue_waits": "count",
    "loop.other_us_per_op": "us",
    "service.busy_us_per_op": "us",
    "service.calls_per_op": "1/op",
    "buf.busy_us_per_op": "us",
    "buf.busy_us_per_access": "us",
    "buf.accesses_per_op": "1/op",
    "buf.hit_ratio": "ratio",
    "buf.evictions_per_op": "1/op",
    "buf.writebacks_per_op": "1/op",
    "buf.placeholders_used": "count",
    "acm.busy_us_per_op": "us",
    "acm.consults_per_op": "1/op",
    "acm.busy_us_per_consult": "us",
    "acm.overrule_ratio": "ratio",
    "fs.busy_us_per_op": "us",
    "fs.calls_per_op": "1/op",
    "sim.events_per_op": "1/op",
    "sim.busy_us_per_op": "us",
    "sim.busy_us_per_event": "us",
    "kernel.other_us_per_op": "us",
    "kernel.readahead_used_ratio": "ratio",
    "disk.ios_per_op": "1/op",
    "disk.busy_s": "s",
    "disk.queue_wait_s": "s",
    "trace.cpu_us_per_op": "us",
    "trace.overhead_ratio": "ratio",
    "trace.spans_per_op": "1/op",
}

#: the ledger rows that add up to ``trace.cpu_us_per_op``
LEDGER_ROWS = (
    "cluster.route_us_per_op",
    "protocol.busy_us_per_op",
    "service.busy_us_per_op",
    "buf.busy_us_per_op",
    "acm.busy_us_per_op",
    "fs.busy_us_per_op",
    "sim.busy_us_per_op",
    "kernel.other_us_per_op",
    "loop.other_us_per_op",
)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def round_fn(workload: str, seed: int):
    """The workload's ``tracer -> RoundResult`` round function."""
    if workload == "paper-mix":
        import paper_mix

        return lambda tracer: paper_mix.run_round(seed, tracer)
    import serve_load

    spec = serve_load.SPECS[workload]
    return lambda tracer: serve_load.run_round(spec, seed, tracer)


def end_to_end_table(rounds, medians: Dict[str, float]) -> List[str]:
    samples = sum(r.samples for r in rounds)
    tail = min(r.tail_pct for r in rounds)
    lines = [f"{'metric':<18} {'value':>14}  {'unit':<6} {'better':<7} samples"]
    for name, (unit, better) in {**END_TO_END, **TABLE_ONLY}.items():
        if name not in medians:
            continue
        if name in ("p50_ms", "p99_ms"):
            pct = "p50" if name == "p50_ms" else f"p{tail:g}"
            note = f"{pct} of {samples} ops, median of {len(rounds)} rounds"
        elif name == "peak_rss_mb":
            note = "process peak"
        else:
            note = f"median of {len(rounds)} rounds"
        lines.append(f"{name:<18} {medians[name]:>14.6g}  {unit:<6} {better:<7} {note}")
    return lines


def ledger_table(rows: Dict[str, float]) -> List[str]:
    lines = [f"{'ledger row':<28} {'us/op':>12}"]
    for name in LEDGER_ROWS:
        lines.append(f"{name:<28} {rows[name]:>12.3f}")
    total = sum(rows[name] for name in LEDGER_ROWS)
    lines.append(f"{'sum of rows':<28} {total:>12.3f}")
    lines.append(f"{'trace.cpu_us_per_op':<28} {rows['trace.cpu_us_per_op']:>12.3f}")
    lines.append(f"{'trace.overhead_ratio':<28} {rows['trace.overhead_ratio']:>12.3f}")
    lines.append("")
    lines.append(f"{'per-layer metric':<30} {'value':>14}  unit")
    for name, unit in PER_LAYER.items():
        lines.append(f"{name:<30} {rows[name]:>14.6g}  {unit}")
    return lines


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if not __debug__:
        print("perfbench: output checks need assertions; run without -O", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]

    from ledger import Tracer
    from rounds import median_metrics, run_rounds

    tracer = Tracer() if args.trace else None
    untraced, traced = run_rounds(round_fn(args.workload, args.seed), args.seconds, tracer)
    medians = median_metrics(untraced)
    medians["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_rounds = untraced + traced
    problems = [p for r in all_rounds for p in r.problems]
    attempted = sum(r.attempted for r in untraced)
    failed = sum(r.failed for r in untraced)
    print(f"workload {args.workload}  seed {args.seed}  rounds {len(untraced)} untraced, {len(traced)} traced")
    print("\n".join(end_to_end_table(untraced, medians)))

    if tracer is not None:
        rows = tracer.ledger(medians["cpu_us_per_op"], traced[0].layer_rows)
        print()
        print("\n".join(ledger_table(rows)))
        path = os.path.join(ROOT, ".perfbench", f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        count = tracer.dump(path)
        print(f"{count} spans written to {os.path.relpath(path, ROOT)}")
        metrics = {name: {"value": rows[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {
            name: {"value": medians[name], "unit": unit} for name, (unit, _) in END_TO_END.items()
        }

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
