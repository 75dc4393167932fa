"""The traced run: wrappers come and go, and the ledger adds up."""

import json
import os
import time

import pytest

import run
from ledger import TARGETS, Tracer

from repro.harness.runner import app
from repro.kernel.system import MachineConfig, System


def _originals():
    return [
        owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        for owner, attr, _, _ in TARGETS
    ]


def _small_run(tracer):
    tracer.install()
    tracer.begin()
    cpu0 = time.process_time()
    try:
        system = System(MachineConfig(cache_mb=0.25, sanitize=False, telemetry=False))
        app("din", trace_blocks=64, passes=2).build().spawn(system)
        result = system.run()
    finally:
        tracer.end(result.cache.accesses, time.process_time() - cpu0)
        tracer.uninstall()
    return system, result


def test_uninstall_restores_every_entry_point():
    before = _originals()
    tracer = Tracer()
    tracer.install()
    assert all(a is not b for a, b in zip(before, _originals()))
    tracer.uninstall()
    assert all(a is b for a, b in zip(before, _originals()))


def test_ledger_rows_add_up_to_the_traced_cpu_time():
    tracer = Tracer()
    system, result = _small_run(tracer)
    rows = tracer.ledger(untraced_cpu_us_per_op=1.0, extra={})
    total = sum(rows[name] for name in run.LEDGER_ROWS)
    assert total == pytest.approx(rows["trace.cpu_us_per_op"])
    assert rows["buf.accesses_per_op"] == 1.0
    assert rows["buf.hit_ratio"] == pytest.approx(result.cache.hit_ratio)
    assert rows["sim.events_per_op"] * result.cache.accesses == system.engine.events_fired
    assert rows["acm.consults_per_op"] * result.cache.accesses == result.cache.consultations
    assert rows["client.frames_per_op"] == 0.0


def test_spans_of_a_window_nest_under_their_caller():
    tracer = Tracer()
    _small_run(tracer)
    names = tracer.names
    steps = [i for i, n in enumerate(tracer.span_name) if names[n] == "sim.step"]
    run_span = tracer.span_parent[steps[0]]
    assert names[tracer.span_name[run_span]] == "kernel.run"
    assert all(tracer.span_parent[i] == run_span for i in steps)
    assert all(s <= e for s, e in zip(tracer.span_start, tracer.span_end))


def test_benchmark_record_matches_what_the_benchmark_prints():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path) as f:
        record = json.load(f)
    assert [w["name"] for w in record["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in record["end_to_end"]}
    assert e2e == run.END_TO_END
    layers = {m["name"]: m["unit"] for m in record["per_layer"]}
    assert layers == run.PER_LAYER
