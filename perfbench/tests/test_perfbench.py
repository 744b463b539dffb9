"""The benchmark's own tests: generators, oracle runs, tracing hygiene.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.sql.parser import fingerprint_sql, parse_query

from perfbench import hostspeed, layers, run, service, workloads
from perfbench.layers import Span, aggregate, busy_ns


@pytest.fixture(scope="module")
def table():
    return service.make_table()


@pytest.fixture(autouse=True)
def one_setup_round(monkeypatch):
    monkeypatch.setattr(run, "SETUP_ROUNDS", 1)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generators_are_deterministic_and_parse(table, name):
    first = workloads.generate(name, table, seed=5)
    assert workloads.generate(name, table, seed=5) == first
    assert workloads.generate(name, table, seed=6).statements \
        != first.statements
    assert len(set(first.statements)) == workloads.POOL_SIZE
    assert min(first.truths) >= 1
    for sql in first.statements:
        parse_query(sql)
    covered = {i for request in first.requests for i in request}
    assert covered == set(range(workloads.POOL_SIZE))


def test_conjunctive_pools_use_the_templates(table):
    pool = workloads.generate("batch-conj", table, seed=5)
    fingerprints = {fingerprint_sql(sql)[0] for sql in pool.statements}
    assert len(fingerprints) == workloads.TEMPLATES
    assert all(len(request) == 64 for request in pool.requests)


def test_mixed_pool_never_reuses_a_template(table):
    pool = workloads.generate("mixed-feedback", table, seed=5)
    fingerprints = {fingerprint_sql(sql)[0] for sql in pool.statements}
    assert len(fingerprints) == workloads.POOL_SIZE
    # Fresh literals keep every fixed shape's template.
    assert fingerprints == {fingerprint_sql(shape.to_sql())[0]
                            for shape in workloads._mixed_shapes(table)}
    assert any(" OR " in sql for sql in pool.statements)


def test_point_repeat_share_and_reach(table):
    pool = workloads.generate("point-conj", table, seed=5)
    cache_size = service.serve_defaults()["cache_size"]
    last_seen: dict[tuple[int, ...], int] = {}
    repeats = 0
    for position, request in enumerate(pool.requests):
        if request in last_seen:
            repeats += 1
            distance = position - last_seen[request]
            assert workloads.REPEAT_MIN_DISTANCE <= distance \
                <= workloads.REPEAT_MAX_DISTANCE
        last_seen[request] = position
    share = repeats / len(pool.requests)
    assert abs(share - workloads.REPEAT_SHARE) < 0.03
    # A repeat is always inside the estimate cache's reach, and a fresh
    # statement met again on the next pass is always out of it.
    assert workloads.REPEAT_MAX_DISTANCE < cache_size
    assert workloads.POOL_SIZE > cache_size


def _traced_targets():
    return [(owner, attribute, vars(owner)[attribute])
            for owner, attribute, _, _ in layers._targets()]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_short_run_is_correct(name):
    result = run.run_workload(name, seed=3, seconds=1.0, trace=False)
    assert result["correct"]
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_restores_and_self_time_fits_busy_time(name):
    originals = _traced_targets()
    result = run.run_workload(name, seed=3, seconds=1.0, trace=True)
    assert result["correct"] and result["failed"] == 0
    for owner, attribute, original in originals:
        assert vars(owner)[attribute] is original, attribute
    spans = _read_spans(run.OUT_DIR / f"spans-{name}.jsonl")
    stats = aggregate(spans)
    assert stats["loadgen.request"].calls > 0
    assert all(layer.self_ns >= 0 for layer in stats.values())
    assert sum(layer.self_ns for layer in stats.values()) <= busy_ns(spans)


def test_recorder_restores_captured_bound_methods(table, tmp_path):
    deployment = service.deploy(False, tmp_path / "model.npz")
    live = deployment.service
    before = (live._estimate_batch, live.batcher._estimate_batch)
    try:
        recorder = layers.SpanRecorder()
        recorder.install([live])
        assert live.batcher._estimate_batch is not before[1]
        recorder.restore()
    finally:
        deployment.stop()
    assert (live._estimate_batch, live.batcher._estimate_batch) == before


def test_host_speed_probe_samples_and_stops():
    speed = hostspeed.HostSpeed()
    with speed:
        process = speed._process
        time.sleep(0.5)  # interpreter start-up of the probe process
        start = time.perf_counter_ns()
        time.sleep(0.5)
        end = time.perf_counter_ns()
    assert process.returncode == 0
    assert speed._process is None
    inside = (speed._starts >= start) & (speed._starts < end)
    assert inside.sum() >= 10
    assert speed.slowdown(start, end) > 0
    # An interval without probes falls back to the whole run.
    assert speed.slowdown(0, 1) == speed.slowdown(0, end * 2)


def _read_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle]
