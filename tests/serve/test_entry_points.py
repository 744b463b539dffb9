"""Differential checks across the serving entry points.

Under the shipped ``repro serve`` defaults (estimate cache on), every
way of asking for an estimate — ``/v1/estimate``, ``/v1/estimate_batch``,
``/v1/feedback`` without an estimate, and a fleet ``LocalWorker`` —
must answer bitwise-equal to ``estimator.estimate_batch([parse_query(sql)])``
for first-seen, re-seen, repeated and re-spelled statements alike.
Also covers the one-pipeline properties: the planned leg serves
re-seen statements with the cache on, literal spellings share one
cache entry, a bad statement fails only its own request, and the
once-per-request cache ladder keeps per-statement counter meaning.
"""

from __future__ import annotations

import inspect
import re
import threading

import pytest

from repro import obs
from repro.cli import build_parser
from repro.estimators import LearnedEstimator
from repro.featurize import ConjunctiveEncoding, DisjunctionEncoding
from repro.featurize.batch import query_shape
from repro.fleet import LocalWorker
from repro.models import GradientBoostingRegressor
from repro.serve import (
    EstimationServer,
    EstimationService,
    ServeClient,
    ServeClientError,
)
from repro.serve import server as server_module
from repro.serve.fused import FusedEstimatePath
from repro.sql.parser import fingerprint_sql, parse_query

_INTEGER = re.compile(r"(?<![\w.])(\d+)(?![\d.])")


def shipped_service(estimator) -> EstimationService:
    """A service configured exactly as ``repro serve`` ships."""
    args = build_parser().parse_args(["serve", "--artifact", "-"])
    accepted = inspect.signature(EstimationService).parameters
    return EstimationService(estimator, **{
        key: value for key, value in vars(args).items()
        if key in accepted and key != "estimator"})


def shifted(sql: str) -> str:
    """Same statement template, fresh literals: every integer n -> 2n+1."""
    return _INTEGER.sub(lambda m: str(2 * int(m.group(1)) + 1), sql)


def respelled(sql: str) -> str:
    """Same statement and values, literals spelled ``N.0``."""
    return _INTEGER.sub(lambda m: m.group(1) + ".0", sql)


def sequence(sqls: list[str]) -> list[str]:
    """First-seen, re-seen, repeated and re-spelled instances."""
    out = []
    for sql in sqls:
        out += [sql, shifted(sql), sql, respelled(sql), respelled(shifted(sql))]
    return out


def fine_estimator(qft, table, workload):
    """A GB estimator with small leaves, so that literals move its
    estimates (the shared serving fixture is nearly constant)."""
    return LearnedEstimator(
        qft(table, max_partitions=8),
        GradientBoostingRegressor(n_estimators=30, learning_rate=0.3,
                                  min_samples_leaf=2,
                                  early_stopping_rounds=None),
    ).fit(workload.queries, workload.cardinalities)


@pytest.fixture(scope="module")
def estimators(small_forest, conjunctive_workload, mixed_workload):
    return {
        "conjunctive": (fine_estimator(ConjunctiveEncoding, small_forest,
                                       conjunctive_workload),
                        conjunctive_workload),
        "mixed": (fine_estimator(DisjunctionEncoding, small_forest,
                                 mixed_workload), mixed_workload),
    }


@pytest.fixture(params=["conjunctive", "mixed"])
def case(request, estimators):
    """``(estimator, statement sequence)`` for one statement class."""
    estimator, workload = estimators[request.param]
    base = [q.to_sql() for q in workload.queries[:6]]
    # A re-seen instance must estimate differently from its first-seen
    # statement, or a cache keyed without the literals would pass.
    assert any(reference(estimator, sql) != reference(estimator, shifted(sql))
               for sql in base), "literals do not move the estimates"
    return estimator, sequence(base)


def reference(estimator, sql: str) -> float:
    return float(estimator.estimate_batch([parse_query(sql)])[0])


def via_estimate(client, sql):
    return client.estimate(sql)["estimate"]


def via_estimate_batch(client, sql):
    return client.estimate_batch([sql])[0]


def via_feedback(client, sql):
    return client.feedback(sql, true_cardinality=10.0)["estimate"]


ENTRY_POINTS = [via_estimate, via_estimate_batch, via_feedback]


class TestEntryPointsAgree:
    @pytest.mark.parametrize("entry", ENTRY_POINTS,
                             ids=lambda f: f.__name__)
    def test_bitwise_equal_to_estimate_batch(self, case, entry):
        estimator, sqls = case
        service = shipped_service(estimator)
        with EstimationServer(service) as server, \
                ServeClient(server.url) as client:
            served = [entry(client, sql) for sql in sqls]
        assert served == [reference(estimator, sql) for sql in sqls]
        # One entry per (fingerprint, literals): re-spelled statements
        # share their original's entry.
        assert len(service.cache) == len({fingerprint_sql(s) for s in sqls})

    def test_local_worker(self, case):
        estimator, sqls = case
        worker = LocalWorker("w0", shipped_service(estimator)).start()
        try:
            worker.warm(sqls[:2])
            served = [worker.client.estimate(sql)["estimate"]
                      for sql in sqls]
            batched = worker.client.estimate_batch(sqls)
        finally:
            worker.drain()
        expected = [reference(estimator, sql) for sql in sqls]
        assert served == expected
        assert batched == expected

    def test_one_batch_mixing_every_kind(self, case):
        estimator, sqls = case
        service = shipped_service(estimator)
        try:
            service.estimate_many_sql(sqls[:2])  # seen and cached
            got = service.estimate_many_sql(sqls)
        finally:
            service.close()
        assert got == [reference(estimator, sql) for sql in sqls]


class TestOnePipeline:
    def test_spellings_share_one_entry_and_estimate(self, serve_estimator):
        service = shipped_service(serve_estimator)
        try:
            first, cached_first = service.estimate(
                "SELECT count(*) FROM forest WHERE A1 > 5")
            second, cached_second = service.estimate(
                "SELECT count(*) FROM forest WHERE A1 > 5.0")
        finally:
            service.close()
        assert (cached_first, cached_second) == (False, True)
        assert first == second
        assert len(service.cache) == 1

    def test_planned_leg_serves_reseen_statements_with_cache_on(
            self, serve_estimator, conjunctive_workload, monkeypatch):
        service = shipped_service(serve_estimator)
        assert service.cache.enabled
        sqls = [q.to_sql() for q in conjunctive_workload.queries[:8]]
        calls = {"parse": 0, "bind": 0, "planned": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(server_module, "parse_query",
                            counting("parse", server_module.parse_query))
        monkeypatch.setattr(server_module, "bind_template",
                            counting("bind", server_module.bind_template))
        monkeypatch.setattr(
            FusedEstimatePath, "prepare_planned",
            counting("planned", FusedEstimatePath.prepare_planned))
        try:
            service.estimate_many_sql(sqls)
            assert calls == {"parse": 8, "bind": 0, "planned": 0}
            reseen = [shifted(sql) for sql in sqls]
            got = service.estimate_many_sql(reseen)
            assert service.estimate(shifted(reseen[0]))[0] == reference(
                serve_estimator, shifted(reseen[0]))
        finally:
            service.close()
        assert calls == {"parse": 8, "bind": 0, "planned": 9}
        assert got == [reference(serve_estimator, sql) for sql in reseen]

    def test_bad_statement_fails_only_its_own_request(
            self, serve_estimator, conjunctive_workload):
        # A wide window and two concurrent requests: on a pipeline that
        # validates inside the batch, both would share one batch and
        # both would fail.
        good = conjunctive_workload.queries[0].to_sql()
        bad = "SELECT count(*) FROM forest WHERE Ghost > 1"
        service = EstimationService(serve_estimator, max_wait_ms=200,
                                    cache_size=0)
        outcomes: dict[str, object] = {}
        start = threading.Barrier(2)

        def fire(name: str, sql: str, client: ServeClient) -> None:
            start.wait()
            try:
                outcomes[name] = client.estimate(sql)["estimate"]
            except ServeClientError as exc:
                outcomes[name] = exc

        with EstimationServer(service) as server:
            threads = [threading.Thread(target=fire,
                                        args=(name, sql,
                                              ServeClient(server.url)))
                       for name, sql in (("good", good), ("bad", bad))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert outcomes["good"] == reference(serve_estimator, good)
        assert isinstance(outcomes["bad"], ServeClientError)
        assert outcomes["bad"].status == 400
        assert "unknown attribute 'Ghost'" in str(outcomes["bad"])


def ladder_stats(service) -> dict:
    return {"estimate": service.cache.stats(),
            "parse": service.parse_cache.stats(),
            "plan": service.plan_cache.stats()}


def ladder_counters() -> dict:
    snapshot = obs.get_registry().snapshot()
    return {rung: {outcome: snapshot.get(f"{prefix}.{outcome}",
                                         {"value": 0})["value"]
                   for outcome in ("hits", "misses")}
            for rung, prefix in (("estimate", "serve.cache"),
                                 ("parse", "serve.parse_cache"),
                                 ("plan", "serve.plan_cache"))}


def distinct_shapes(estimator, workload, count: int) -> list[str]:
    """``count`` statements of pairwise distinct shapes (and so
    distinct fingerprints)."""
    featurizer = estimator.featurizer
    chosen, shapes = [], set()
    for query in workload.queries:
        key, _ = query_shape(featurizer.extract_expr(query))
        if key not in shapes:
            shapes.add(key)
            chosen.append(query.to_sql())
        if len(chosen) == count:
            return chosen
    raise AssertionError("workload has too few distinct shapes")


class TestRequestCacheLadder:
    """Each cache is probed once per request, yet every statement still
    counts as one hit or one miss at each rung it reaches."""

    def test_counters_keep_per_statement_meaning(self, serve_estimator,
                                                 conjunctive_workload):
        seen, reseen, first = distinct_shapes(serve_estimator,
                                              conjunctive_workload, 3)
        service = shipped_service(serve_estimator)
        try:
            service.estimate_many_sql([seen, reseen])
            before, counters_before = ladder_stats(service), ladder_counters()
            request = [seen,              # estimate hit
                       shifted(reseen),   # re-seen: parse + plan hit
                       first,             # first-seen: every rung misses
                       shifted(reseen),   # repeated within the request
                       shifted(first)]    # first-seen template, repeated
            got = service.estimate_many_sql(request)
            after, counters_after = ladder_stats(service), ladder_counters()
        finally:
            service.close()
        assert got == [reference(serve_estimator, sql) for sql in request]
        delta = {rung: {outcome: after[rung][outcome] - before[rung][outcome]
                        for outcome in ("hits", "misses")}
                 for rung in after}
        # Estimate cache: every statement probes the cache as it stood
        # when the request began, so the in-request repeat misses too.
        assert delta["estimate"] == {"hits": 1, "misses": 4}
        # Parse and plan caches: a repeat of a statement (or shape) the
        # request itself just parsed (or compiled) counts as a hit.
        assert delta["parse"] == {"hits": 3, "misses": 1}
        assert delta["plan"] == {"hits": 3, "misses": 1}
        assert {rung: {outcome: counters_after[rung][outcome]
                       - counters_before[rung][outcome]
                       for outcome in ("hits", "misses")}
                for rung in counters_after} == delta
        assert (after["estimate"]["size"], after["parse"]["size"],
                after["plan"]["size"]) == (5, 3, 3)

    def test_statement_repeated_in_one_request(self, serve_estimator,
                                               conjunctive_workload):
        sql = conjunctive_workload.queries[0].to_sql()
        service = shipped_service(serve_estimator)
        try:
            first = service.estimate_many_sql([sql] * 4)
            again = service.estimate_many_sql([sql] * 4)
            stats = ladder_stats(service)
        finally:
            service.close()
        assert first == again == [reference(serve_estimator, sql)] * 4
        assert stats["estimate"]["hits"] == 4
        assert stats["estimate"]["misses"] == 4
        assert stats["estimate"]["size"] == 1
        # Parsed once; the three repeats re-bind its template.
        assert stats["parse"]["misses"] == 1
        assert stats["parse"]["hits"] == 3

    def test_bad_statement_in_a_mixed_request_fails_only_it(
            self, serve_estimator, conjunctive_workload):
        seen, reseen, first = distinct_shapes(serve_estimator,
                                              conjunctive_workload, 3)
        bad = "SELECT count(*) FROM forest WHERE Ghost > 1"
        mixed = [seen, shifted(reseen), first, bad]
        service = shipped_service(serve_estimator)
        outcomes: dict[str, object] = {}
        start = threading.Barrier(2)

        def fire(name: str, send) -> None:
            start.wait()
            try:
                outcomes[name] = send()
            except ServeClientError as exc:
                outcomes[name] = exc

        service.estimate_many_sql([seen, reseen])
        with EstimationServer(service) as server, \
                ServeClient(server.url) as batch_client, \
                ServeClient(server.url) as single_client:
            threads = [
                threading.Thread(target=fire, args=(
                    "mixed", lambda: batch_client.estimate_batch(mixed))),
                threading.Thread(target=fire, args=(
                    "single",
                    lambda: single_client.estimate(
                        shifted(seen))["estimate"])),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # The failed request cached no estimate for its good
            # statements; the next request serves them.
            good = batch_client.estimate_batch(mixed[:3])
        assert isinstance(outcomes["mixed"], ServeClientError)
        assert outcomes["mixed"].status == 400
        assert "unknown attribute 'Ghost'" in str(outcomes["mixed"])
        assert outcomes["single"] == reference(serve_estimator,
                                               shifted(seen))
        assert good == [reference(serve_estimator, sql)
                        for sql in mixed[:3]]
