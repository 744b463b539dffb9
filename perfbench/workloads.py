"""Seeded statement generators for the three serving workloads.

Each workload is a fixed pool of distinct SQL statements (with their
executor truth) plus the request sequence the closed-loop clients walk
through, cyclically.  Everything is a pure function of the table and
the workload seed; the service only ever sees the SQL text.

The statement shapes are fixed, like the prepared statements of one
application: the 64 templates of the conjunctive workloads and the 4096
ad-hoc shapes of ``mixed-feedback`` are drawn once from
:data:`TEMPLATE_SEED`, and the workload seed draws their literals, the
statement order and the repeats.  With seed-drawn shapes, the q-error
of 64 templates swings by 10-20% from seed to seed, and the serving
cost of a mixed pool moves with its shape mix; either would hide a
change to the estimates or to the serving path.

* ``point-conj`` — one statement per ``POST /v1/estimate``.  A share
  :data:`REPEAT_SHARE` of requests re-issue a statement sent at most
  :data:`REPEAT_MAX_DISTANCE` requests earlier (inside the estimate
  cache's reach); the rest carry fresh literals.
* ``batch-conj`` — 64 statements per ``POST /v1/estimate_batch``, every
  one distinct.
* ``mixed-feedback`` — 8 ad-hoc mixed AND/OR statements per
  ``estimate_batch``, each followed by one ``/v1/feedback``.

The pools hold :data:`POOL_SIZE` statements, four times the shipped
estimate cache capacity (1024), so a statement met again on the next
pass over a pool has always been evicted first: the cyclic walk never
turns a fresh statement into a cache hit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import config
from repro.data.table import Table
from repro.sql.ast import And, Op, Or, Query, SimplePredicate
from repro.sql.executor import cardinality
from repro.sql.parser import fingerprint_sql
from repro.workloads import (
    generate_conjunctive_queries,
    generate_mixed_queries,
)

__all__ = ["NAMES", "POOL_SIZE", "REPEAT_SHARE", "REPEAT_MAX_DISTANCE",
           "TEMPLATES", "Workload", "generate"]

#: Workload names, in the order ``--workload all`` runs them.
NAMES = ("point-conj", "batch-conj", "mixed-feedback")

#: Distinct statements per workload pool.
POOL_SIZE = 4096

#: Statement templates of the two conjunctive workloads; they and the
#: mixed shapes are drawn once from :data:`TEMPLATE_SEED`.
TEMPLATES = 64
TEMPLATE_SEED = config.DEFAULT_SEED

#: Share of ``point-conj`` requests that repeat a recent statement.
#: Kept below one half so the latency median lands inside the
#: cache-miss mode instead of in the gap between hits and misses.
REPEAT_SHARE = 0.4

#: Repeats reach back 2..64 requests: never the request a concurrent
#: client may still hold (distance 1), always far inside the cache.
REPEAT_MIN_DISTANCE = 2
REPEAT_MAX_DISTANCE = 64

#: Statements per ``estimate_batch`` request.
BATCH_SIZES = {"point-conj": 1, "batch-conj": 64, "mixed-feedback": 8}

#: Template attributes need this many distinct domain values, or the
#: fresh-literal instances of the template would soon repeat verbatim.
_MIN_DOMAIN_SPAN = 100.0


@dataclass(frozen=True)
class Workload:
    """A workload's statement pool and request sequence.

    ``requests[i]`` lists the pool indices of request ``i``'s
    statements; clients walk the sequence cyclically.  ``truths[j]`` is
    the executor cardinality of ``statements[j]`` (always >= 1).
    """

    name: str
    seed: int
    statements: tuple[str, ...]
    truths: tuple[int, ...]
    requests: tuple[tuple[int, ...], ...]
    feedback: bool

    @property
    def batch(self) -> bool:
        """Whether requests go to ``/v1/estimate_batch``."""
        return self.name != "point-conj"


def generate(name: str, table: Table, seed: int) -> Workload:
    """Build workload ``name`` over ``table``; deterministic in ``seed``."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    mixed = name == "mixed-feedback"
    queries = (_mixed_instances(table, seed) if mixed
               else _fresh_instances(table, seed))
    statements = tuple(query.to_sql() for query in queries)
    truths = tuple(cardinality(query, table) for query in queries)
    if name == "point-conj":
        requests = _point_requests(len(statements), seed)
    else:
        requests = _chunks(len(statements), BATCH_SIZES[name])
    return Workload(name, seed, statements, truths, requests, mixed)


def _chunks(n: int, size: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(range(start, start + size))
                 for start in range(0, n - size + 1, size))


def _mixed_shapes(table: Table) -> list[Query]:
    """:data:`POOL_SIZE` generated mixed statements, no two sharing a
    SQL fingerprint (so no statement template is ever reused)."""
    shapes: list[Query] = []
    seen: set[str] = set()
    for query in generate_mixed_queries(table, POOL_SIZE + POOL_SIZE // 4,
                                        seed=TEMPLATE_SEED):
        fingerprint, _ = fingerprint_sql(query.to_sql())
        if fingerprint not in seen:
            seen.add(fingerprint)
            shapes.append(query)
    if len(shapes) < POOL_SIZE:
        raise RuntimeError(f"only {len(shapes)} distinct mixed shapes")
    return shapes[:POOL_SIZE]


def _mixed_instances(table: Table, seed: int) -> list[Query]:
    """The mixed shapes with fresh literals, shuffled.

    As the generator does, every per-attribute compound keeps one branch
    anchored at the statement's pivot row (so its truth is at least 1)
    and anchors the other branches at rows of their own.
    """
    rng = np.random.default_rng([seed, 3])
    instances = []
    for shape in _mixed_shapes(table):
        pivot = int(rng.integers(table.row_count))
        children = (shape.where.children if isinstance(shape.where, And)
                    else (shape.where,))
        # Single-branch compounds are flattened into the top conjunction:
        # one conjunction anchored at the pivot, in statement order.
        conjunction = iter(_rebind_conjunction(
            [c for c in children if isinstance(c, SimplePredicate)],
            table, pivot, rng))
        fresh = []
        for child in children:
            if isinstance(child, Or):
                rows = [pivot] + [int(rng.integers(table.row_count))
                                  for _ in child.children[1:]]
                fresh.append(Or([And(_rebind_conjunction(
                    branch.children, table, row, rng))
                    for branch, row in zip(child.children, rows)]))
            else:
                fresh.append(next(conjunction))
        where = And(fresh) if len(fresh) > 1 else fresh[0]
        instances.append(Query.single_table(shape.tables[0], where))
    order = rng.permutation(len(instances))
    return [instances[i] for i in order]


def _point_requests(n_fresh: int, seed: int) -> tuple[tuple[int, ...], ...]:
    """Fresh statements in pool order, with recent repeats mixed in."""
    rng = np.random.default_rng([seed, 2])
    requests: list[tuple[int, ...]] = []
    last_sent: dict[tuple[int, ...], int] = {}
    fresh = 0
    while fresh < n_fresh:
        i = len(requests)
        request = (fresh,)
        if i >= REPEAT_MIN_DISTANCE and rng.random() < REPEAT_SHARE:
            distance = int(rng.integers(REPEAT_MIN_DISTANCE,
                                        min(REPEAT_MAX_DISTANCE, i) + 1))
            # Repeat only a statement not sent again since: a copy
            # sent just before may still be in flight.
            if i - last_sent[requests[i - distance]] >= REPEAT_MIN_DISTANCE:
                request = requests[i - distance]
        if request == (fresh,):
            fresh += 1
        last_sent[request] = i
        requests.append(request)
    return tuple(requests)


def _templates(table: Table) -> list[Query]:
    """The first :data:`TEMPLATES` generated conjunctive shapes that
    constrain at least one wide-domain attribute."""
    wide = {name for name in table.column_names
            if (table.column(name).stats.max_value
                - table.column(name).stats.min_value) >= _MIN_DOMAIN_SPAN}
    candidates = generate_conjunctive_queries(table, 16 * TEMPLATES,
                                              seed=TEMPLATE_SEED)
    chosen = [q for q in candidates if wide & set(q.attributes)][:TEMPLATES]
    if len(chosen) < TEMPLATES:
        raise RuntimeError(f"only {len(chosen)} usable templates")
    return chosen


def _fresh_instances(table: Table, seed: int) -> list[Query]:
    """:data:`POOL_SIZE` distinct instances of the templates, shuffled.

    Each instance re-draws every literal around one random pivot row
    (the generator's own scheme), so the pivot row satisfies the
    statement and its truth is at least 1.  The operator sequence is
    the template's, so every instance shares its template's SQL
    fingerprint.
    """
    templates = _templates(table)
    rng = np.random.default_rng([seed, 1])
    seen: set[str] = set()
    instances: list[Query] = []
    attempts = 0
    while len(instances) < POOL_SIZE:
        attempts += 1
        if attempts > 4 * POOL_SIZE:
            raise RuntimeError("fresh-literal generation stalled")
        template = templates[len(instances) % TEMPLATES]
        query = _rebind(template, table, rng)
        sql = query.to_sql()
        if sql in seen:
            continue
        seen.add(sql)
        instances.append(query)
    order = rng.permutation(len(instances))
    return [instances[i] for i in order]


def _rebind(template: Query, table: Table,
            rng: np.random.Generator) -> Query:
    """``template`` with fresh literals anchored at a random row."""
    predicates = (template.where.children if isinstance(template.where, And)
                  else (template.where,))
    fresh = _rebind_conjunction(predicates, table,
                                int(rng.integers(table.row_count)), rng)
    where = And(fresh) if len(fresh) > 1 else fresh[0]
    return Query.single_table(template.tables[0], where)


def _rebind_conjunction(predicates, table: Table, row: int,
                        rng: np.random.Generator) -> list[SimplePredicate]:
    """Fresh literals for a conjunction of range and not-equal
    predicates, every one satisfied by ``row``; same operators, same
    order."""
    ranges: dict[str, tuple[float, float, float]] = {}
    fresh: list[SimplePredicate] = []
    for predicate in predicates:
        attribute = predicate.attribute
        if attribute not in ranges:
            ranges[attribute] = _range_around(table, attribute, row, rng)
        pivot, lo, hi = ranges[attribute]
        if predicate.op is Op.GE:
            value = lo
        elif predicate.op is Op.LE:
            value = hi
        elif predicate.op is Op.NE:
            value = _excluded_value(table, attribute, pivot, lo, hi,
                                    fresh, rng)
        else:
            raise ValueError(f"unexpected template predicate {predicate}")
        fresh.append(SimplePredicate(attribute, predicate.op, value))
    return fresh


def _range_around(table: Table, attribute: str, row: int,
                  rng: np.random.Generator) -> tuple[float, float, float]:
    """``(pivot, lo, hi)``: log-uniform half-widths around the pivot,
    as :func:`repro.workloads.conjunctive.attribute_predicates` draws."""
    stats = table.column(attribute).stats
    pivot = float(table.column(attribute).values[row])
    span = stats.max_value - stats.min_value
    lo = max(pivot - 10.0 ** rng.uniform(-3.0, np.log10(0.5)) * span,
             stats.min_value)
    hi = min(pivot + 10.0 ** rng.uniform(-3.0, np.log10(0.5)) * span,
             stats.max_value)
    if stats.is_integral:
        lo, hi = float(np.floor(lo)), float(np.ceil(hi))
    return pivot, lo, hi


def _excluded_value(table: Table, attribute: str, pivot: float, lo: float,
                    hi: float, taken: list[SimplePredicate],
                    rng: np.random.Generator) -> float:
    """A not-equal literal that never excludes the pivot row."""
    used = {p.value for p in taken
            if p.attribute == attribute and p.op is Op.NE}
    if table.column(attribute).stats.is_integral and hi > lo:
        for _ in range(16):
            value = float(rng.integers(int(lo), int(hi) + 1))
            if value != pivot and value not in used:
                return value
    # A range too narrow for another exclusion: exclude a value beyond
    # the domain instead (same SQL fingerprint, no effect on the count).
    return float(table.column(attribute).stats.max_value + 1 + len(used))
