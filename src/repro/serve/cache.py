"""Thread-safe LRU caches for the serving layer.

Three caches with different keys and granularities, all bounded LRU
maps built on one locked core (:class:`_LruCache`):

* :class:`EstimateCache` — exact-match results.  Production query
  streams are heavily repetitive — the same dashboard, ORM, or prepared
  statement issues the same shapes over and over — and a cardinality
  estimate is a pure function of the query (Equation 4), so caching is
  always sound.  The cache keys on ``(fingerprint, literals)`` — the
  pair :func:`repro.sql.parser.fingerprint_sql` returns — which the
  request pipeline computes anyway, so a probe costs one dict lookup
  and needs no parsed query.  Literals are floats, so ``A > 5`` and
  ``A > 5.0`` share an entry; whitespace or keyword-case variants of
  one statement have different fingerprints and do not.
* :class:`ParseCache` — parsed statement templates.  Keys are SQL
  *fingerprints* (the statement text with numeric literals masked), so
  a parameterized statement's thousandth instance re-binds the cached
  AST (or, on the planned leg, skips the AST entirely) instead of
  re-running the tokenizer and recursive descent.
* :class:`PlanCache` — compiled shape plans for the fused estimate
  path.  Keys are query *shapes* (:func:`repro.featurize.batch.query_shape`
  — boolean structure with numeric literals masked), so a prepared
  statement's thousandth parameterisation reuses the plan its first
  compile produced even though every literal differs and the exact-match
  cache misses.

The three form the serving pipeline's cache ladder: fingerprint +
literals → estimate (everything), fingerprint → statement (parse),
shape → plan (compile).

Hit/miss/eviction counts are mirrored into the process-global
:mod:`repro.obs.metrics_runtime` registry (``serve.cache.*`` /
``serve.parse_cache.*`` / ``serve.plan_cache.*``), so the ``/metrics``
endpoint exports them alongside the rest of the serving metrics.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock

from repro import obs
from repro.featurize.batch import CompiledPlan

__all__ = ["EstimateCache", "ParseCache", "PlanCache"]


class _LruCache:
    """A bounded, thread-safe LRU map with mirrored hit/miss counters.

    ``max_size=0`` disables caching entirely: every lookup misses, no
    entry is stored, and no counters move — the configuration the
    serving benchmark uses to measure uncached paths honestly.
    Subclasses set ``_metric_prefix`` to the global-registry counter
    namespace (``<prefix>.hits`` / ``.misses`` / ``.evictions``).
    """

    _metric_prefix = "serve.cache"

    def __init__(self, max_size: int) -> None:
        if max_size < 0:
            raise ValueError(f"max_size must be >= 0, got {max_size}")
        self._max_size = max_size
        self._entries: OrderedDict = OrderedDict()
        self._lock = Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        # Metric names resolve once here from the subclass's literal
        # prefix; call sites must pass pre-resolved names (RPR110 keeps
        # dynamically built strings out of metric lookups).
        self._hits_metric = self._metric_prefix + ".hits"
        self._misses_metric = self._metric_prefix + ".misses"
        self._evictions_metric = self._metric_prefix + ".evictions"

    @property
    def max_size(self) -> int:
        """Configured capacity (0 = caching disabled)."""
        return self._max_size

    @property
    def enabled(self) -> bool:
        """Whether the cache stores anything at all."""
        return self._max_size > 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def lookup(self, key):
        """The cached value for ``key``, or ``None`` on a miss.

        A hit refreshes the entry's recency.  Both outcomes are counted
        (locally and in the global metrics registry); a disabled cache
        counts nothing.
        """
        if not self._max_size:
            return None
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
        registry = obs.get_registry()
        if value is None:
            registry.counter(self._misses_metric).inc()
        else:
            registry.counter(self._hits_metric).inc()
        return value

    def store(self, key, value) -> None:
        """Insert (or refresh) a value, evicting the LRU entry if full."""
        if not self._max_size:
            return
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_size:
                self._entries.popitem(last=False)
                evicted += 1
            self._evictions += evicted
        if evicted:
            obs.get_registry().counter(self._evictions_metric).inc(evicted)

    def stats(self) -> dict:
        """Local hit/miss/eviction/size counters (JSON-serialisable)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "size": len(self._entries),
                "max_size": self._max_size,
            }

    def clear(self) -> None:
        """Drop every entry (counters keep their values)."""
        with self._lock:
            self._entries.clear()


class EstimateCache(_LruCache):
    """``(fingerprint, literals)`` -> estimate (``serve.cache.*`` counters).

    Values are stored as ``float``; see the module docstring for why
    exact-match caching of estimates is always sound.
    """

    _metric_prefix = "serve.cache"

    def __init__(self, max_size: int = 1024) -> None:
        super().__init__(max_size)

    def store(self, key: tuple, estimate: float) -> None:
        """Insert (or refresh) an estimate, evicting the LRU if full."""
        super().store(key, float(estimate))


class ParseCache(_LruCache):
    """SQL fingerprint -> parsed statement template
    (``serve.parse_cache.*`` counters).

    Sits in front of the parser on the request path: an instance of a
    previously seen statement template skips tokenization and recursive
    descent entirely and re-binds the cached AST with its own literals
    (:func:`repro.sql.parser.bind_template`).  Only templates that
    passed :func:`repro.sql.parser.make_template`'s round-trip
    self-check are ever stored, so a hit is always equivalent to a
    fresh parse.
    """

    _metric_prefix = "serve.parse_cache"

    def __init__(self, max_size: int = 512) -> None:
        super().__init__(max_size)


class PlanCache(_LruCache):
    """Query shape key -> compiled plan (``serve.plan_cache.*`` counters).

    Sits beside the exact-match :class:`EstimateCache` in the fused
    serving path: a query whose literals differ from anything seen
    before still reuses the :class:`~repro.featurize.batch.CompiledPlan`
    of its shape, skipping the AST re-compile entirely.  ``max_size=0``
    disables the cache (every lookup misses, nothing is stored) — the
    fused path then compiles per shape per batch.
    """

    _metric_prefix = "serve.plan_cache"

    def __init__(self, max_size: int = 256) -> None:
        super().__init__(max_size)

    def store(self, key: tuple, plan: CompiledPlan) -> None:
        """Insert (or refresh) a plan, evicting the LRU entry if full."""
        super().store(key, plan)
