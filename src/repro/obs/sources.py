"""Collector registrations for the runtime layer's existing stats.

The runtime's subsystems already keep counters — executor pool registry,
the two `CacheStore`-backed caches (transpile and distribution; per-tier
hits/misses/stores/evictions/errors), and the cost model's learned
estimates.  This module folds them into
:data:`~repro.obs.metrics.DEFAULT_REGISTRY` as on-demand collectors:
nothing is sampled until a snapshot or a ``/v1/metrics`` scrape asks.

Imports of the runtime modules happen inside the collector bodies so the
``obs`` package itself stays import-cycle free (``repro.runtime``
imports us at the bottom of its ``__init__`` to self-register).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.obs.metrics import DEFAULT_REGISTRY, MetricsRegistry, Sample

__all__ = ["register_runtime_sources"]

_REGISTERED: set = set()


def _cache_samples(cache_name: str, stats: dict) -> List[Sample]:
    samples: List[Sample] = []
    samples.append(("repro_cache_entries", {"cache": cache_name}, stats.get("entries", 0)))
    for tier in ("memory", "disk"):
        tier_stats = stats.get(tier)
        if not tier_stats:
            continue
        labels = {"cache": cache_name, "tier": tier}
        for field in ("hits", "misses", "stores", "evictions", "errors"):
            if field in tier_stats:
                samples.append(
                    (f"repro_cache_{field}_total", labels, tier_stats[field], "counter")
                )
        if "entries" in tier_stats:
            samples.append(("repro_cache_tier_entries", labels, tier_stats["entries"]))
    return samples


def _collect_pools() -> Iterable[Sample]:
    from repro.runtime.pool import pool_stats

    stats = pool_stats()
    yield ("repro_executor_pools_active", None, stats.get("active", 0))
    yield ("repro_executor_pools_created_total", None, stats.get("created", 0), "counter")
    yield ("repro_executor_pools_reused_total", None, stats.get("reused", 0), "counter")
    yield ("repro_executor_pool_rebuilds_total", None, stats.get("rebuilds", 0), "counter")
    # ``pools`` is a list of (kind, width) pairs — one live pool per kind.
    for label, width in stats.get("pools") or ():
        yield ("repro_executor_pool_width", {"pool": str(label)}, width)


def _collect_transpile_cache() -> Iterable[Sample]:
    from repro.runtime.cache import transpile_cache_stats

    return _cache_samples("transpile", transpile_cache_stats())


def _collect_distribution_cache() -> Iterable[Sample]:
    from repro.runtime.distcache import distribution_cache_stats

    return _cache_samples("distribution", distribution_cache_stats())


def _collect_cost_model() -> Iterable[Sample]:
    from repro.runtime.scheduler import cost_model_stats

    for label, entry in cost_model_stats()["profiles"].items():
        labels = {"profile": label}
        yield ("repro_cost_model_per_shot_seconds", labels, entry["per_shot"])
        yield ("repro_cost_model_shot_samples_total", labels, entry["shot_samples"], "counter")


def register_runtime_sources(registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
    """Register the runtime-layer collectors (idempotent per registry)."""
    registry = registry or DEFAULT_REGISTRY
    if id(registry) in _REGISTERED:
        return registry
    registry.register_collector("runtime.pools", _collect_pools)
    registry.register_collector("runtime.transpile_cache", _collect_transpile_cache)
    registry.register_collector("runtime.distribution_cache", _collect_distribution_cache)
    registry.register_collector("runtime.cost_model", _collect_cost_model)
    _REGISTERED.add(id(registry))
    return registry
