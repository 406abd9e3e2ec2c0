"""MetricsRegistry: instruments, collectors, exposition, concurrency."""

import concurrent.futures
import math
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestInstruments:
    def test_counter_increments_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_counter_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total", {"tier": "memory"})
        b = registry.counter("hits_total", {"tier": "memory"})
        c = registry.counter("hits_total", {"tier": "disk"})
        assert a is b
        assert a is not c

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(TypeError):
            registry.gauge("thing")

    def test_gauge_set_add_and_callback(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(3)
        gauge.add(2)
        assert gauge.value == 5
        live = registry.gauge("live", fn=lambda: 42)
        assert live.value == 42

    def test_gauge_callback_exception_reads_nan(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("broken", fn=lambda: 1 / 0)
        assert math.isnan(gauge.value)
        # NaN gauges are omitted, not rendered as garbage.
        assert "broken" not in registry.render_prometheus()
        assert registry.snapshot()["gauges"]["broken"] is None

    def test_histogram_snapshot_fields(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency_seconds")
        for value in (0.1, 0.2, 0.3, 0.4):
            hist.observe(value)
        stats = hist.snapshot()
        assert stats["count"] == 4
        assert stats["sum"] == pytest.approx(1.0)
        assert stats["min"] == pytest.approx(0.1)
        assert stats["max"] == pytest.approx(0.4)
        assert stats["mean"] == pytest.approx(0.25)
        assert stats["p50"] == pytest.approx(0.2)
        assert stats["p99"] == pytest.approx(0.4)

    def test_histogram_reservoir_is_bounded_but_totals_exact(self):
        registry = MetricsRegistry()
        hist = registry.histogram("wide", reservoir=16)
        for i in range(1000):
            hist.observe(float(i))
        stats = hist.snapshot()
        assert stats["count"] == 1000
        assert stats["sum"] == pytest.approx(sum(range(1000)))
        assert stats["min"] == 0.0 and stats["max"] == 999.0
        # percentiles come from the most recent 16 observations
        assert stats["p50"] >= 984.0

    def test_empty_histogram_snapshot(self):
        registry = MetricsRegistry()
        stats = registry.histogram("never").snapshot()
        assert stats["count"] == 0
        assert stats["mean"] is None and stats["p50"] is None


class TestHistogramPercentiles:
    """The queue-wait and job-latency views of the scheduler and the
    service read these nearest-rank percentiles."""

    def test_percentiles_nearest_rank(self):
        hist = MetricsRegistry().histogram("wait_seconds")
        for ms in range(1, 101):  # 0.001 .. 0.100
            hist.observe(ms / 1000.0)
        stats = hist.snapshot()
        assert stats["window"] == stats["count"] == 100
        assert stats["p50"] == pytest.approx(0.050)
        assert stats["p90"] == pytest.approx(0.090)
        assert stats["p99"] == pytest.approx(0.099)
        assert stats["max"] == pytest.approx(0.100)
        assert stats["mean"] == pytest.approx(0.0505)

    def test_single_sample_is_every_percentile(self):
        hist = MetricsRegistry().histogram("wait_seconds")
        hist.observe(0.25)
        stats = hist.snapshot()
        assert stats["p50"] == stats["p90"] == stats["p99"] == 0.25

    def test_percentiles_ignore_arrival_order(self):
        hist = MetricsRegistry().histogram("wait_seconds")
        for ms in (5, 1, 9, 3, 7, 2, 8):
            hist.observe(ms / 1000.0)
        stats = hist.snapshot()
        assert stats["p50"] == pytest.approx(0.005)  # rank 4 of 7
        assert stats["p99"] == pytest.approx(0.009)
        assert stats["min"] == pytest.approx(0.001)

    def test_window_split_from_lifetime(self):
        hist = MetricsRegistry().histogram("wait_seconds", reservoir=10)
        hist.observe(9.0)  # the spike, about to fall out of the window
        for _ in range(20):
            hist.observe(0.001)
        stats = hist.snapshot()
        assert stats["window"] == 10  # what the percentiles cover
        assert stats["count"] == 21  # lifetime samples
        assert stats["max"] == 9.0  # lifetime max survives eviction
        assert stats["p99"] == pytest.approx(0.001)
        # the mean is lifetime, so mean * count is the real total
        assert stats["mean"] * stats["count"] == pytest.approx(9.02)


class TestCollectors:
    def test_collector_samples_land_in_snapshot(self):
        registry = MetricsRegistry()
        registry.register_collector(
            "pool",
            lambda: [
                ("pool_active", None, 2),
                ("pool_created_total", {"kind": "thread"}, 7, "counter"),
            ],
        )
        snap = registry.snapshot()
        assert snap["gauges"]["pool_active"] == 2
        assert snap["counters"]['pool_created_total{kind="thread"}'] == 7

    def test_collector_replaced_by_name(self):
        registry = MetricsRegistry()
        registry.register_collector("svc", lambda: [("x", None, 1)])
        registry.register_collector("svc", lambda: [("x", None, 9)])
        assert registry.snapshot()["gauges"]["x"] == 9

    def test_raising_collector_skipped_not_fatal(self):
        registry = MetricsRegistry()
        registry.register_collector("bad", lambda: 1 / 0)
        registry.register_collector("good", lambda: [("ok", None, 1)])
        snap = registry.snapshot()
        assert snap["gauges"]["ok"] == 1

    def test_unregister_collector(self):
        registry = MetricsRegistry()
        registry.register_collector("gone", lambda: [("y", None, 1)])
        registry.unregister_collector("gone")
        assert "y" not in registry.snapshot()["gauges"]

    def test_non_numeric_sample_skipped(self):
        registry = MetricsRegistry()
        registry.register_collector(
            "mixed", lambda: [("a", None, "nope"), ("b", None, 3)]
        )
        snap = registry.snapshot()
        assert "a" not in snap["gauges"]
        assert snap["gauges"]["b"] == 3


class TestMounts:
    def test_mount_replaced_by_slot_and_held_weakly(self):
        import gc

        registry = MetricsRegistry()
        first = MetricsRegistry()
        first.counter("a_total").inc()
        first.histogram("wait_seconds").observe(0.5)
        registry.mount("slot", first)
        snap = registry.snapshot()
        assert snap["counters"]["a_total"] == 1
        assert snap["histograms"]["wait_seconds"]["count"] == 1
        second = MetricsRegistry()
        second.counter("b_total").inc(2)
        registry.mount("slot", second)  # the newest owner takes the slot
        assert registry.snapshot()["counters"] == {"b_total": 2}
        del first, second
        gc.collect()
        assert registry.snapshot()["counters"] == {}
        assert registry.render_prometheus() == ""

    def test_mounted_collectors_and_instruments_rendered(self):
        registry = MetricsRegistry()
        registry.counter("own_total").inc()
        child = MetricsRegistry()
        child.gauge("child_depth").set(4)
        child.register_collector(
            "breakers", lambda: [("child_trips_total", None, 2, "counter")]
        )
        registry.mount("child", child)
        snap = registry.snapshot()
        assert snap["counters"] == {"own_total": 1, "child_trips_total": 2}
        assert snap["gauges"]["child_depth"] == 4
        text = registry.render_prometheus()
        assert "# TYPE child_depth gauge" in text
        assert "# TYPE child_trips_total counter" in text
        assert "# TYPE own_total counter" in text

    def test_mounts_nest(self):
        root, middle, leaf = (MetricsRegistry() for _ in range(3))
        leaf.counter("leaf_total").inc(3)
        middle.mount("leaf", leaf)
        root.mount("middle", middle)
        assert root.snapshot()["counters"] == {"leaf_total": 3}
        # unrelated slots coexist
        other = MetricsRegistry()
        other.counter("other_total").inc()
        root.mount("other", other)
        assert root.snapshot()["counters"] == {
            "leaf_total": 3, "other_total": 1,
        }


class TestPrometheusRendering:
    def test_families_typed_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b_total", help="b things").inc(3)
        registry.gauge("a_gauge", help="an a").set(1.5)
        text = registry.render_prometheus()
        lines = text.splitlines()
        assert "# HELP a_gauge an a" in lines
        assert "# TYPE a_gauge gauge" in lines
        assert "# TYPE b_total counter" in lines
        assert "a_gauge 1.5" in lines
        assert "b_total 3" in lines
        assert lines.index("# TYPE a_gauge gauge") < lines.index(
            "# TYPE b_total counter"
        )

    def test_histogram_rendered_as_summary_with_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", {"op": "submit"})
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        text = registry.render_prometheus()
        assert "# TYPE lat_seconds summary" in text
        assert 'lat_seconds{op="submit",quantile="0.5"} 2' in text
        assert 'lat_seconds_sum{op="submit"} 6' in text
        assert 'lat_seconds_count{op="submit"} 3' in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("esc_total", {"path": 'a"b\\c'}).inc()
        text = registry.render_prometheus()
        assert 'esc_total{path="a\\"b\\\\c"} 1' in text

    def test_metric_names_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("weird name-total").inc()
        assert "weird_name_total 1" in registry.render_prometheus()


class TestDefaultRegistryWiring:
    def test_runtime_sources_registered_on_import(self):
        import repro.runtime  # noqa: F401  (registers the collectors)

        snap = DEFAULT_REGISTRY.snapshot()
        gauges = snap["gauges"]
        assert "repro_executor_pools_active" in gauges
        assert any(
            name.startswith("repro_cache_entries") for name in gauges
        )

    def test_scheduler_registers_collector(self):
        from repro.runtime.scheduler import Scheduler

        scheduler = Scheduler(executor="serial")
        try:
            snap = DEFAULT_REGISTRY.snapshot()
            assert "repro_scheduler_in_flight_jobs" in snap["gauges"]
        finally:
            scheduler.shutdown()


class TestConcurrentSnapshots:
    """No torn snapshots, monotone counters, exact final totals —
    exercised under both a thread storm and a thread+process executor
    storm driving real jobs."""

    def test_thread_storm_counters_monotone_and_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("storm_total")
        hist = registry.histogram("storm_seconds", reservoir=64)
        stop = threading.Event()
        seen = []
        errors = []

        def reader():
            last = -1.0
            while not stop.is_set():
                snap = registry.snapshot()
                value = snap["counters"]["storm_total"]
                stats = snap["histograms"]["storm_seconds"]
                if value < last:
                    errors.append(f"counter went backwards {last}->{value}")
                last = value
                # torn histogram check: count and sum must agree
                if stats["count"] and abs(
                    stats["sum"] - stats["count"] * 0.5
                ) > 1e-6:
                    errors.append(f"torn histogram {stats}")
                seen.append(value)

        def writer():
            for _ in range(2000):
                counter.inc()
                hist.observe(0.5)

        readers = [threading.Thread(target=reader) for _ in range(2)]
        writers = [threading.Thread(target=writer) for _ in range(4)]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert not errors, errors[:3]
        assert counter.value == 8000
        assert hist.snapshot()["count"] == 8000
        assert seen, "readers never snapshotted"

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_snapshots_stable_under_executor_storm(self, executor):
        """Concurrent DEFAULT_REGISTRY snapshots while real jobs run."""
        from repro.circuits import library
        from repro.runtime import execute

        circuit = library.ghz_state(3)
        circuit.measure_all()

        before = DEFAULT_REGISTRY.snapshot()["counters"]
        stop = threading.Event()
        errors = []

        def scrape():
            last = {}
            while not stop.is_set():
                snap = DEFAULT_REGISTRY.snapshot()
                for name, value in snap["counters"].items():
                    if value < last.get(name, float("-inf")):
                        errors.append(f"{name} went backwards")
                    last[name] = value
                DEFAULT_REGISTRY.render_prometheus()  # must never raise

        scraper = threading.Thread(target=scrape)
        scraper.start()
        try:
            with concurrent.futures.ThreadPoolExecutor(4) as pool:
                futures = [
                    pool.submit(
                        lambda s: execute(
                            circuit, "statevector", shots=64, seed=s,
                            executor=executor,
                        ).result(timeout=60),
                        s,
                    )
                    for s in range(8)
                ]
                for future in futures:
                    future.result(timeout=120)
        finally:
            stop.set()
            scraper.join()
        assert not errors, errors[:3]
        after = DEFAULT_REGISTRY.snapshot()["counters"]
        for name, value in before.items():
            if name in after:
                assert after[name] >= value, name
