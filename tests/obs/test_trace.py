"""Span trees: building, wire form, and cross-executor propagation."""

import pickle

import pytest

from repro.circuits import library
from repro.obs.trace import (
    Span,
    set_tracing_enabled,
    tracing_enabled,
    worker_chunk_record,
)
from repro.runtime import execute


def traced_batch(n=3):
    circuits = []
    for qubits in range(2, 2 + n):
        qc = library.ghz_state(qubits)
        qc.measure_all()
        circuits.append(qc)
    return circuits


class TestSpanBasics:
    def test_child_finish_duration(self):
        root = Span("job")
        child = root.child("stage", shots=8)
        child.finish()
        root.finish()
        assert child in root.children
        assert child.attrs["shots"] == 8
        assert child.duration_s is not None and child.duration_s >= 0
        assert root.duration_s >= child.duration_s * 0  # both finished

    def test_finish_is_idempotent(self):
        span = Span("s")
        span.finish()
        first = span.end_s
        span.finish()
        assert span.end_s == first

    def test_unfinished_span_reports_none_duration(self):
        span = Span("open")
        assert span.duration_s is None
        assert span.to_dict()["duration_s"] is None

    def test_events_are_timestamped_and_ordered(self):
        span = Span("s")
        span.event("first", detail=1)
        span.event("second")
        node = span.finish().to_dict()
        names = [e["name"] for e in node["events"]]
        assert names == ["first", "second"]
        assert node["events"][0]["detail"] == 1
        assert node["events"][0]["t_s"] <= node["events"][1]["t_s"]

    def test_find_descends_depth_first(self):
        root = Span("job")
        a = root.child("circuit")
        a.child("chunk")
        b = root.child("circuit")
        b.child("chunk")
        assert len(root.find("chunk")) == 2
        assert len(root.find("circuit")) == 2

    def test_to_dict_rebases_to_root_start(self):
        root = Span("job")
        child = root.child("late")
        child.finish()
        root.finish()
        node = root.to_dict()
        assert node["start_s"] == 0.0
        assert node["children"][0]["start_s"] >= 0.0

    def test_span_ids_unique(self):
        ids = {Span("x").span_id for _ in range(100)}
        assert len(ids) == 100


class TestWorkerBoundary:
    def test_context_is_picklable_and_small(self):
        span = Span("chunk")
        ctx = span.context()
        assert pickle.loads(pickle.dumps(ctx)) == ctx
        assert set(ctx) == {"span_id", "name"}

    def test_worker_record_round_trip(self):
        span = Span("chunk")
        record = worker_chunk_record(
            span.context(), engine="StatevectorBackend", shots=64,
            duration_s=0.25, batch_width=1024,
        )
        record = pickle.loads(pickle.dumps(record))
        span.merge_worker(record)
        assert span.attrs["engine"] == "StatevectorBackend"
        assert span.attrs["worker_shots"] == 64
        assert span.attrs["worker_wall_s"] == 0.25
        assert span.attrs["batch_width"] == 1024
        assert "span_id" not in span.attrs  # identity stays out of attrs

    def test_none_context_ships_nothing(self):
        assert worker_chunk_record(
            None, engine="X", shots=1, duration_s=0.0
        ) is None

    def test_merge_worker_tolerates_none(self):
        span = Span("chunk")
        span.merge_worker(None)
        assert span.attrs == {}


class TestTracingSwitch:
    def test_set_returns_previous_and_restores(self):
        assert tracing_enabled()
        previous = set_tracing_enabled(False)
        try:
            assert previous is True
            assert not tracing_enabled()
        finally:
            set_tracing_enabled(previous)
        assert tracing_enabled()

    def test_untraced_execute_has_no_span(self):
        previous = set_tracing_enabled(False)
        try:
            job = execute(
                traced_batch(1)[0], "statevector", shots=32, seed=1
            )
            job.result(timeout=60)
            assert job.trace() is None
        finally:
            set_tracing_enabled(previous)


class TestTracedExecution:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_chunk_worker_wall_clocks_sum_to_time_taken(self, executor):
        """The acceptance check: per-chunk worker wall-clocks in the
        trace sum to the jobset's end-to-end chunk time, under thread
        AND process executors (durations survive the pickle boundary
        bit-identically)."""
        parent = Span("test")
        jobs = execute(
            traced_batch(3), "statevector", shots=256, seed=7,
            executor=executor, trace_parent=parent,
        )
        jobs.result(timeout=120)
        parent.finish()
        total = 0.0
        for job in jobs:
            tree = job.trace()
            assert tree is not None
            chunks = [
                c for c in _walk(tree) if c["name"] == "chunk"
            ]
            assert chunks, f"no chunk spans for {job.job_id}"
            for chunk in chunks:
                attrs = chunk["attrs"]
                assert attrs["worker_wall_s"] >= 0.0
                assert attrs["engine"] == "StatevectorBackend"
                assert attrs["worker_shots"] > 0
                total += attrs["worker_wall_s"]
        assert total == pytest.approx(jobs.time_taken, rel=0, abs=0)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_chunk_spans_nest_inside_job_window(self, executor):
        parent = Span("test")
        jobs = execute(
            traced_batch(2), "statevector", shots=128, seed=3,
            executor=executor, trace_parent=parent,
        )
        jobs.result(timeout=120)
        for job in jobs:
            tree = job.trace()
            assert tree["duration_s"] is not None
            assert tree["attrs"]["status"] == "done"
            for node in _walk(tree):
                if node is tree or node["duration_s"] is None:
                    continue
                assert node["start_s"] >= -1e-6
                assert (
                    node["start_s"] + node["duration_s"]
                    <= tree["start_s"] + tree["duration_s"] + 1e-6
                ), f"{node['name']} escapes the job window"

    def test_worker_pid_differs_under_process_executor(self):
        import os

        parent = Span("test")
        jobs = execute(
            traced_batch(1), "statevector", shots=128, seed=5,
            executor="process", trace_parent=parent,
        )
        jobs.result(timeout=120)
        pids = {
            c["attrs"]["worker_pid"]
            for c in _walk(jobs[0].trace())
            if c["name"] == "chunk"
        }
        assert pids and os.getpid() not in pids

    def test_trace_parent_adopts_circuit_spans(self):
        parent = Span("mine")
        jobs = execute(
            traced_batch(2), "statevector", shots=32, seed=1,
            trace_parent=parent,
        )
        jobs.result(timeout=60)
        circuits = [c for c in parent.children if c.name == "circuit"]
        assert len(circuits) == 2
        assert jobs.trace() == [span.to_dict() for span in circuits]

    def test_cache_hit_marked_in_prepare_span(self):
        # the parent transpiles once (the prepare span) before fanning
        # chunks out to workers
        qc = traced_batch(1)[0]
        execute(
            qc, "noisy:ibmqx4", shots=16, seed=1, executor="process"
        ).result(timeout=120)
        parent = Span("again")
        job = execute(
            qc, "noisy:ibmqx4", shots=16, seed=2, executor="process",
            trace_parent=parent,
        )
        job.result(timeout=120)
        prepares = [
            n for n in _walk(job.trace()) if n["name"] == "prepare"
        ]
        assert prepares and prepares[0]["attrs"]["cache_hit"] is True

    def test_jobset_trace_snapshot_safe_while_running(self):
        parent = Span("live")
        jobs = execute(
            traced_batch(2), "statevector", shots=64, seed=2,
            executor="thread", trace_parent=parent,
        )
        trees = jobs.trace()  # mid-flight snapshot must not raise
        assert len(trees) == 2
        jobs.result(timeout=60)


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)
