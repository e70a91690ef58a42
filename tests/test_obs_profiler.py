"""Unit tests for the engine profiler and the cProfile hot-path view."""

import pytest

from repro.obs.profiler import (
    EngineProfiler,
    format_hot_paths,
    hot_path_profile,
)
from repro.sim import Environment


def _workload(env, name="worker"):
    def proc(env):
        for _ in range(50):
            yield env.timeout(1.0)

    env.process(proc(env), name=name)


class TestEngineProfiler:
    def test_counts_every_dispatch(self):
        env = Environment()
        _workload(env)
        profiler = EngineProfiler(env)
        env.run()
        assert profiler.dispatches == env.events_processed
        assert profiler.elapsed > 0.0
        total = sum(stat.count for stat in profiler.by_type.values())
        assert total == profiler.dispatches

    def test_does_not_change_the_run(self):
        bare = Environment()
        _workload(bare)
        bare.run()

        profiled = Environment()
        _workload(profiled)
        EngineProfiler(profiled)
        profiled.run()

        assert profiled.now == bare.now
        assert profiled.events_processed == bare.events_processed
        assert profiled.events_scheduled == bare.events_scheduled

    def test_normalises_process_instance_numbers(self):
        env = Environment()
        _workload(env, name="txn-1934-run")
        _workload(env, name="txn-7-run")
        profiler = EngineProfiler(env)
        env.run()
        kinds = set(profiler.by_type)
        assert "process:txn-#-run" in kinds
        # Both instances aggregate into the one normalised kind.
        assert not any("1934" in kind for kind in kinds)

    def test_timer_dispatches_get_their_own_label(self):
        env = Environment()
        ticks = iter([1.0, 1.0, None])
        env.timer(1.0, lambda: next(ticks))
        env.timeout(2.5)
        profiler = EngineProfiler(env)
        env.run()
        # Start hop, three sleeps and the completion; the bare timeout
        # keeps its own label.
        assert profiler.by_type["timer"].count == 5
        assert profiler.by_type["timeout"].count == 1

    def test_double_attach_rejected(self):
        env = Environment()
        profiler = EngineProfiler(env)
        with pytest.raises(RuntimeError):
            EngineProfiler(env)
        profiler.attach()  # idempotent on the owning profiler

    def test_detach_restores_the_kernel_step(self):
        env = Environment()
        profiler = EngineProfiler(env)
        assert "step" in env.__dict__
        profiler.detach()
        assert "step" not in env.__dict__
        profiler.detach()  # idempotent
        # A new profiler can attach after detach.
        EngineProfiler(env)

    def test_heap_statistics(self):
        env = Environment()
        for index in range(10):
            _workload(env, name=f"w{index}")
        profiler = EngineProfiler(env)
        env.run()
        assert profiler.heap.depth_max >= 10
        assert profiler.heap.mean_depth > 0
        assert profiler.heap.scheduled == env.events_scheduled - 10

    def test_summary_and_report_render(self):
        env = Environment()
        _workload(env)
        profiler = EngineProfiler(env)
        env.run()
        doc = profiler.summary()
        assert doc["dispatches"] == profiler.dispatches
        assert doc["event_types"]
        shares = [row["share"] for row in doc["event_types"]]
        assert shares == sorted(shares, reverse=True)
        text = profiler.report()
        assert "engine profile" in text
        assert "calendar" in text

    def test_empty_environment_summary(self):
        profiler = EngineProfiler(Environment())
        doc = profiler.summary()
        assert doc["dispatches"] == 0
        assert doc["dispatch_rate_per_sec"] == 0.0


class TestHotPathProfile:
    def test_returns_result_and_ranked_rows(self):
        def busy():
            return sum(i * i for i in range(20_000))

        result, rows = hot_path_profile(busy, top=5)
        assert result == sum(i * i for i in range(20_000))
        assert rows
        assert len(rows) <= 5
        cumulative = [row.cumulative_seconds for row in rows]
        assert cumulative == sorted(cumulative, reverse=True)

    def test_passes_arguments_through(self):
        result, _rows = hot_path_profile(lambda a, b=0: a + b, 2, b=3)
        assert result == 5

    def test_format_hot_paths(self):
        _result, rows = hot_path_profile(lambda: sorted(range(1000)))
        text = format_hot_paths(rows)
        assert "function" in text
        assert len(text.splitlines()) == len(rows) + 1
