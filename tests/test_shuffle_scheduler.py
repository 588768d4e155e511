"""Deeper tests of the shuffle service, scheduler and cost accounting."""

import numpy as np
import pytest

from repro.common.config import ClusterConfig
from repro.common.costs import CostModel
from repro.common.errors import StageFailedError
from repro.common.metrics import (
    SHUFFLE_BYTES_READ,
    SHUFFLE_BYTES_WRITTEN,
    TASKS_FAILED,
)
from repro.common.simclock import TaskCost
from repro.dataflow.context import SparkContext
from repro.dataflow.shuffle import ShuffleOutputLostError, ShuffleService
from tests.conftest import make_context


class TestShuffleService:
    def _service_and_executors(self, n=2, mem=1 << 30):
        ctx = make_context(num_executors=n, executor_mem=mem)
        return ctx, ctx.shuffle_service

    def test_write_read_roundtrip(self):
        ctx, svc = self._service_and_executors()
        try:
            sid = ctx.next_shuffle_id()
            cost = TaskCost()
            svc.write(sid, 0, ctx.executors[0],
                      {0: [("a", 1)], 1: [("b", 2)]}, cost)
            svc.write(sid, 1, ctx.executors[1], {0: [("c", 3)]}, cost)
            got = svc.read(sid, 0, 2, ctx.executors[0], TaskCost(),
                           ctx.live_executor_map())
            assert sorted(got) == [("a", 1), ("c", 3)]
        finally:
            ctx.stop()

    def test_read_missing_output_raises(self):
        ctx, svc = self._service_and_executors()
        try:
            sid = ctx.next_shuffle_id()
            svc.write(sid, 0, ctx.executors[0], {0: [(1, 1)]}, TaskCost())
            with pytest.raises(ShuffleOutputLostError):
                svc.read(sid, 0, 2, ctx.executors[0], TaskCost(),
                         ctx.live_executor_map())
        finally:
            ctx.stop()

    def test_dead_owner_invalidates(self):
        ctx, svc = self._service_and_executors()
        try:
            sid = ctx.next_shuffle_id()
            svc.write(sid, 0, ctx.executors[1], {0: [(1, 1)]}, TaskCost())
            live = ctx.live_executor_map()
            assert svc.has_output(sid, 0, live)
            live[ctx.executors[1].id] = False
            assert not svc.has_output(sid, 0, live)
            with pytest.raises(ShuffleOutputLostError):
                svc.read(sid, 0, 1, ctx.executors[0], TaskCost(), live)
        finally:
            ctx.stop()

    def test_invalidate_executor_drops_outputs(self):
        ctx, svc = self._service_and_executors()
        try:
            sid = ctx.next_shuffle_id()
            svc.write(sid, 0, ctx.executors[0], {0: [(1, 1)]}, TaskCost())
            svc.write(sid, 1, ctx.executors[1], {0: [(2, 2)]}, TaskCost())
            assert svc.invalidate_executor(ctx.executors[0].id) == 1
            assert not svc.output_exists(sid, 0)
            assert svc.output_exists(sid, 1)
        finally:
            ctx.stop()

    def test_remote_fraction_charges_network(self):
        ctx, svc = self._service_and_executors()
        try:
            sid = ctx.next_shuffle_id()
            payload = {0: [(i, i) for i in range(100)]}
            svc.write(sid, 0, ctx.executors[1], dict(payload), TaskCost())
            local = TaskCost()
            svc.read(sid, 0, 1, ctx.executors[1], local,
                     ctx.live_executor_map())
            remote = TaskCost()
            svc.read(sid, 0, 1, ctx.executors[0], remote,
                     ctx.live_executor_map())
            assert remote.net_s > local.net_s
            assert remote.disk_s == pytest.approx(local.disk_s)
        finally:
            ctx.stop()

    def test_spill_bounds_buffer(self):
        cm = CostModel()
        ctx = make_context(num_executors=1, executor_mem=10_000)
        try:
            svc = ShuffleService(cm)
            big = {0: [np.zeros(5000)]}  # 40KB logical > capacity
            svc.write(ctx.next_shuffle_id(), 0, ctx.executors[0], big,
                      TaskCost())  # must not OOM: buffer capped at 50%
        finally:
            ctx.stop()

    def test_metrics_track_bytes(self, sc):
        sc.parallelize([(i % 3, i) for i in range(100)]).group_by_key() \
            .count()
        assert sc.metrics.get(SHUFFLE_BYTES_WRITTEN) > 0
        assert sc.metrics.get(SHUFFLE_BYTES_READ) > 0


class TestSchedulerRecovery:
    def test_mid_stage_executor_death_retries(self):
        ctx = make_context(num_executors=3)
        try:
            state = {"killed": False}

            def hook(_s, _p, kind):
                if kind == "result" and not state["killed"]:
                    state["killed"] = True
                    ctx.kill_executor(1)

            ctx.add_task_hook(hook)
            got = sorted(ctx.parallelize(range(30), 6).map(
                lambda x: x * 2).collect())
            assert got == [x * 2 for x in range(30)]
            assert ctx.metrics.get(TASKS_FAILED) >= 0
        finally:
            ctx.stop()

    def test_shuffle_lost_recomputed_between_actions(self):
        ctx = make_context(num_executors=3)
        try:
            rdd = ctx.parallelize([(i % 5, 1) for i in range(50)], 6) \
                .reduce_by_key(lambda a, b: a + b)
            first = dict(rdd.collect())
            # Kill every executor's shuffle files.
            for i in range(3):
                ctx.kill_executor(i)
            second = dict(rdd.collect())
            assert first == second == {k: 10 for k in range(5)}
        finally:
            ctx.stop()

    def test_all_executors_dead_no_auto_restart(self):
        cluster = ClusterConfig(num_executors=2,
                                executor_mem_bytes=1 << 30)
        ctx = SparkContext(cluster, auto_restart_executors=False)
        try:
            ctx.kill_executor(0)
            ctx.kill_executor(1)
            with pytest.raises(RuntimeError):
                ctx.parallelize([1, 2]).collect()
        finally:
            ctx.stop()

    def test_failover_without_auto_restart(self):
        cluster = ClusterConfig(num_executors=3,
                                executor_mem_bytes=1 << 30)
        ctx = SparkContext(cluster, auto_restart_executors=False)
        try:
            ctx.kill_executor(0)
            got = sorted(ctx.parallelize(range(12), 6).collect())
            assert got == list(range(12))
            # Dead executor was routed around, not restarted.
            assert ctx.executors[0].container.restarts == 0
        finally:
            ctx.stop()

    def test_run_stage_custom_tasks(self, sc):
        results = sc.scheduler.run_stage(
            5, lambda p, tctx: p * p, kind="custom-test"
        )
        assert results == [0, 1, 4, 9, 16]

    def test_failover_spreads_across_survivors(self):
        # The dead executor's partitions must not all stack onto one
        # neighbor (skew): failover re-mixes over the live executors.
        cluster = ClusterConfig(num_executors=4,
                                executor_mem_bytes=1 << 30)
        ctx = SparkContext(cluster, auto_restart_executors=False)
        try:
            victim = 1
            orphans = [
                p for p in range(200)
                if ((p * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF) % 4
                == victim
            ]
            assert len(orphans) > 10
            ctx.kill_executor(victim)
            landed = {ctx.executor_for_partition(p).index
                      for p in orphans}
            assert victim not in landed
            assert len(landed) > 1
        finally:
            ctx.stop()

    def test_failed_restart_falls_back_to_failover(self):
        # If the resource manager cannot actually revive the container,
        # placement must verify liveness and route around it instead of
        # handing work to a dead executor.
        ctx = make_context(num_executors=3)
        try:
            victim_p = next(
                p for p in range(100)
                if ((p * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF) % 3 == 1
            )
            ctx.kill_executor(1)
            ctx.resource_manager.restart = lambda container: None
            chosen = ctx.executor_for_partition(victim_p)
            assert chosen.alive
            assert chosen.index != 1
        finally:
            ctx.stop()

    def test_remove_task_hook_idempotent(self, sc):
        def hook(_s, _p, _k):
            pass

        sc.add_task_hook(hook)
        sc.remove_task_hook(hook)
        sc.remove_task_hook(hook)  # double removal: no ValueError
        sc.remove_task_hook(lambda *_: None)  # never registered: no-op

    def test_retry_backoff_advances_driver_clock(self):
        times = {}
        for base in (0.0, 50.0):
            cluster = ClusterConfig(num_executors=2,
                                    executor_mem_bytes=1 << 30)
            ctx = SparkContext(cluster, retry_backoff_base_s=base)
            try:
                state = {"failed": False}

                def task(p, tctx, _state=state, _ctx=ctx):
                    if p == 0 and not _state["failed"]:
                        _state["failed"] = True
                        _ctx.kill_executor(tctx.executor.index)
                        tctx.executor.ensure_alive()
                    return p

                got = ctx.scheduler.run_stage(2, task, kind="flaky")
                assert got == [0, 1]
                times[base] = ctx.sim_time()
            finally:
                ctx.stop()
        # One failed attempt: backoff waits base * 2**0 on the driver.
        assert times[50.0] >= times[0.0] + 50.0

    def test_speculation_reroutes_straggler_tasks(self):
        from repro.common.metrics import TASKS_SPECULATED

        cluster = ClusterConfig(num_executors=3,
                                executor_mem_bytes=1 << 30)
        ctx = SparkContext(cluster, speculation=True)
        try:
            ctx.executors[1].slowdown = 10.0
            got = sorted(ctx.parallelize(range(30), 6).map(
                lambda x: x + 1).collect())
            assert got == [x + 1 for x in range(30)]
            assert ctx.metrics.get(TASKS_SPECULATED) > 0
        finally:
            ctx.stop()

    def test_straggler_slowdown_stretches_sim_time(self):
        times = {}
        for factor in (1.0, 40.0):
            ctx = make_context(num_executors=2)
            try:
                for ex in ctx.executors:
                    ex.slowdown = factor
                ctx.parallelize(range(4000), 8).map(
                    lambda x: x + 1).count()
                times[factor] = ctx.sim_time()
            finally:
                ctx.stop()
        assert times[40.0] > times[1.0] * 2

    def test_persistent_task_failure_raises_stage_failed(self):
        ctx = make_context(num_executors=2)
        try:
            def bad_task(p, tctx):
                ctx.kill_executor(tctx.executor.index)
                tctx.executor.ensure_alive()

            with pytest.raises(StageFailedError):
                ctx.scheduler.run_stage(1, bad_task, kind="doomed")
        finally:
            ctx.stop()


class TestKillDuringShuffle:
    """A map-side executor dying after its shuffle write must trigger
    parent-stage recomputation — on both record representations."""

    def _run(self, ctx, batched):
        keys = [i % 5 for i in range(50)]
        values = [1.0] * 50
        if batched:
            rdd = ctx.parallelize_batches(
                np.array(keys, dtype=np.int64),
                np.array(values), 6,
            ).reduce_by_key(op="add", num_partitions=4)
            return dict(rdd.collect_records())
        rdd = ctx.parallelize(list(zip(keys, values)), 6) \
            .reduce_by_key(lambda a, b: a + b)
        return dict(rdd.collect())

    @pytest.mark.parametrize("batched", [False, True])
    def test_map_executor_killed_after_write(self, batched):
        ctx = make_context(num_executors=3)
        try:
            state = {"killed": False}

            def hook(_stage, partition, kind):
                # Kill the executor that just wrote this map output; its
                # shuffle files die with it.
                if kind.startswith("shuffle-") and not state["killed"]:
                    state["killed"] = True
                    ctx.kill_executor(
                        ctx.executor_for_partition(partition).index
                    )

            ctx.add_task_hook(hook)
            got = self._run(ctx, batched)
            assert got == {k: 10.0 for k in range(5)}
            assert state["killed"]
            assert ctx.metrics.get(TASKS_FAILED) >= 1
        finally:
            ctx.stop()

    @pytest.mark.parametrize("batched", [False, True])
    def test_clean_run_has_no_failures(self, batched):
        ctx = make_context(num_executors=3)
        try:
            got = self._run(ctx, batched)
            assert got == {k: 10.0 for k in range(5)}
            assert ctx.metrics.get(TASKS_FAILED) == 0
        finally:
            ctx.stop()


class TestSimTimeAccounting:
    def test_parallel_work_faster_than_serial(self):
        # Same total records, 1 vs 8 executors: sim time shrinks.
        t = {}
        for n in (1, 8):
            ctx = make_context(num_executors=n)
            try:
                ctx.parallelize(range(20000), 8).map(
                    lambda x: x + 1).count()
                t[n] = ctx.sim_time()
            finally:
                ctx.stop()
        assert t[8] < t[1] / 3

    def test_cores_divide_task_time(self):
        t = {}
        for cores in (1, 4):
            cluster = ClusterConfig(
                num_executors=2, executor_mem_bytes=1 << 30,
                executor_cores=cores, default_parallelism=8,
            )
            ctx = SparkContext(cluster)
            try:
                ctx.parallelize(range(20000), 8).map(
                    lambda x: x + 1).count()
                t[cores] = ctx.sim_time()
            finally:
                ctx.stop()
        assert t[4] < t[1]

    def test_barrier_includes_driver(self, sc):
        sc.parallelize(range(100)).count()
        t = sc.sim_time()
        for ex in sc.executors:
            assert ex.container.clock.now_s <= t + 1e-12
