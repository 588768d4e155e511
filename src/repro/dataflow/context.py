"""SparkContext — the driver-side entry point of the dataflow engine.

"Spark has a context shared by all the executors, called SparkContext.
PSGraph uses it to get Spark settings and runtime statistics" (Sec. III-C).
The simulated context additionally owns the pieces a real cluster would
distribute: the executors (Yarn containers), the shuffle service, the DAG
scheduler, the HDFS client and the RPC environment shared with the parameter
server.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, List

import numpy as np

from repro.common.config import ClusterConfig
from repro.common.metrics import EXECUTORS_ALIVE_G, MetricsRegistry
from repro.common.simclock import SimClock, barrier
from repro.dataflow.executor import Executor
from repro.obs.tracer import NOOP_TRACER, NoopTracer
from repro.dataflow.rdd import RDD, ParallelCollectionRDD, TextFileRDD
from repro.dataflow.scheduler import DAGScheduler
from repro.dataflow.shuffle import ShuffleService
from repro.hdfs.filesystem import Hdfs
from repro.net.rpc import RpcEnv
from repro.yarn.resource_manager import Container, ResourceManager

#: Hook signature: ``hook(stage_id, partition, kind)`` called after each task.
TaskHook = Callable[[int, int, str], None]

#: Hook signature: ``hook(now_s)`` called on sim-clock ticks (stage ends,
#: PS barriers, recovery detection) — the telemetry sampling points.
TickHook = Callable[[float], None]


class SparkContext:
    """Driver for one simulated Spark application.

    Args:
        cluster: resource allocation and cost model for the job.
        hdfs: shared filesystem; created fresh when omitted.
        metrics: shared metrics registry; created fresh when omitted.
        resource_manager: shared Yarn; created fresh when omitted.
        rpc: shared RPC fabric (the PS attaches here); created when omitted.
        tracer: sim-time span tracer threaded into every subsystem this
            context creates; the default no-op tracer records nothing.
            (Subsystems passed in pre-built keep their own tracer.)
        app_name: label used for the driver container id.
        auto_restart_executors: when True (Spark's behaviour), a task routed
            to a dead executor restarts it via the resource manager instead
            of failing the job.
        retry_backoff_base_s / retry_backoff_max_s: exponential backoff the
            driver waits (in sim-time) before re-launching a failed task
            attempt: ``min(max, base * 2**(attempt-1))`` seconds.
        speculation: when True, a task whose preferred executor is a known
            straggler (``slowdown >= speculation_multiplier``) launches its
            speculative copy on the least-busy healthy executor instead —
            the copy wins and the straggler attempt is never started.
        speculation_multiplier: slowdown factor above which an executor is
            treated as a straggler by speculation.
    """

    def __init__(self, cluster: ClusterConfig, *,
                 hdfs: Hdfs | None = None,
                 metrics: MetricsRegistry | None = None,
                 resource_manager: ResourceManager | None = None,
                 rpc: RpcEnv | None = None,
                 tracer: NoopTracer = NOOP_TRACER,
                 app_name: str = "app",
                 auto_restart_executors: bool = True,
                 retry_backoff_base_s: float = 1.0,
                 retry_backoff_max_s: float = 60.0,
                 speculation: bool = False,
                 speculation_multiplier: float = 1.5) -> None:
        self.cluster = cluster
        self.app_name = app_name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.hdfs = hdfs if hdfs is not None else Hdfs(
            cluster.cost_model, self.metrics
        )
        self.resource_manager = (
            resource_manager if resource_manager is not None
            else ResourceManager(self.metrics, tracer=tracer)
        )
        self.rpc = rpc if rpc is not None else RpcEnv(
            cluster.cost_model, self.metrics
        )
        self.auto_restart_executors = auto_restart_executors
        self.retry_backoff_base_s = retry_backoff_base_s
        self.retry_backoff_max_s = retry_backoff_max_s
        self.speculation = speculation
        self.speculation_multiplier = speculation_multiplier
        self.driver: Container = self.resource_manager.request(
            "driver", cluster.executor_mem_bytes, name=f"driver-{app_name}"
        )
        self.executors: List[Executor] = [
            Executor(i, c)
            for i, c in enumerate(
                self.resource_manager.request_many(
                    "executor", cluster.num_executors,
                    cluster.executor_mem_bytes, cluster.executor_cores,
                )
            )
        ]
        # The shuffle service, HDFS and RPC fabric trace their in-task
        # operations through the running TaskContext (see taskctx.task_span),
        # so only clock-owning subsystems receive the tracer directly.
        self.shuffle_service = ShuffleService(cluster.cost_model, self.metrics)
        self.scheduler = DAGScheduler(self)
        self._task_hooks: List[TaskHook] = []
        self._tick_hooks: List[TickHook] = []
        self._stopped = False
        self._update_liveness_gauge()
        # Per-context id streams: shuffle/RDD ids must restart at 0 for
        # every application so that span tags (e.g. "shuffle-3") are
        # reproducible across runs in the same process.
        self._shuffle_ids = itertools.count()
        self._rdd_ids = itertools.count()

    def next_shuffle_id(self) -> int:
        """Allocate a shuffle id unique within this context."""
        return next(self._shuffle_ids)

    def next_rdd_id(self) -> int:
        """Allocate an RDD id unique within this context."""
        return next(self._rdd_ids)

    # ------------------------------------------------------------------
    # RDD creation
    # ------------------------------------------------------------------

    def parallelize(self, data: Iterable[Any],
                    num_partitions: int | None = None) -> RDD:
        """Distribute a driver-side collection into an RDD."""
        data = list(data)
        n = num_partitions or min(self.cluster.parallelism, max(1, len(data)))
        return ParallelCollectionRDD(self, data, max(1, n))

    def parallelize_batches(self, keys: Any, values: Any,
                            num_partitions: int | None = None) -> RDD:
        """Distribute aligned key/value columns as one RecordBatch per
        partition.

        Carries exactly the records ``parallelize(list(zip(keys, values)),
        n)`` would place in each partition (the same ``[i::n]`` slices, in
        the same order) but keeps them columnar, so the shuffle and
        reduce-by-key hot paths run vectorized.
        """
        from repro.common.batch import RecordBatch

        keys = np.asarray(keys)
        values = np.asarray(values)
        n = num_partitions or min(self.cluster.parallelism, max(1, len(keys)))
        n = max(1, n)
        batches = [
            RecordBatch(keys[i::n].copy(), values[i::n].copy())
            for i in range(n)
        ]
        return ParallelCollectionRDD(self, batches, n)

    def range(self, n: int, num_partitions: int | None = None) -> RDD:
        """RDD of ``0 .. n-1``."""
        return self.parallelize(range(n), num_partitions)

    def empty_rdd(self) -> RDD:
        """An RDD with a single empty partition."""
        return ParallelCollectionRDD(self, [], 1)

    def text_file(self, path: str,
                  min_partitions: int | None = None) -> RDD:
        """Lines of an HDFS file or directory."""
        return TextFileRDD(self, path, min_partitions)

    def union(self, rdds: List[RDD]) -> RDD:
        """Union of several RDDs."""
        from repro.dataflow.rdd import UnionRDD

        return UnionRDD(self, rdds)

    def broadcast(self, value: Any):
        """Ship a read-only value to every executor (charged once each)."""
        from repro.dataflow.broadcast import Broadcast

        return Broadcast(self, value)

    # ------------------------------------------------------------------
    # executors, placement and failure
    # ------------------------------------------------------------------

    def live_executor_map(self) -> dict:
        """Map of executor container id -> liveness, for the shuffle layer."""
        return {ex.id: ex.alive for ex in self.executors}

    def executor_for_partition(self, partition: int) -> Executor:
        """Deterministic preferred executor for a partition, with failover.

        Placement mixes the partition id (Knuth multiplicative hash) so
        that partition schemes which are themselves modular (``v mod P``)
        do not alias onto ``P mod E`` — otherwise several partitions of
        the *same* skewed key range would stack on one executor.
        """
        mixed = (partition * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF
        idx = mixed % len(self.executors)
        executor = self.executors[idx]
        if executor.alive:
            return executor
        if self.auto_restart_executors:
            self.restart_executor(idx)
            # Verify the restart actually re-registered the executor as
            # alive before placing work on it; fall through to failover
            # if the container did not come back.
            if executor.alive:
                return executor
        # Failover: re-mix the already-mixed id over the *live* executors
        # so the dead executor's partitions spread across all survivors
        # instead of stacking onto the next index (skew).
        live = [ex for ex in self.executors if ex.alive]
        if not live:
            raise RuntimeError("no live executors")
        remixed = ((mixed ^ 0x85EBCA6B) * 0xC2B2AE35) & 0xFFFFFFFF
        return live[remixed % len(live)]

    def kill_executor(self, index: int, reason: str = "failure injection"
                      ) -> None:
        """Failure injection: kill one executor, losing its cache and
        shuffle outputs (Table II's "manually kill an executor")."""
        executor = self.executors[index]
        self.resource_manager.kill(executor.container, reason)
        executor.invalidate()
        self.shuffle_service.invalidate_executor(executor.id)
        self._update_liveness_gauge()

    def restart_executor(self, index: int) -> Executor:
        """Restart a dead executor via the resource manager."""
        executor = self.executors[index]
        self.resource_manager.restart(executor.container)
        executor.invalidate()
        self._update_liveness_gauge()
        return executor

    def handle_executor_failure(self, executor: Executor) -> None:
        """React to a mid-task container loss (scheduler callback)."""
        executor.invalidate()
        self.shuffle_service.invalidate_executor(executor.id)
        if self.auto_restart_executors:
            self.resource_manager.restart(executor.container)
        self._update_liveness_gauge()

    def _update_liveness_gauge(self) -> None:
        """Refresh the executor-liveness gauge after membership changes."""
        self.metrics.set_gauge(
            EXECUTORS_ALIVE_G,
            float(sum(1 for ex in self.executors if ex.alive)),
        )

    # ------------------------------------------------------------------
    # hooks & time
    # ------------------------------------------------------------------

    def add_task_hook(self, hook: TaskHook) -> None:
        """Register a post-task callback (used for failure injection)."""
        self._task_hooks.append(hook)

    def remove_task_hook(self, hook: TaskHook) -> None:
        """Unregister a post-task callback.

        Idempotent: removing a hook that is not (or no longer) registered
        is a no-op, so nested failure-injection experiments can tear down
        unconditionally.
        """
        try:
            self._task_hooks.remove(hook)
        except ValueError:
            pass

    def notify_task_complete(self, stage_id: int, partition: int,
                             kind: str) -> None:
        """Invoke registered task hooks (called by the scheduler)."""
        for hook in list(self._task_hooks):
            hook(stage_id, partition, kind)

    def add_tick_hook(self, hook: TickHook) -> None:
        """Register a sim-clock tick callback (telemetry sampling)."""
        self._tick_hooks.append(hook)

    def remove_tick_hook(self, hook: TickHook) -> None:
        """Unregister a tick callback (idempotent, like task hooks)."""
        try:
            self._tick_hooks.remove(hook)
        except ValueError:
            pass

    def notify_tick(self, now_s: float) -> None:
        """Invoke tick hooks at a deterministic sim-time sampling point.

        Called at stage-end barriers, PS epoch barriers and recovery
        detection — never from wall-clock timers, so a seeded run ticks
        at exactly the same sim times every time.
        """
        for hook in list(self._tick_hooks):
            hook(now_s)

    @property
    def driver_clock(self) -> SimClock:
        """The driver container's clock; job time is read from here."""
        return self.driver.clock

    def charge_driver_result(self, nbytes: int) -> None:
        """Charge the driver for collecting ``nbytes`` of results."""
        self.driver.clock.advance(
            self.cluster.cost_model.network_time(nbytes)
        )

    def sim_time(self) -> float:
        """Current simulated job time in seconds (driver clock)."""
        return self.driver.clock.now_s

    def sync_clocks(self) -> float:
        """Barrier the driver with every live executor; returns the time."""
        clocks = [self.driver.clock] + [
            ex.container.clock for ex in self.executors if ex.alive
        ]
        return barrier(clocks)

    def reset_clocks(self) -> None:
        """Zero all clocks (between independent measurements)."""
        self.driver.clock.reset()
        for ex in self.executors:
            ex.container.clock.reset()

    def stop(self) -> None:
        """Release every container owned by this context."""
        if self._stopped:
            return
        self._stopped = True
        for ex in self.executors:
            self.resource_manager.release(ex.container)
        self.resource_manager.release(self.driver)
