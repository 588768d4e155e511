"""Hash shuffle with disk spill and metering.

This module implements the mechanism the paper blames for GraphX's
performance: "The join operation of Spark ... yields costly shuffle operation
between the map task and the reduce task, which needs to write and read
temporary data via the disk" (Sec. I).

Map tasks bucket their output by reduce partition, paying serialization CPU,
a transient in-memory sort buffer, and a disk write; reduce tasks pay a disk
read plus network time for the remote fraction of the bytes.  Map outputs
live on the executor that produced them, so killing an executor invalidates
its outputs and forces the scheduler to recompute them — the Spark recovery
path exercised by Table II.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.common.batch import (
    COMBINE_UFUNCS,
    RecordBatch,
    iter_records,
    segment_reduce,
    split_batch,
)
from repro.common.costs import CostModel
from repro.common.errors import PSGraphError
from repro.common.metrics import (
    SHUFFLE_BYTES_READ,
    SHUFFLE_BYTES_WRITTEN,
    SHUFFLE_FETCH_H,
    SHUFFLE_RECORDS,
    SHUFFLE_WRITE_H,
    MetricsRegistry,
)
from repro.common.simclock import TaskCost
from repro.common.sizeof import sizeof_records
from repro.dataflow.executor import Executor
from repro.dataflow.taskctx import task_span

# Shuffle-id allocation lives on SparkContext (``ctx.next_shuffle_id()``)
# so restarted contexts never drift; no module-global counter here.

#: One reduce bucket: a boxed record list or a columnar batch.
Bucket = Any


def bucket_map_output(
    records: List[Any],
    partitioner: Any,
    map_side_combine: Optional[Tuple[Callable, Callable]] = None,
    combine_op: Optional[str] = None,
) -> Dict[int, Bucket]:
    """Bucket one map task's records by reduce partition.

    When the partition consists entirely of columnar
    :class:`~repro.common.batch.RecordBatch` elements — and any requested
    map-side combine is one of the known numeric ops — bucketing runs
    vectorized: a segment-reduce for the combine, ``partition_array`` on
    the key column, and one stable argsort to split rows into per-bucket
    batches.  Anything else takes the boxed per-record loop (batches are
    exploded to pairs first), which is byte- and order-equivalent.
    """
    vectorizable = bool(records) and all(
        isinstance(r, RecordBatch) and r.is_columnar for r in records
    )
    if vectorizable and (map_side_combine is None
                         or combine_op in COMBINE_UFUNCS):
        merged = RecordBatch.concat(records)
        keys, values = merged.keys, merged.values
        if map_side_combine is not None:
            keys, values = segment_reduce(keys, values, combine_op)
        pids = partitioner.partition_array(keys)
        return split_batch(keys, values, pids)

    buckets: Dict[int, List[Any]] = defaultdict(list)
    stream = iter_records(records)
    if map_side_combine is not None:
        create, merge = map_side_combine
        combined: Dict[Any, Any] = {}
        for k, v in stream:
            if k in combined:
                combined[k] = merge(combined[k], v)
            else:
                combined[k] = create(v)
        for k, v in combined.items():
            buckets[partitioner.partition(k)].append((k, v))
    else:
        for k, v in stream:
            buckets[partitioner.partition(k)].append((k, v))
    return dict(buckets)


class ShuffleOutputLostError(PSGraphError):
    """A reduce task needed map output whose owning executor died."""

    def __init__(self, shuffle_id: int, map_partition: int) -> None:
        self.shuffle_id = shuffle_id
        self.map_partition = map_partition
        super().__init__(
            f"shuffle {shuffle_id} lost output of map partition {map_partition}"
        )


@dataclass
class MapOutput:
    """Bucketed output of one map task."""

    owner: str  # executor id that holds the files
    buckets: Dict[int, Bucket]
    bucket_bytes: Dict[int, int]
    records: int


@dataclass
class ShuffleService:
    """Cluster-wide registry of shuffle map outputs."""

    cost_model: CostModel
    metrics: MetricsRegistry | None = None
    _outputs: Dict[Tuple[int, int], MapOutput] = field(default_factory=dict)

    # -- map side ----------------------------------------------------------

    def write(self, shuffle_id: int, map_partition: int, executor: Executor,
              buckets: Dict[int, Bucket], cost: TaskCost) -> MapOutput:
        """Store one map task's bucketed output, charging the writer.

        The writer pays: per-bucket serialization CPU, a transient in-memory
        buffer of ``shuffle_buffer_overhead`` times the logical bytes (this
        is where an undersized executor OOMs), and a disk write.
        """
        bucket_bytes = {r: sizeof_records(b) for r, b in buckets.items()}
        total = sum(bucket_bytes.values())
        records = sum(len(b) for b in buckets.values())
        buffer_bytes = int(total * self.cost_model.shuffle_buffer_overhead)
        # Spark's sort buffer spills when execution memory runs out, so the
        # in-memory footprint is bounded; the full bytes still pay disk.
        capacity = executor.container.memory.capacity
        if capacity is not None:
            buffer_bytes = min(buffer_bytes, int(capacity * 0.5))
        tag = f"shuffle-buffer:{shuffle_id}:{map_partition}"
        executor.container.memory.allocate(buffer_bytes, tag=tag)
        try:
            with task_span("shuffle.write", cost,
                           {"shuffle": shuffle_id, "map": map_partition,
                            "bytes": total, "records": records}):
                cost.cpu_s += self.cost_model.serialization_time(total)
                cost.disk_s += self.cost_model.disk_write_time(total)
        finally:
            executor.container.memory.release_tag(tag)
        out = MapOutput(executor.id, buckets, bucket_bytes, records)
        self._outputs[(shuffle_id, map_partition)] = out
        if self.metrics is not None:
            self.metrics.inc(SHUFFLE_BYTES_WRITTEN, total)
            self.metrics.inc(SHUFFLE_RECORDS, records)
            self.metrics.observe(SHUFFLE_WRITE_H, total)
        return out

    def has_output(self, shuffle_id: int, map_partition: int,
                   live_executors: Dict[str, bool]) -> bool:
        """True if the map output exists and its owner is still alive."""
        out = self._outputs.get((shuffle_id, map_partition))
        return out is not None and live_executors.get(out.owner, False)

    # -- reduce side ---------------------------------------------------------

    def read(self, shuffle_id: int, reduce_partition: int,
             num_map_partitions: int, executor: Executor, cost: TaskCost,
             live_executors: Dict[str, bool]) -> List[Any]:
        """Fetch all buckets for ``reduce_partition``, charging the reader.

        Raises:
            ShuffleOutputLostError: if any required map output's owner died;
                the scheduler reacts by recomputing the map stage.
        """
        records: List[Any] = []
        local_bytes = 0
        remote_bytes = 0
        for mp in range(num_map_partitions):
            out = self._outputs.get((shuffle_id, mp))
            if out is None or not live_executors.get(out.owner, False):
                raise ShuffleOutputLostError(shuffle_id, mp)
            bucket = out.buckets.get(reduce_partition)
            if bucket is None or len(bucket) == 0:
                continue
            nbytes = out.bucket_bytes.get(reduce_partition, 0)
            if out.owner == executor.id:
                local_bytes += nbytes
            else:
                remote_bytes += nbytes
            if isinstance(bucket, RecordBatch):
                records.append(bucket)
            else:
                records.extend(bucket)
        total = local_bytes + remote_bytes
        with task_span("shuffle.fetch", cost,
                       {"shuffle": shuffle_id, "reduce": reduce_partition,
                        "local_bytes": local_bytes,
                        "remote_bytes": remote_bytes}):
            cost.disk_s += self.cost_model.disk_read_time(total)
            cost.net_s += self.cost_model.network_time(remote_bytes)
            cost.cpu_s += self.cost_model.serialization_time(total)
        if self.metrics is not None:
            self.metrics.inc(SHUFFLE_BYTES_READ, total)
            self.metrics.observe(SHUFFLE_FETCH_H, total)
        return records

    # -- failure handling ---------------------------------------------------

    def invalidate_executor(self, executor_id: str) -> int:
        """Drop every map output owned by a dead executor; returns count."""
        doomed = [
            k for k, out in self._outputs.items() if out.owner == executor_id
        ]
        for k in doomed:
            del self._outputs[k]
        return len(doomed)

    def drop_shuffle(self, shuffle_id: int) -> None:
        """Discard all outputs of one shuffle (job cleanup)."""
        doomed = [k for k in self._outputs if k[0] == shuffle_id]
        for k in doomed:
            del self._outputs[k]

    def output_exists(self, shuffle_id: int, map_partition: int) -> bool:
        """True if any output is registered (regardless of owner liveness)."""
        return (shuffle_id, map_partition) in self._outputs
