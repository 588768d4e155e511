"""Columnar record batches for the dataflow hot paths.

The simulator's costs are *simulated*, but the host-side work of moving a
partition through shuffle bucketing, map-side combine and metering is real
Python, and at a million records per partition the interpreter — not the
cost model — dominates wall-clock.  PSGraph itself makes the analogous
move on the JVM: "the PS agent pulls and pushes data in primitive arrays"
(Sec. III), and related systems (Tencent's Spark network-embedding
pipeline, GraphTheta) attribute their throughput to keeping partitions in
primitive arrays instead of boxed records.

A :class:`RecordBatch` is a numpy key column plus an aligned value column
(1-D scalars or a 2-D row matrix), with a boxed-object fallback for values
numpy cannot hold.  Partitions may carry batches *instead of* Python lists
of ``(key, value)`` pairs; the shuffle layer detects them and buckets with
``np.argsort`` on the partition-id vector, runs numeric map-side combines
as vectorized segment-reduces, and meters them in O(1).

**Cost transparency is the contract.**  A batch is a host-side
representation change only: it must charge the *identical* simulated
costs, logical bytes, metrics and span sequence as the boxed record list
it replaces.  :meth:`RecordBatch.logical_nbytes` therefore computes the
byte size the equivalent boxed list would have metered (container entries
plus per-pair tuples), not the raw ``ndarray.nbytes`` — the simulated
distinction between boxed and primitive processing stays where it always
was, in the cost model's ``cpu_record_s`` vs ``cpu_primitive_record_s``
and the explicit JVM-overhead multipliers.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.common.sizeof import (
    CONTAINER_ENTRY_BYTES,
    SCALAR_BYTES,
    sizeof,
    sizeof_records,
)

#: Boxed reducer callables for the vectorizable numeric combine ops.
COMBINE_FNS = {
    "add": lambda a, b: a + b,
    "min": lambda a, b: a if a <= b else b,
    "max": lambda a, b: a if a >= b else b,
}

#: numpy ufuncs implementing the same ops as a segment-reduce.
COMBINE_UFUNCS = {
    "add": np.add,
    "min": np.minimum,
    "max": np.maximum,
}


class RecordBatch:
    """A columnar block of ``(key, value)`` records.

    Args:
        keys: 1-D array, one key per record.
        values: either an aligned 1-D array (scalar values), a 2-D array
            (one row per record), or a plain list of arbitrary objects
            (the boxed fallback — carried but not vectorizable).
    """

    __slots__ = ("keys", "values")

    def __init__(self, keys: np.ndarray, values: Any) -> None:
        self.keys = np.asarray(keys)
        if self.keys.ndim != 1:
            raise ValueError("RecordBatch keys must be 1-D")
        if self.keys.dtype.kind not in "iuf":
            raise ValueError(
                f"RecordBatch keys must be numeric, got {self.keys.dtype}"
            )
        if isinstance(values, np.ndarray):
            if len(values) != len(self.keys):
                raise ValueError(
                    f"keys/values length mismatch "
                    f"({len(self.keys)} vs {len(values)})"
                )
        elif len(values) != len(self.keys):
            raise ValueError("keys/values length mismatch")
        self.values = values

    # -- basic shape -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def num_records(self) -> int:
        """Number of logical records in the batch."""
        return len(self.keys)

    @property
    def is_columnar(self) -> bool:
        """True when the value column is a numpy array (vectorizable)."""
        return isinstance(self.values, np.ndarray)

    def __repr__(self) -> str:
        kind = (f"values[{self.values.dtype}]" if self.is_columnar
                else "boxed-values")
        return f"RecordBatch({len(self)} records, {kind})"

    # -- metering ----------------------------------------------------------

    def logical_nbytes(self) -> int:
        """Logical bytes of the *equivalent boxed record list*, in O(1).

        The boxed list of ``(key, value)`` pairs would meter as one list
        entry per record plus, per pair, a 2-tuple (three container
        entries) holding a scalar key and the value.  Computing this from
        the dtype keeps million-row metering constant-time while charging
        the exact same bytes as the records it stands in for.
        """
        n = len(self.keys)
        if n == 0:
            return CONTAINER_ENTRY_BYTES
        if self.is_columnar:
            if self.values.ndim == 1:
                value_bytes = SCALAR_BYTES
            else:
                value_bytes = int(
                    self.values.shape[1] * self.values.itemsize
                )
            per_record = 4 * CONTAINER_ENTRY_BYTES + SCALAR_BYTES + value_bytes
            return CONTAINER_ENTRY_BYTES + n * per_record
        # Boxed fallback: sample pairs exactly the way sizeof would sample
        # the materialized list, without materializing it.
        step = max(1, n // 32)
        sample = list(itertools.islice(self.to_pairs(), 0, step * 32, step))
        body = sum(sizeof(p) for p in sample)
        if n > len(sample):
            body = int(body / len(sample) * n)
        return CONTAINER_ENTRY_BYTES + n * CONTAINER_ENTRY_BYTES + body

    # -- conversions -------------------------------------------------------

    def to_pairs(self) -> Iterator[Tuple[Any, Any]]:
        """Yield boxed ``(key, value)`` pairs (the explode fallback)."""
        keys = self.keys.tolist()
        if self.is_columnar and self.values.ndim == 1:
            return zip(keys, self.values.tolist())
        if self.is_columnar:
            return zip(keys, (self.values[i] for i in range(len(keys))))
        return zip(keys, self.values)

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[Any, Any]],
                   key_dtype: Any = None) -> "RecordBatch":
        """Build a batch from boxed pairs, columnar when values allow it.

        Raises ``ValueError`` when the keys are not numeric.
        """
        items = list(pairs)
        keys = np.asarray([k for k, _v in items], dtype=key_dtype)
        raw = [v for _k, v in items]
        try:
            values: Any = np.asarray(raw)
            if values.dtype == object:
                values = raw
        except (ValueError, TypeError):
            values = raw
        return cls(keys, values)

    @classmethod
    def concat(cls, batches: Sequence["RecordBatch"]) -> "RecordBatch":
        """Concatenate several batches into one (columnar stays columnar)."""
        if len(batches) == 1:
            return batches[0]
        keys = np.concatenate([b.keys for b in batches])
        if all(b.is_columnar for b in batches):
            values: Any = np.concatenate([b.values for b in batches])
        else:
            values = [v for b in batches for _k, v in b.to_pairs()]
        return cls(keys, values)

    def select(self, index: np.ndarray) -> "RecordBatch":
        """A new batch of the records at ``index`` (in index order)."""
        if self.is_columnar:
            return RecordBatch(self.keys[index], self.values[index])
        return RecordBatch(
            self.keys[index], [self.values[i] for i in index.tolist()]
        )


# ----------------------------------------------------------------------
# record-level helpers used by the metered pipeline
# ----------------------------------------------------------------------


def record_count(item: Any) -> int:
    """Logical record count of one partition element (batches count fully)."""
    if isinstance(item, RecordBatch):
        return len(item)
    return 1


def accumulate_sequential(start: float, step: float, n: int) -> float:
    """Result of adding ``step`` to ``start`` ``n`` times, sequentially.

    ``ufunc.accumulate`` applies IEEE additions one by one (no pairwise
    regrouping), so this is *bitwise identical* to the boxed per-record
    ``cost += step`` loop while running at C speed — batched metering must
    not perturb even the last float bit of simulated time.
    """
    if n <= 0:
        return start
    arr = np.empty(n + 1, dtype=np.float64)
    arr[0] = start
    arr[1:] = step
    return float(np.add.accumulate(arr)[-1])


def iter_records(items: Iterable[Any]) -> Iterator[Any]:
    """Stream partition elements as boxed records, exploding batches."""
    for item in items:
        if isinstance(item, RecordBatch):
            yield from item.to_pairs()
        else:
            yield item


def explode_records(items: List[Any]) -> List[Any]:
    """Boxed record list of a partition; returns ``items`` itself when it
    contains no batches (the common case pays nothing)."""
    if not any(isinstance(x, RecordBatch) for x in items):
        return items
    return list(iter_records(items))


def records_nbytes(items: Any) -> int:
    """Boxed-equivalent logical bytes of a partition's element list.

    Identical to :func:`repro.common.sizeof.sizeof_records` for plain
    lists; for lists containing batches it charges the bytes of the
    *flattened* boxed list, so memory and driver-result accounting do not
    depend on how records are chunked into batches.
    """
    if isinstance(items, RecordBatch):
        return items.logical_nbytes()
    if not isinstance(items, list):
        return sizeof_records(items)
    batches = [x for x in items if isinstance(x, RecordBatch)]
    if not batches:
        return sizeof_records(items)
    boxed = [x for x in items if not isinstance(x, RecordBatch)]
    total = sizeof_records(boxed)
    for b in batches:
        total += b.logical_nbytes() - CONTAINER_ENTRY_BYTES
    return total


# ----------------------------------------------------------------------
# vectorized bucketing & segment reduction
# ----------------------------------------------------------------------


def split_indices(pids: np.ndarray) -> List[Tuple[int, np.ndarray]]:
    """Group row indices by partition id with one stable argsort.

    Returns ``[(pid, indices), ...]`` with pids ascending and indices in
    original row order — exactly what a per-pid boolean-mask loop yields,
    in O(n log n) instead of O(n * num_pids).
    """
    n = len(pids)
    if n == 0:
        return []
    order = np.argsort(pids, kind="stable")
    sorted_pids = pids[order]
    cuts = np.flatnonzero(sorted_pids[1:] != sorted_pids[:-1]) + 1
    starts = np.concatenate([[0], cuts])
    ends = np.concatenate([cuts, [n]])
    return [
        (int(sorted_pids[s]), order[s:e]) for s, e in zip(starts, ends)
    ]


def split_batch(keys: np.ndarray, values: np.ndarray,
                pids: np.ndarray) -> Dict[int, RecordBatch]:
    """Bucket columnar records by partition id -> per-bucket batches."""
    return {
        pid: RecordBatch(keys[idx], values[idx])
        for pid, idx in split_indices(pids)
    }


def segment_reduce(keys: np.ndarray, values: np.ndarray,
                   op: str) -> Tuple[np.ndarray, np.ndarray]:
    """Reduce ``values`` per distinct key with ``op`` ("add"/"min"/"max").

    Keys come back sorted ascending; each key's values keep their arrival
    order (stable sort) and are folded with ``ufunc.reduceat``.  Value
    dtype is preserved.

    ``min``/``max`` match the boxed per-record dict fold exactly, and so
    does ``add`` whenever every partial sum is exactly representable (for
    instance integer-valued data).  Otherwise ``add`` is *not* the
    sequential fold: numpy sums a contiguous segment pairwise, so a key's
    sum of ``n`` values can differ from the boxed fold by at most
    ``2 * n * eps * sum(|v|)``, ``eps`` being the dtype's machine epsilon.
    """
    try:
        ufunc = COMBINE_UFUNCS[op]
    except KeyError:
        raise ValueError(
            f"unknown combine op {op!r}; known: "
            f"{', '.join(sorted(COMBINE_UFUNCS))}"
        ) from None
    n = len(keys)
    if n == 0:
        return keys, values
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_values = values[order]
    starts = np.concatenate(
        [[0], np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1]
    )
    return sorted_keys[starts], ufunc.reduceat(sorted_values, starts, axis=0)
