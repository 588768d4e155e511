"""Host-time spans around the simulator's layer entry points.

The traced run installs wrappers around the public functions of each
layer (:data:`LAYERS`), records one span per call, and removes the
wrappers again.  Nothing under ``src/`` is edited: the wrappers are
installed by rebinding attributes, on the class for methods and, for
module-level functions, in every loaded ``repro`` module that imported
the function by name (the metering functions are imported with
``from ... import`` at several call sites).

Spans live in memory as four parallel arrays (start, end, parent span,
name) and are written out when the run ends.  A span's self time is its
duration minus the durations of its direct children; a layer's
``self_s`` sums the self time of its spans, so the layer values plus the
time outside every span add up to the traced host time exactly.

Functions that the layers hand to the dataflow engine as task bodies
(RDD transformations, ``DAGScheduler.run_stage`` tasks) run inside the
scheduler's spans.  They are attributed to the layer whose module
defined them (:data:`CALLBACK_LAYERS`), so that, for example, the
per-edge scoring closure of CommonNeighbor counts as ``core`` and not as
``dataflow``.  A wrapped call that returns a generator gets one span per
``next()``, because that is when its work runs.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import types
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Layer -> entry points: ``(module, class or None, selector)``.  The
#: selector is ``"public"`` (every public function defined in the class
#: or module) or a tuple of names, where ``prefix*`` matches a prefix.
#: ``"subclasses:NAME"`` in the class slot means ``module.NAME`` and every
#: loaded subclass; each class's own definitions are wrapped.
LAYERS: Dict[str, List[Tuple[str, Optional[str], Any]]] = {
    "dataflow": [
        ("repro.dataflow.scheduler", "DAGScheduler", ("run_job", "run_stage")),
        ("repro.dataflow.shuffle", "ShuffleService", ("write", "read")),
    ],
    "ps.agent": [("repro.ps.agent", "PSAgent", "public")],
    "ps.server": [
        ("repro.ps.server", "PSServer", "public"),
        ("repro.ps.storage", "subclasses:Store", "public"),
    ],
    "ps.master": [("repro.ps.master", "PSMaster", ("recover", "health_check"))],
    "net": [("repro.net.rpc", "RpcEnv", ("call",))],
    "hdfs": [("repro.hdfs.filesystem", "Hdfs", ("read_*", "write_*"))],
    "metering": [
        ("repro.common.sizeof", None, ("sizeof_records",)),
        ("repro.common.batch", None, ("records_nbytes",)),
    ],
    "graphx": [
        ("repro.graphx.graph", "Graph", "public"),
        ("repro.graphx.algorithms", None, "public"),
    ],
    "core": [
        ("repro.core.runner", "GraphRunner", ("run",)),
        ("repro.core.algorithms.base", "subclasses:GraphAlgorithm",
         ("transform",)),
    ],
    "torchlite": [
        ("repro.torchlite.nn", "Module", ("__call__",)),
        ("repro.torchlite.tensor", "Tensor", ("backward",)),
        ("repro.torchlite.optim", "subclasses:LocalOptimizer", ("step",)),
    ],
    "eulersim": [
        ("repro.eulersim.euler", "EulerSystem",
         ("preprocess", "train_graphsage")),
    ],
}

#: Layer order used in reports.
LAYER_NAMES: Tuple[str, ...] = tuple(LAYERS)

#: Module prefix -> layer for task bodies handed to the dataflow engine.
CALLBACK_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.core", "core"),
    ("repro.graphx", "graphx"),
    ("repro.eulersim", "eulersim"),
)

#: Dataflow classes whose public methods accept task bodies.
CALLBACK_ENTRIES: Tuple[Tuple[str, str], ...] = (
    ("repro.dataflow.rdd", "RDD"),
    ("repro.dataflow.dataframe", "DataFrame"),
)

_MARK = "__perfbench_layer__"


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of direct children.

    ``parent[i]`` is the index of span ``i``'s parent, or -1 for a root.
    Children lie inside their parent's interval, so the sum of all self
    times equals the sum of the root durations.
    """
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start,
                                                         dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - child[:len(dur)]


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        #: name id -> (layer, qualified function name)
        self.names: List[Tuple[str, str]] = []
        self._ids: Dict[Tuple[str, str], int] = {}
        self._stack: List[int] = [-1]

    def name_id(self, layer: str, qualname: str) -> int:
        key = (layer, qualname)
        nid = self._ids.get(key)
        if nid is None:
            nid = self._ids[key] = len(self.names)
            self.names.append(key)
        return nid

    # -- wrappers -----------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, qualname: str,
             callbacks: bool = False) -> Callable:
        """Return ``fn`` recording one span per call under ``layer``.

        With ``callbacks``, function arguments defined in a
        :data:`CALLBACK_LAYERS` module are wrapped as well.
        """
        nid = self.name_id(layer, qualname)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        stack = self._stack
        attribute = self.attribute

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if callbacks:
                args = tuple(attribute(a) for a in args)
                kwargs = {k: attribute(v) for k, v in kwargs.items()}
            idx = len(start)
            parent.append(stack[-1])
            name.append(nid)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if type(out) is types.GeneratorType:
                return self._traced_iter(out, nid)
            return out

        setattr(traced, _MARK, layer)
        return traced

    def _traced_iter(self, gen: Iterator[Any], nid: int) -> Iterator[Any]:
        start, end, parent, name = self.start, self.end, self.parent, self.name
        stack = self._stack
        try:
            while True:
                idx = len(start)
                parent.append(stack[-1])
                name.append(nid)
                start.append(0.0)
                end.append(0.0)
                stack.append(idx)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration as stop:
                    return stop.value
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    start[idx] = t0
                    end[idx] = t1
                yield item
        finally:
            close = getattr(gen, "close", None)
            if close is not None:
                close()

    def attribute(self, arg: Any) -> Any:
        """Wrap a task body under the layer of the module defining it."""
        if type(arg) is not types.FunctionType or hasattr(arg, _MARK):
            return arg
        module = arg.__module__ or ""
        for prefix, layer in CALLBACK_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return self.wrap(arg, layer, f"{module}.{arg.__qualname__}")
        return arg

    def substituting(self, fn: Callable) -> Callable:
        """Return ``fn`` with task-body arguments attributed; no span."""
        attribute = self.attribute

        @functools.wraps(fn)
        def substituted(*args, **kwargs):
            return fn(*(attribute(a) for a in args),
                      **{k: attribute(v) for k, v in kwargs.items()})

        setattr(substituted, _MARK, "callbacks")
        return substituted

    # -- reports ------------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
        }

    def layer_report(self, host_s: float) -> Dict[str, Dict[str, float]]:
        """Per-layer ``self_s`` and ``calls``, plus ``unattributed_s``.

        ``calls`` counts entries into a layer: spans whose parent span
        belongs to another layer (or that have no parent), so a storage
        call made by a server handler is not a second server call.
        """
        a = self.arrays()
        layer_index = {name: i for i, name in enumerate(LAYER_NAMES)}
        span_layer = np.array(
            [layer_index[layer] for layer, _ in self.names], dtype=np.int64
        )[a["name"]] if len(a["name"]) else np.zeros(0, dtype=np.int64)
        own = self_times(a["start"], a["end"], a["parent"])
        self_s = np.bincount(span_layer, weights=own,
                             minlength=len(LAYER_NAMES))
        parent_layer = np.where(a["parent"] >= 0,
                                span_layer[np.maximum(a["parent"], 0)], -1)
        calls = np.bincount(span_layer[parent_layer != span_layer],
                            minlength=len(LAYER_NAMES))
        report = {name: {"self_s": float(self_s[i]), "calls": int(calls[i])}
                  for name, i in layer_index.items()}
        root = a["parent"] < 0
        covered = float(np.sum(a["end"][root] - a["start"][root]))
        report["unattributed"] = {"self_s": host_s - covered, "calls": 0}
        return report

    def top_functions(self, n: int = 12) -> List[Dict[str, Any]]:
        """The ``n`` functions with the most self time."""
        a = self.arrays()
        if not len(a["name"]):
            return []
        own = self_times(a["start"], a["end"], a["parent"])
        per = np.bincount(a["name"], weights=own, minlength=len(self.names))
        count = np.bincount(a["name"], minlength=len(self.names))
        order = np.argsort(-per)[:n]
        return [{"layer": self.names[i][0], "function": self.names[i][1],
                 "self_s": float(per[i]), "spans": int(count[i])}
                for i in order]


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------


def import_all() -> None:
    """Import every ``repro`` module, so no module imports a wrapper.

    A module first imported while wrappers are installed would bind the
    wrapper with ``from ... import`` and keep it after removal.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def _select(namespace: Dict[str, Any], selector: Any,
            module: str | None = None) -> List[str]:
    names = []
    for attr, value in namespace.items():
        value = getattr(value, "__func__", value)
        if not isinstance(value, types.FunctionType):
            continue
        if module is not None and value.__module__ != module:
            continue
        if selector == "public":
            ok = not attr.startswith("_")
        else:
            ok = any(attr == s or (s.endswith("*")
                                   and attr.startswith(s[:-1]))
                     for s in selector)
        if ok:
            names.append(attr)
    return names


def _classes(module: types.ModuleType, spec: str) -> List[type]:
    if not spec.startswith("subclasses:"):
        return [getattr(module, spec)]
    base = getattr(module, spec.split(":", 1)[1])
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in found:
            found.append(cls)
            todo.extend(cls.__subclasses__())
    return found


def _rewrap(value: Any, make: Callable[[Callable], Callable]) -> Any:
    """Apply ``make`` to a class attribute, keeping static/class methods."""
    if isinstance(value, (staticmethod, classmethod)):
        return type(value)(make(value.__func__))
    return make(value)


def _is_wrapper(value: Any) -> bool:
    return hasattr(getattr(value, "__func__", value), _MARK)


class Installation:
    """The wrappers installed by :func:`install`, removable once."""

    def __init__(self) -> None:
        self.patches: List[Tuple[Any, str, Any]] = []

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(recorder: SpanRecorder) -> Installation:
    """Wrap every entry point of :data:`LAYERS`; returns the undo list."""
    import_all()
    inst = Installation()
    repro_modules = [m for name, m in sorted(sys.modules.items())
                     if (name == "repro" or name.startswith("repro."))
                     and m is not None]
    try:
        for layer, entries in LAYERS.items():
            callbacks = layer == "dataflow"
            for module_name, cls_spec, selector in entries:
                module = sys.modules[module_name]
                if cls_spec is None:
                    for attr in _select(vars(module), selector, module_name):
                        fn = getattr(module, attr)
                        wrapped = recorder.wrap(fn, layer,
                                                f"{module_name}.{attr}")
                        for m in repro_modules:
                            for k, v in list(vars(m).items()):
                                if v is fn:
                                    inst.patch(m, k, wrapped)
                    continue
                for cls in _classes(module, cls_spec):
                    for attr in _select(cls.__dict__, selector):
                        qualname = f"{cls.__module__}.{cls.__qualname__}.{attr}"
                        inst.patch(cls, attr, _rewrap(
                            cls.__dict__[attr],
                            lambda fn, q=qualname: recorder.wrap(
                                fn, layer, q, callbacks=callbacks)))
        for module_name, cls_name in CALLBACK_ENTRIES:
            for cls in _classes(sys.modules[module_name],
                                f"subclasses:{cls_name}"):
                for attr in _select(cls.__dict__, "public"):
                    inst.patch(cls, attr, _rewrap(cls.__dict__[attr],
                                                  recorder.substituting))
    except BaseException:
        inst.remove()
        raise
    return inst


def wrapped_attributes() -> List[str]:
    """Every attribute of a loaded ``repro`` module or class that is a
    benchmark wrapper; empty when no wrapper is installed."""
    found = []
    for name, module in sorted(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in vars(module).items():
            if _is_wrapper(value):
                found.append(f"{name}.{attr}")
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in value.__dict__.items():
                    if _is_wrapper(cvalue):
                        found.append(f"{name}.{value.__qualname__}.{cattr}")
    return found
