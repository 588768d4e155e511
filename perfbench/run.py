"""Paper-level host-time benchmark of the PSGraph simulator.

One run measures one workload in one process, on the serial executor
loop (no process pool)::

    python3 perfbench/run.py --workload pagerank-ds2-psgraph \\
        --seed 20200420 --seconds 26 --trace 0

``--trace 0`` repeats set-up + paper-level call for three quarters of
``--seconds`` (at least three times), then set-up alone for the rest,
and reports the medians of ``host_s`` (the call) and ``setup_s``
(dataset generation, HDFS write, context construction), plus the
process's ``peak_rss_mb``.  Both times are rescaled to a reference host
speed by a probe that samples the host while they run
(``hostspeed.py``); the wall-clock medians are printed beside them.
``--trace 1`` makes one untraced and one traced call and reports the
per-layer host-time split (see ``hosttrace.py``); its artifacts go to
``perfbench/out/``.

Every sample passes the golden-output gate (``gate.py``) or counts as
failed.  Human-readable lines go first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

DEFAULT_SEED = 20200420
#: Fewest timed samples in one untraced run, whatever ``--seconds`` says.
MIN_SAMPLES = 3
#: Share of ``--seconds`` kept for set-up-only repetitions; the samples
#: (set-up + call) use the rest.
SETUP_SHARE = 0.25
#: Set-up-only repetitions last at least this long (or ``SETUP_SHARE`` of
#: ``--seconds``, if that is shorter), even when the samples overran.
SETUP_MIN_S = 2.0

#: Units of the simulator's counters reported by the traced run.
COUNTER_UNITS = {"bytes": "B"}


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checker:
    """Applies the golden gate and the oracle to each sample's outcome.

    Without a pinned golden, the first sample's outcome becomes the
    reference that every later sample must repeat.
    """

    def __init__(self, wl: Any, golden: Optional[Dict[str, Any]]) -> None:
        self.wl = wl
        self.pinned = golden is not None
        self.reference = golden
        self.oracle_ok: Optional[bool] = None

    def check(self, s: Any) -> List[str]:
        import gate

        outcome = gate.normalise(self.wl.outcome(s).to_dict())
        problems = gate.mismatches(outcome, self.reference)
        if self.oracle_ok is None:
            self.oracle_ok = bool(self.wl.oracle(s))
        if not self.oracle_ok:
            problems.append("result differs from the reference algorithm")
        if self.reference is None:
            self.reference = outcome
        return problems


@dataclass
class Sample:
    """One set-up + call, in seconds: rescaled to the reference host
    speed when a probe ran, wall seconds otherwise."""

    setup_s: float
    host_s: float
    problems: List[str]
    setup: Optional[Any]
    wall_s: float


def _sample(wl: Any, seed: int, checker: Checker, *,
            wrap: Optional[Callable[[], Callable[[], None]]] = None,
            traced: bool = False, probe: Any = None) -> Sample:
    """One set-up + call + check.

    ``wrap`` installs wrappers after set-up and returns their removal;
    they are removed before the outcome is checked.  With a running
    ``hostspeed.SpeedProbe``, both times are rescaled by it.
    """
    # Start every sample from the same heap state: garbage left by the
    # previous sample would otherwise be collected inside this one.
    gc.collect()
    t0 = perf_counter()
    s = wl.setup(seed, traced=traced)
    t1 = perf_counter()
    try:
        remove = wrap() if wrap is not None else None
        try:
            t2 = perf_counter()
            wl.call(s)
            t3 = perf_counter()
        finally:
            if remove is not None:
                remove()
        problems = checker.check(s)
    finally:
        s.stop()
    if probe is None:
        return Sample(t1 - t0, t3 - t2, problems, s, t3 - t2)
    return Sample(probe.rescale(t0, t1), probe.rescale(t2, t3), problems,
                  s, t3 - t2)


def _report_problems(label: str, problems: List[str]) -> None:
    print(f"FAILED {label}: " + "; ".join(problems[:6]), file=sys.stderr)


def _print_series(name: str, values: List[float], unit: str) -> None:
    q1, med, q3 = _quartiles(values)
    shown = (": " + " ".join(f"{v:.3f}" for v in values)
             if len(values) <= 20 else "")
    print(f"  {name:<12} median={med:.4f} q1={q1:.4f} q3={q3:.4f} {unit}"
          f"  (n={len(values)}{shown})")


def timed(wl: Any, seed: int, seconds: float,
          golden: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Untraced run: samples, then set-ups alone, within ``seconds``."""
    import hostspeed
    import hosttrace

    leftover = hosttrace.wrapped_attributes()
    if leftover:
        raise RuntimeError(f"untraced run sees wrappers: {leftover[:5]}")
    with hostspeed.SpeedProbe() as probe:
        return _timed(wl, seed, seconds, golden, probe)


def _timed(wl: Any, seed: int, seconds: float,
           golden: Optional[Dict[str, Any]], probe: Any) -> Dict[str, Any]:
    checker = Checker(wl, golden)
    samples: List[Sample] = []
    attempted = failed = 0
    # Warm-up: the first set-up in a process pays one-off import and
    # allocator costs that no later set-up pays.
    wl.setup(seed).stop()
    begin = perf_counter()
    while True:
        t0 = perf_counter()
        attempted += 1
        try:
            sample = _sample(wl, seed, checker, probe=probe)
        except Exception:
            traceback.print_exc()
            failed += 1
            break
        sample.setup = None  # keep memory flat across samples
        samples.append(sample)
        if sample.problems:
            failed += 1
            _report_problems(f"sample {attempted}", sample.problems)
        took = perf_counter() - t0
        if (attempted >= MIN_SAMPLES and perf_counter() - begin + took
                > (1.0 - SETUP_SHARE) * seconds):
            break
    host_s = [x.host_s for x in samples]
    setup_s = [x.setup_s for x in samples]
    # A few samples give a noisy set-up median; set-up is cheap next to
    # the call, so repeat it alone for the rest of ``seconds``.
    if samples:
        end = max(begin + seconds, perf_counter()
                  + min(SETUP_MIN_S, SETUP_SHARE * seconds))
        last = setup_s[-1]
        while perf_counter() + last <= end:
            gc.collect()
            t0 = perf_counter()
            s = wl.setup(seed)
            t1 = perf_counter()
            s.stop()
            setup_s.append(probe.rescale(t0, t1))
            last = t1 - t0

    print(f"{wl.name} seed={seed} "
          f"({'pinned' if checker.pinned else 'unpinned'} goldens)")
    if samples:
        _print_series("host_s", host_s, "s")
        _print_series("wall host_s", [x.wall_s for x in samples], "s")
        _print_series("setup_s", setup_s, "s")
        print(f"  host slowdown {probe.slowdown(begin, perf_counter()):.3f}"
              f"  (median probe time over the reference, "
              f"{len(probe.took)} probes)")
    print(f"  peak_rss_mb  {_peak_rss_mb():.1f} MB")
    if checker.reference is not None:
        ref = checker.reference
        print(f"  sim_s        {ref['sim_s']!r} sim-s  ("
              + ", ".join(f"{k}={v:.6g}" for k, v in ref["rows"].items())
              + ")")
    print(f"  attempted={attempted} failed={failed}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "host_s": {"value": statistics.median(host_s) if host_s
                       else 0.0, "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s) if setup_s
                        else 0.0, "unit": "s"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        },
    }


def traced(wl: Any, seed: int, golden: Optional[Dict[str, Any]]
           ) -> Dict[str, Any]:
    """One untraced and one traced call; per-layer host-time split."""
    import hosttrace
    import numpy as np
    from repro.obs.critical import critical_path
    from workloads import COUNTERS

    checker = Checker(wl, golden)
    failed = 0
    base = _sample(wl, seed, checker)
    if base.problems:
        failed += 1
        _report_problems("untraced sample", base.problems)

    recorder = hosttrace.SpanRecorder()

    def wrap() -> Callable[[], None]:
        return hosttrace.install(recorder).remove

    sample = _sample(wl, seed, checker, wrap=wrap, traced=True)
    if sample.problems:
        failed += 1
        _report_problems("traced sample", sample.problems)
    leftover = hosttrace.wrapped_attributes()
    if leftover:
        raise RuntimeError(f"wrappers left installed: {leftover[:5]}")

    host_s = sample.host_s
    layers = recorder.layer_report(host_s)
    metrics: Dict[str, Dict[str, Any]] = {}
    for name in hosttrace.LAYER_NAMES:
        metrics[f"{name}.self_s"] = {"value": layers[name]["self_s"],
                                     "unit": "s"}
        metrics[f"{name}.calls"] = {"value": layers[name]["calls"],
                                    "unit": "count"}
    agent_calls = layers["ps.agent"]["calls"]
    metrics["ps.fanout"] = {
        "value": layers["ps.server"]["calls"] / agent_calls
        if agent_calls else 0.0, "unit": "ratio"}
    metrics["unattributed_s"] = {"value": layers["unattributed"]["self_s"],
                                 "unit": "s"}
    metrics["traced_host_s"] = {"value": host_s, "unit": "s"}
    metrics["trace_overhead"] = {"value": sample.host_s / base.host_s - 1.0,
                                 "unit": "ratio"}
    s = sample.setup
    for name in COUNTERS:
        unit = COUNTER_UNITS.get(name.rsplit(".", 1)[-1].split("_")[0],
                                 "count")
        metrics[name] = {"value": s.counters[name], "unit": unit}

    # Sim-time critical path of every traced context, next to the host
    # split: "sim says X, host spent Y" in one artifact.
    paths = {}
    for ctx, tracer in zip(s.contexts, s.tracers):
        if tracer.enabled:
            report = critical_path(tracer.spans(), ctx.sim_time())
            paths[getattr(ctx, "spark", ctx).app_name] = (
                report.to_dict()["table"])
    OUT.mkdir(exist_ok=True)
    spans = recorder.arrays()
    np.savez(OUT / f"{wl.name}.spans.npz",
             names=np.array([f"{lay}\t{fn}" for lay, fn in recorder.names]),
             **spans)
    artifact = {
        "workload": wl.name, "seed": seed,
        "sim": checker.reference,
        "host": {"untraced_host_s": base.host_s,
                 "traced_host_s": host_s,
                 "layers": layers,
                 "top_functions": recorder.top_functions()},
        "sim_critical_path": paths,
        "spans": f"{wl.name}.spans.npz",
    }
    with open(OUT / f"{wl.name}.trace.json", "w") as f:
        json.dump(artifact, f, indent=1)

    total = sum(v["self_s"] for v in layers.values())
    print(f"{wl.name} seed={seed} traced: host_s={host_s:.4f} s "
          f"(untraced {base.host_s:.4f} s, overhead "
          f"{metrics['trace_overhead']['value']:+.1%}), "
          f"{len(spans['start'])} spans")
    for name, v in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<13} self_s={v['self_s']:8.4f} s "
              f"({v['self_s'] / host_s:6.1%})  calls={v['calls']}")
    print(f"  sum of self_s + unattributed = {total:.4f} s; "
          f"artifacts in {OUT}")
    return {"correct": failed == 0, "attempted": 2, "failed": failed,
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Paper-level host-time benchmark (see README.md).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    # One thread: a BLAS thread on the second core would make Table I's
    # time depend on whatever else that core runs.  Read at numpy import.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import gate
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    golden = gate.golden_for(gate.load(), wl.name, args.seed)
    if args.trace:
        result = traced(wl, args.seed, golden)
    else:
        result = timed(wl, args.seed, args.seconds, golden)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
