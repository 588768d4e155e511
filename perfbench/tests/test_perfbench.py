"""Tests of the benchmark itself (not of the simulator).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The workloads run here at reduced scales, so the suite takes well under
a minute; the benchmark's own scales are exercised by ``run.py``.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gate  # noqa: E402
import hostspeed  # noqa: E402
import hosttrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

#: Reduced scales at which the default seed finishes quickly.
SMALL = {
    "pagerank-ds2-psgraph": 5e-8,
    "cn-ds1-graphx": 2e-7,
    "table2-recovery": 1e-6,
    "table1-graphsage": 5e-4,
}
SEED = gate.PINNED_SEEDS[0]


def small(name: str):
    return workloads.WORKLOADS[name](SMALL[name])


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------


def test_self_times_on_nested_spans():
    # root [0,10] > a [1,4] > b [2,3];  root > c [5,9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    own = hosttrace.self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0


def test_layer_report_sums_to_host_time_and_counts_entries():
    rec = hosttrace.SpanRecorder()
    agent = rec.name_id("ps.agent", "PSAgent.push")
    server = rec.name_id("ps.server", "PSServer.push")
    store = rec.name_id("ps.server", "DenseRowStore.inc_rows")
    # agent [1,9] > server [2,5] > store [3,4];  agent > server [6,8]
    for s, e, p, n in ((1, 9, -1, agent), (2, 5, 0, server),
                       (3, 4, 1, store), (6, 8, 0, server),
                       (10, 11, -1, agent)):
        rec.start.append(s)
        rec.end.append(e)
        rec.parent.append(p)
        rec.name.append(n)
    report = rec.layer_report(host_s=12.0)
    assert report["ps.agent"] == {"self_s": 4.0, "calls": 2}
    # The store call inside a server handler is not a second server call.
    assert report["ps.server"] == {"self_s": 5.0, "calls": 2}
    assert report["unattributed"]["self_s"] == 3.0
    assert sum(v["self_s"] for v in report.values()) == 12.0


def test_generator_steps_are_spans_of_their_layer():
    rec = hosttrace.SpanRecorder()

    def produce():
        yield 1
        yield 2

    traced = rec.wrap(produce, "core", "produce")
    assert list(traced()) == [1, 2]
    # One span for the call, one per next() including the final one.
    assert len(rec.start) == 4
    assert rec.layer_report(host_s=1.0)["core"]["calls"] == 4


# ----------------------------------------------------------------------
# host-speed rescaling
# ----------------------------------------------------------------------


def test_rescale_removes_probes_and_divides_by_the_slowdown():
    probe = hostspeed.SpeedProbe()
    ref = hostspeed.REFERENCE_S
    # Probes every 0.1 s from 0.1 to 3.0, twice as slow after t = 2.
    probe.at = [0.1 * i for i in range(1, 31)]
    probe.took = [ref if t <= 2.0 + 1e-9 else 2 * ref for t in probe.at]
    # [0.05, 1.0] holds probes 0.1 .. 1.0 (10 of them) at reference speed.
    assert probe.rescale(0.05, 1.0) == pytest.approx(0.95 - 10 * ref)
    # [2.45, 3.0] holds six probes, all at half speed.
    assert probe.slowdown(2.45, 3.0) == pytest.approx(2.0)
    assert probe.rescale(2.45, 3.0) == pytest.approx(
        (0.55 - 6 * 2 * ref) / 2)
    # Too few probes inside: the window widens by WINDOW_S either side,
    # [1.01, 1.05] -> [0.01, 2.05], all twenty at reference speed.
    assert probe.slowdown(1.01, 1.05) == pytest.approx(1.0)
    assert probe.slowdown(2.71, 2.75) == pytest.approx(2.0)


def test_probe_samples_during_a_block_and_restores_the_signal():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedProbe() as probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.4:
            sum(i * i for i in range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.took) >= 5
    assert probe.rescale(t0, t0 + 0.4) > 0.0


# ----------------------------------------------------------------------
# golden gate
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def goldens():
    return gate.load()


def test_every_workload_pins_both_seeds(goldens):
    for name in workloads.WORKLOADS:
        for seed in gate.PINNED_SEEDS:
            pinned = gate.golden_for(goldens, name, seed)
            assert pinned is not None, (name, seed)
            assert gate.mismatches(pinned, pinned) == []
            assert all(pinned["shape"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_gate_rejects_perturbed_sim_s_and_counter(goldens, name):
    pinned = gate.golden_for(goldens, name, SEED)
    bad_sim = copy.deepcopy(pinned)
    bad_sim["sim_s"] *= 1.0 + 1e-12
    assert any(p.startswith("sim_s") for p in
               gate.mismatches(bad_sim, pinned))
    for counter in workloads.COUNTERS:
        bad = copy.deepcopy(pinned)
        bad["counters"][counter] += 1
        assert gate.mismatches(bad, pinned) == [
            f"counters[{counter}]: {bad['counters'][counter]!r} "
            f"!= pinned {pinned['counters'][counter]!r}"]


def test_gate_rejects_failed_paper_shape(goldens):
    pinned = gate.golden_for(goldens, "table2-recovery", SEED)
    bad = copy.deepcopy(pinned)
    bad["shape"]["none<=executor<=server"] = False
    assert gate.mismatches(bad, None) == [
        "shape check failed: none<=executor<=server"]


def test_checker_fails_a_sample_that_drifts():
    wl = small("table2-recovery")
    checker = run.Checker(wl, None)
    s = wl.setup(SEED)
    try:
        wl.call(s)
        assert checker.check(s) == []
        # The run's first outcome is the reference for the next samples.
        assert checker.check(s) == []
        s.result["server"]["sim_s"] += 1e-9
        problems = checker.check(s)
    finally:
        s.stop()
    assert any(p.startswith("sim_s") for p in problems)
    assert any(p.startswith("rows[server]") for p in problems)


# ----------------------------------------------------------------------
# seeds and equivalence with repro.experiments
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_and_nothing_else(name):
    wl = small(name)
    a, again, b = wl.inputs(SEED), wl.inputs(SEED), wl.inputs(SEED + 1)
    arrays = [k for k, v in a.items() if isinstance(v, np.ndarray)]
    assert arrays
    assert all(np.array_equal(a[k], again[k]) for k in arrays)
    assert any(a[k].shape != b[k].shape or not np.array_equal(a[k], b[k])
               for k in arrays)
    assert a["spec"] == b["spec"]
    sa, sb = wl.setup(SEED), wl.setup(SEED + 1)
    try:
        for ca, cb in zip(sa.contexts, sb.contexts):
            assert ca.cluster == cb.cluster
    finally:
        sa.stop()
        sb.stop()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rows_equal_repro_experiments(name):
    wl = small(name)
    s = wl.setup(SEED)
    try:
        wl.call(s)
        assert wl.oracle(s)
        rows = wl.rows(s)
    finally:
        s.stop()
    assert rows == wl.reference_rows(SEED)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------


def test_untraced_runs_see_the_original_functions():
    import importlib

    from repro.graphx import algorithms as gxalgo
    from repro.ps.storage import DenseRowStore

    hosttrace.import_all()
    # repro.common re-exports a function named sizeof over the module.
    sizeof = importlib.import_module("repro.common.sizeof")
    originals = (sizeof.sizeof_records, gxalgo.sizeof_records,
                 DenseRowStore.__dict__["inc_rows"])
    assert hosttrace.wrapped_attributes() == []
    inst = hosttrace.install(hosttrace.SpanRecorder())
    try:
        wrapped = hosttrace.wrapped_attributes()
        # Patched where each caller looks the name up.
        assert "repro.graphx.algorithms.sizeof_records" in wrapped
        assert "repro.dataflow.shuffle.sizeof_records" in wrapped
        assert "repro.ps.storage.DenseRowStore.inc_rows" in wrapped
        assert gxalgo.sizeof_records is not originals[1]
        with pytest.raises(RuntimeError, match="wrappers"):
            run.timed(small("table2-recovery"), SEED, 0.0, None)
    finally:
        inst.remove()
    assert hosttrace.wrapped_attributes() == []
    assert (sizeof.sizeof_records, gxalgo.sizeof_records,
            DenseRowStore.__dict__["inc_rows"]) == originals


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_call_is_transparent_and_fully_attributed(name):
    wl = small(name)
    checker = run.Checker(wl, None)
    run._sample(wl, SEED, checker)
    recorder = hosttrace.SpanRecorder()
    sample = run._sample(
        wl, SEED, checker, traced=True,
        wrap=lambda: hosttrace.install(recorder).remove)
    assert sample.problems == []
    assert hosttrace.wrapped_attributes() == []
    report = recorder.layer_report(sample.host_s)
    total = sum(v["self_s"] for v in report.values())
    assert total == pytest.approx(sample.host_s, rel=1e-9)
    assert report["unattributed"]["self_s"] >= 0.0
    assert len(recorder.start) > 0


# ----------------------------------------------------------------------
# the command's contract
# ----------------------------------------------------------------------


def _declared(kind: str):
    import json

    with open(BENCH.parent / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def test_runs_report_exactly_the_declared_metrics():
    wl = small("table2-recovery")
    timed = run.timed(wl, SEED, 0.0, None)
    traced = run.traced(wl, SEED, None)
    for result, kind in ((timed, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == _declared(kind)
    assert timed["attempted"] == run.MIN_SAMPLES


def test_fails_without_the_simulator_sources(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "table2-recovery", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
