"""Golden-output gate: the simulated answer must not move.

``goldens.json`` pins, per workload and seed, everything a call answers
in sim time: ``sim_s`` and its per-row parts, the result digest, the
paper-shape checks and the simulated-counter snapshot.  A sample whose
outcome differs from the pinned one in any value counts as a failed
operation.  For a seed that is not pinned, the first sample of the run
stands in for the golden, so every later sample must repeat it exactly;
the paper-shape checks must hold either way.

Re-pin after a change that is *meant* to move sim time (never for a
host-time optimisation)::

    python3 perfbench/gate.py --pin
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
GOLDENS = HERE / "goldens.json"

#: The paper's default seed and the held-out seed, both pinned.
PINNED_SEEDS = (20200420, 1234)


def load(path: Path = GOLDENS) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """``{workload: {str(seed): outcome dict}}``."""
    with open(path) as f:
        return json.load(f)


def golden_for(goldens: Dict[str, Dict[str, Dict[str, Any]]],
               workload: str, seed: int) -> Optional[Dict[str, Any]]:
    return goldens.get(workload, {}).get(str(seed))


def mismatches(got: Dict[str, Any],
               want: Optional[Dict[str, Any]]) -> List[str]:
    """Every way ``got`` fails the gate; empty when it passes.

    Values are compared exactly: the simulator is deterministic, so any
    difference in sim time or counters is a behaviour change.
    """
    problems = [f"shape check failed: {k}"
                for k, ok in got["shape"].items() if not ok]
    if want is None:
        return problems
    for key in ("sim_s", "digest"):
        if got[key] != want[key]:
            problems.append(f"{key}: {got[key]!r} != pinned {want[key]!r}")
    for key in ("rows", "shape", "counters"):
        for name in sorted(set(got[key]) | set(want[key])):
            a, b = got[key].get(name), want[key].get(name)
            if a != b:
                problems.append(f"{key}[{name}]: {a!r} != pinned {b!r}")
    return problems


def normalise(outcome: Dict[str, Any]) -> Dict[str, Any]:
    """Normalise through JSON, as pinned values are read back."""
    return json.loads(json.dumps(outcome))


def pin() -> None:
    """Run every workload once per pinned seed; write the outcomes."""
    import workloads

    goldens = {}
    for name in workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name]()
        for seed in PINNED_SEEDS:
            s = wl.setup(seed)
            try:
                wl.call(s)
                outcome = normalise(wl.outcome(s).to_dict())
                if not wl.oracle(s):
                    raise SystemExit(f"{name} seed {seed}: oracle failed")
            finally:
                s.stop()
            bad = mismatches(outcome, None)
            if bad:
                raise SystemExit(f"{name} seed {seed}: {bad}")
            goldens.setdefault(name, {})[str(seed)] = outcome
            print(f"pinned {name} seed {seed}: sim_s={outcome['sim_s']!r}")
    with open(GOLDENS, "w") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pin", action="store_true", required=True,
                        help="pin every workload at the pinned seeds "
                             + " and ".join(map(str, PINNED_SEEDS)))
    parser.parse_args(argv)
    src = HERE.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"gate: simulator sources not found under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    pin()
    return 0


if __name__ == "__main__":
    sys.exit(main())
