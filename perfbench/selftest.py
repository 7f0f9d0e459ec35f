#!/usr/bin/env python3
"""Self-test of the benchmark, on each workload's tiny variant (seconds each).

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json it checks that
  * an untraced run prints exactly the end-to-end metrics, with their units,
    all nonzero, and passes its output checks;
  * a traced run prints exactly the per-layer metrics with their units, and
    its four core phases do not add up to more than trace.run_s
    (core.unattributed_s is not negative);
  * a planted wrong expected figure fails every sample (error_rate 1);
and that layers.json cross-references exactly the per-layer metrics, naming
only known end-to-end metrics and workloads. Exits 1 on the first failure.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PHASES = ("core.init_s", "core.compute_s", "core.communicate_s", "core.aggregate_s")
# Clock reads of the phases and of run_s differ by microseconds.
UNATTRIBUTED_SLACK_S = 1e-3


def fail(message):
    sys.exit(f"selftest: FAIL: {message}")


def run(workload, *flags):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "4",
           "--seconds", "1", "--tiny", *flags]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(result, declared, label):
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        fail(f"{label}: printed {got}, BENCHMARK.json declares {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            fail(f"{label}: {name} = {m['value']!r} is not a finite number")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        plain = run(workload, "--trace", "0")
        expect_metrics(plain, spec["end_to_end"], f"{workload} --trace 0")
        if not plain["correct"] or plain["failed"] != 0:
            fail(f"{workload}: output check failed on an unmodified run: {plain}")
        zero = [name for name, m in plain["metrics"].items() if m["value"] == 0]
        if zero:
            fail(f"{workload}: end-to-end metrics read 0: {zero}")

        traced = run(workload, "--trace", "1")
        expect_metrics(traced, spec["per_layer"], f"{workload} --trace 1")
        if not traced["correct"]:
            fail(f"{workload}: output check failed on a traced run: {traced}")
        values = {name: m["value"] for name, m in traced["metrics"].items()}
        # core.unattributed_s is trace.run_s minus the four phases, so they sum
        # to trace.run_s by definition; a negative remainder would mean the
        # phases overlap or one is counted twice.
        if values["core.unattributed_s"] < -UNATTRIBUTED_SLACK_S:
            fail(f"{workload}: core phases {[values[p] for p in PHASES]} exceed "
                 f"trace.run_s {values['trace.run_s']}")

        planted = run(workload, "--trace", "0", "--plant-wrong-figure")
        if planted["correct"] or planted["failed"] != planted["attempted"]:
            fail(f"{workload}: planted wrong figure gave error_rate "
                 f"{planted['failed']}/{planted['attempted']}")
        print(f"selftest: {workload} ok")

    layers = json.loads((HERE / "layers.json").read_text())
    declared = [m["name"] for m in spec["per_layer"]]
    if sorted(layers) != sorted(declared):
        fail(f"layers.json covers {sorted(layers)}, BENCHMARK.json declares {sorted(declared)}")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for name, entry in layers.items():
        for prediction in entry["moves"]:
            if prediction["metric"] not in end_to_end:
                fail(f"layers.json {name}: unknown end-to-end metric {prediction['metric']}")
            named = prediction["on"] + prediction["no_change_on"]
            if not named or not set(named) <= set(workloads):
                fail(f"layers.json {name}: workloads {named} not in BENCHMARK.json")
    print("selftest: layers.json ok")


if __name__ == "__main__":
    main()
