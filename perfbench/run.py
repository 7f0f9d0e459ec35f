#!/usr/bin/env python3
"""Cross-commit benchmark of DStress, as described by BENCHMARK.json.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the dstress library and perfbench/main.cc into .bench_build (CMake,
RelWithDebInfo, the repository's default), then runs one fresh
dstress_perfbench process per sample -- a fresh engine, set up once and run
once -- until the time budget is spent. Every sample's output is checked:

  * |released - reference| stays inside the 1e-9 tail of the two-sided
    geometric noise at the workload's alpha (per lane for an ensemble);
  * on secure workloads the GMW rounds of a step equal the update
    circuit's AND depth;
  * every sample of the run releases the same figures with the same
    per-node traffic (traced and untraced alike);
  * a traced sample's online + offline bytes add up to bytes_per_node;
  * at the recorded seed (4) the figures and traffic equal expected.json.

A sample whose process crashes or times out counts as failed too; if no
sample of a run completes, the result still prints, with "correct" false,
"failed" equal to "attempted" and no metrics.

With --trace 0 the metrics are BENCHMARK.json's end-to-end metrics, each the
median over the run's samples. With --trace 1 the run alternates untraced
and traced samples and reports the per-layer metrics of the median traced
sample, plus the tracing overhead (median traced minus median untraced
run_s). The last line of stdout is the result object; a result file with
the machine and build header goes to .bench_build/results/.

--tiny selects each workload's small variant (used by selftest.py),
--plant-wrong-figure corrupts the recorded figure (every sample must then
fail its check), and --record rewrites the workload's entry of
expected.json from one sample at the recorded seed.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "dstress_perfbench"
EXPECTED = HERE / "expected.json"
RECORDED_SEED = 4
NOISE_TAIL = 1e-9
MIN_SAMPLES = 3
# A run stops sampling once the next sample would end past this, even short
# of MIN_SAMPLES, so it always exits well inside three minutes.
HARD_LIMIT_S = 150.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the benchmark binary up to date."""
    jobs = str(os.cpu_count() or 1)
    # The compiler's temporary files stay inside the checkout too.
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    if not (BUILD / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            sys.exit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD), "--target", "dstress_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        sys.exit("perfbench: build failed")


def run_sample(args, traced, timeout):
    """One fresh process; returns its parsed JSON line or None if it failed."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--tiny"] if args.tiny else []
    cmd += ["--trace"] if traced else []
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: sample timed out after {timeout:.0f} s")
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log(f"perfbench: sample exited with code {proc.returncode}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        log("perfbench: sample printed no result")
        return None


def noise_bound(alpha):
    """Smallest k with P(|two-sided geometric(alpha)| >= k) <= NOISE_TAIL."""
    return math.ceil(math.log(NOISE_TAIL * (1 + alpha) / 2) / math.log(alpha))


def check(sample, first, expected):
    """Returns the list of reasons the sample's output is wrong."""
    problems = []
    released, reference = sample["released"], sample["reference"]
    if len(released) != sample["lanes"] or len(reference) != sample["lanes"]:
        problems.append(f"{len(released)} figures for {sample['lanes']} lanes")
    bound = noise_bound(sample["alpha"])
    for lane, (rel, ref) in enumerate(zip(released, reference)):
        if abs(rel - ref) >= bound:
            problems.append(f"lane {lane}: released {rel} vs reference {ref} (tail bound {bound})")
    if sample["secure"] and sample["rounds"] != sample["and_depth"]:
        problems.append(f"{sample['rounds']} GMW rounds for AND depth {sample['and_depth']}")
    if first is not None:
        for key in ("released", "reference", "bytes_per_node"):
            if sample[key] != first[key]:
                problems.append(f"{key} {sample[key]} differs from the run's first sample "
                                f"{first[key]}")
    if expected is not None:
        for key in ("released", "reference", "bytes_per_node"):
            if sample[key] != expected[key]:
                problems.append(f"{key} {sample[key]} != recorded {expected[key]}")
    if sample["traced"]:
        layers = sample["layers"]
        split = layers["net.online_bytes_per_node"] + layers["net.offline_bytes_per_node"]
        if abs(split - sample["bytes_per_node"]) > 1e-6 * max(1.0, sample["bytes_per_node"]):
            problems.append(f"online+offline bytes {split} != "
                            f"bytes_per_node {sample['bytes_per_node']}")
    return problems


def git_commit():
    """The checkout's commit, or "unknown" outside a git checkout."""
    # The ceiling keeps git from taking a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def median_sample(samples):
    ordered = sorted(samples, key=lambda s: s["run_s"])
    return ordered[(len(ordered) - 1) // 2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--plant-wrong-figure", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    build()

    key = args.workload + ("/tiny" if args.tiny else "")
    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    if args.record:
        args.seed = RECORDED_SEED
        sample = run_sample(args, traced=False, timeout=HARD_LIMIT_S)
        if sample is None or check(sample, None, None):
            sys.exit("perfbench: refusing to record a failed sample")
        recorded[key] = {k: sample[k] for k in ("released", "reference", "bytes_per_node")}
        EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
        log(f"perfbench: recorded {key}")
        return
    expected = recorded.get(key) if args.seed == RECORDED_SEED else None
    if args.plant_wrong_figure:
        if expected is None:
            sys.exit(f"perfbench: no recorded figure for {key} at seed {args.seed} to plant")
        expected = dict(expected, released=[expected["released"][0] + 1] + expected["released"][1:])

    # Sample until the next sample would end past the budget: alternate
    # untraced and traced processes in a traced run, one kind otherwise.
    kinds = [False, True] if args.trace else [False]
    min_samples = len(kinds) if args.trace else MIN_SAMPLES
    samples, failed, attempted = [], 0, 0
    first = None
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for traced in kinds:
            attempted += 1
            sample = run_sample(args, traced, HARD_LIMIT_S)
            if sample is None:
                failed += 1
                continue
            problems = check(sample, first, expected)
            first = first or sample
            sample["problems"] = problems
            samples.append(sample)
            if problems:
                failed += 1
                log(f"perfbench: {args.workload} sample {attempted} wrong: " + "; ".join(problems))
        took = time.monotonic() - round_start
        elapsed = time.monotonic() - start
        if elapsed + took > HARD_LIMIT_S:
            break
        if attempted >= min_samples and elapsed + took > args.seconds:
            break
    if not samples:
        # Every sample crashed (for one, a discrete-log lookup miss aborts
        # the run): nothing was measured, and the result says so.
        log(f"perfbench: {args.workload}: no sample completed, error_rate 1 "
            f"({failed}/{attempted})")
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return

    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    metrics = {}
    if args.trace:
        if not traced or not untraced:
            sys.exit("perfbench: a traced run needs both traced and untraced samples")
        layers = dict(median_sample(traced)["layers"])
        layers["trace.overhead_s"] = (statistics.median(s["run_s"] for s in traced) -
                                      statistics.median(s["run_s"] for s in untraced))
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": statistics.median(s[m["name"]] for s in samples),
                                  "unit": m["unit"]}

    header = {
        "workload": args.workload, "tiny": args.tiny, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "compiler": samples[0]["compiler"], "build_type": samples[0]["build_type"],
        "git_commit": git_commit(),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    results_dir = BUILD / "results"
    results_dir.mkdir(exist_ok=True)
    name = f"{key.replace('/', '-')}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(
        {"header": header, "samples": samples, "result": result}, indent=1) + "\n")

    print(json.dumps({"header": header}))
    print(f"{args.workload}: {len(samples)} samples ({len(traced)} traced), "
          f"error_rate {failed / attempted:.3f} ({failed}/{attempted})")
    for metric, m in metrics.items():
        print(f"  {metric:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
