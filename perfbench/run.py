"""qserieslab benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-goldens

Run from the root of a checkout.  Each pass of a workload runs in a fresh
interpreter (perfbench/worker.py) against this checkout's src/.  With
`--trace 0` the run takes SETUP_SAMPLES set-up timings, then repeats
untraced passes while the next one should still end within S seconds of the
start (S defaults to run_seconds of BENCHMARK.json), and reports the
end-to-end metrics of BENCHMARK.json; with `--trace 1` it makes one
untraced and one traced pass and reports the per-layer metrics.  The
last line of stdout is one JSON object {correct, attempted, failed,
metrics}; the full result, stamped with the environment, goes to
perfbench/results/.  Any failed output check makes the exit code nonzero.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
CONTROL = os.path.join(HERE, "control.py")
RESULTS = os.path.join(HERE, "results")
GOLDENS = os.path.join(HERE, "goldens.json")
# Set-up-only workers timed at the start of a run, inside its measuring
# window; the run reports their median.  About 0.17 s each.
SETUP_SAMPLES = 31
WORKER_TIMEOUT_S = 170.0
# wall_cal_s is a pass's wall time scaled to a host on which control.py's
# work takes this long.  Each pass is scaled by the control measured just
# before and just after it, which cancels the drift of a shared host's speed
# over minutes.
CONTROL_REF_S = 0.2

sys.path.insert(0, HERE)
from workloads import COLD, DEFAULT_SEED  # noqa: E402


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, *extra: str) -> tuple[float, dict]:
    """Run one worker; returns (seconds until it was ready, its report)."""
    cmd = [sys.executable, WORKER, workload, str(seed), mode, *extra]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    started = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - started
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise BenchError(f"worker {' '.join(cmd[2:])} exited {proc.returncode}")
    lines = rest.splitlines()
    return setup_s, (json.loads(lines[-1]) if lines else {})


def git_commit() -> str:
    """HEAD's commit, read from .git without running git; 'unknown' outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def control() -> float:
    """Seconds the fixed control work takes on the host right now."""
    out = subprocess.run(
        [sys.executable, CONTROL], cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, check=True
    )
    return float(out.stdout)


def measure_e2e(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], list[float]]:
    started = perf_counter()
    setups = [spawn(workload, seed, "setup")[0] for _ in range(SETUP_SAMPLES)]
    passes: list[dict] = []
    controls = [control()]
    longest = 0.0
    while True:
        pass_started = perf_counter()
        _, report = spawn(workload, seed, "run")
        controls.append(control())
        report["control_s"] = (controls[-2] + controls[-1]) / 2
        passes.append(report)
        now = perf_counter()
        longest = max(longest, now - pass_started)
        # Start another pass only if it should still end inside the run.
        if now - started + longest > seconds:
            break
    values = {
        "wall_cal_s": statistics.median(p["wall_s"] * CONTROL_REF_S / p["control_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "pass_frac": sum(p["certified"] for p in passes) / sum(p["attempted"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
    }
    return values, passes, setups


def measure_trace(workload: str, seed: int, stem: str) -> tuple[dict, list[dict], list[float]]:
    setup_plain, plain = spawn(workload, seed, "run")
    setup_traced, traced = spawn(workload, seed, "trace", os.path.join(RESULTS, stem + "-spans.jsonl"))
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    values["measured"] = ["trace", *traced["measured"]]
    return values, [plain, traced], [setup_plain, setup_traced]


def source_of(metric: str) -> str:
    """The tracer span or memo a per-layer metric comes from: 'series.mul'
    for series.mul.pairs, 'cache.euler_phi' for cache.euler_phi.hits,
    'cache' for cache.hit_ratio, 'trace' for trace.overhead_s."""
    if metric.startswith("verify.check_s."):
        return "verify.check_record"
    return metric.rsplit(".", 1)[0]


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> bool:
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{workload}-seed{seed}-{'trace' if trace else 'e2e'}"
    if trace:
        values, passes, setups = measure_trace(workload, seed, stem)
        declared = spec["per_layer"]
        measured = set(values.pop("measured"))
        # A declared metric whose function or memo is gone from the program
        # was not measured; it reads 0 but is named on stderr and in the result.
        unmeasured = [m["name"] for m in declared if source_of(m["name"]) not in measured]
    else:
        values, passes, setups = measure_e2e(workload, seed, seconds)
        declared = spec["end_to_end"]
        unmeasured = []
    # A declared layer that was wrapped but never called did no work: it reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}
    # Measured but not declared, such as raw wall_s or a memo added later.
    extra = {k: v for k, v in values.items() if k not in metrics}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [msg for p in passes for msg in p["problems"]]
    stamp = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }
    record = {
        "environment": stamp,
        "metrics": metrics,
        "extra": extra,
        "failed_frac": failed / attempted,
        "unmeasured": unmeasured,
        "missing_targets": passes[-1].get("missing_targets", []),
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
        "setup_samples": setups,
    }
    with open(os.path.join(RESULTS, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("# " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    for name, m in metrics.items():
        print(f"{workload}  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in extra.items():
        print(f"{workload}  {name} = {value:.6g}  (not in BENCHMARK.json)")
    print(f"{workload}  failed_frac = {failed / attempted:.6g} ratio  ({failed} of {attempted} ops)")
    for row in record["passes"][-1].get("mul_buckets", []):
        print(
            f"{workload}  mul[{row['kernel']}] pairs {row['pairs_from']}..{row['pairs_below']}: "
            f"{row['calls']} calls, self {row['self_s']:.4f} s, total {row['total_s']:.4f} s"
        )
    for name in unmeasured:
        print(f"{workload}  WARNING: {name} not measured (its function or memo is gone); reads 0", file=sys.stderr)
    for msg in problems:
        print(f"{workload}  FAILED CHECK: {msg}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return correct


def record_goldens() -> None:
    """Write goldens.json from one pass of each workload at the default seed."""
    from checks import sha256

    goldens: dict = {"seed": DEFAULT_SEED, "verify": {}, "sha256": {}}
    for workload in COLD:
        _, report = spawn(workload, DEFAULT_SEED, "record")
        if report["failed"]:
            raise BenchError(f"{workload} failed its checks: {report['problems']}")
        for key, (rc, out) in report["outputs"].items():
            if key.startswith("verify "):
                payload = json.loads(out)
                goldens["verify"][key] = [payload["status"], payload["order"]]
            else:
                goldens["sha256"][key] = sha256(out)
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=[*COLD, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long a --trace 0 run measures (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "qserieslab")):
        print(f"error: no qserieslab sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.record_goldens:
            sys.path.insert(0, os.path.join(ROOT, "src"))
            record_goldens()
            return 0
        spec = load_spec()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        chosen = list(COLD) if args.workload == "all" else [args.workload]
        ok = [run_one(spec, w, args.seed, seconds, bool(args.trace)) for w in chosen]
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 2
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
