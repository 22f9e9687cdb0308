"""superweil benchmark: four workloads, end-to-end metrics and traced layers.

  python3 perfbench/run.py --workload verify|dense_algebra|big_blocks|compute|all
      --seed N --seconds S --trace 0|1

Each workload runs in fresh interpreters (worker.py), one thread, closed loop.
With --trace 0 it sets up SETUPS times and reports the end-to-end metrics;
with --trace 1 it reports the per-layer metrics of a traced run.  Output is
an environment stamp and one line per metric, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"} (with --workload
all, an object of those keyed by workload).  Exits non-zero, printing no
result, when a worker fails, for instance when src/superweil is missing.
See design.json for why each workload exists and what each metric predicts.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "dense_algebra", "big_blocks", "compute")
SETUPS = 3
# the whole command must finish within 180 s
DEADLINE_S = 170

END_TO_END = (("items_per_s", "1/s"), ("item_p50_ms", "ms"), ("item_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


class WorkerFailed(Exception):
    pass


def spawn(name, mode, seed, seconds, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--mode", mode, "--seed", str(seed), "--seconds", repr(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{name} {mode}: timed out") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"{name} {mode}: exit status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, traced, deadline):
    """(environment stamp, result object, extra human-readable rows)."""
    if traced:
        out = spawn(name, "trace", seed, seconds, deadline)
        metrics = out["metrics"]
        extra = []
    else:
        setups = [spawn(name, "setup", seed, seconds, deadline)
                  for _ in range(SETUPS - 1)]
        out = spawn(name, "measure", seed, seconds, deadline)
        setups.append(out)
        values = dict(out["metrics"],
                      setup_s=statistics.median(s["setup_s"] for s in setups))
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
        extra = [("failed_ratio", out["failed"] / out["attempted"], "ratio"),
                 ("items", out["attempted"], "count"),
                 ("unscaled.items_per_s", out["unscaled"]["items_per_s"], "1/s"),
                 ("unscaled.item_p50_ms", out["unscaled"]["item_p50_ms"], "ms"),
                 ("unscaled.item_p90_ms", out["unscaled"]["item_p90_ms"], "ms"),
                 ("unscaled.setup_s",
                  statistics.median(s["setup_raw_s"] for s in setups), "s"),
                 ("calibration_ms", out["unscaled"]["calibration_ms"], "ms")]
    result = {"correct": out["correct"], "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    return out["env"], result, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "superweil" / "__init__.py").is_file():
        print(f"superweil sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            env, result, extra = run_workload(name, args.seed, args.seconds,
                                              bool(args.trace), deadline)
        except WorkerFailed as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print("# env " + json.dumps(env))
        rows = [(m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
        for metric, value, unit in rows + extra:
            print(f"{name:<14} {metric:<34} {value:>16.6g} {unit}")
        print(f"{name:<14} {'correct':<34} {str(result['correct']):>16}")
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
