"""One workload in one fresh interpreter: set up, then measure or trace.

run.py starts this file once per set-up and once per measurement, so import,
input generation and warm-up are paid in every process, and peak memory
belongs to this workload alone.  The last stdout line is one JSON object.

  python3 perfbench/worker.py --workload NAME --mode setup|measure|trace
      --seed N --seconds S

Set-up time is the CPU time of this process from interpreter start to the
end of warm-up, just before the first timed item, scaled by calibration like
the item times.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# p90 needs ten items beyond it
MIN_ITEMS = 100


# Clock.  Items are timed on the thread's CPU clock, which leaves out time
# a shared host gives this CPU to other tenants.  The speed of the CPU itself
# still drifts by 20-40% within seconds on such a host, because other tenants
# share its cores and caches, so a fixed loop of Fraction and dict
# arithmetic, the operations superweil spends its time in, is timed between
# items; each item's time is scaled by CALIBRATION_REF_S over the mean of the
# calibrations just before and after it.  That gives its time at the speed
# where the loop takes CALIBRATION_REF_S, its median on a 2-vCPU 2.1 GHz
# Intel Xeon VM.  The loop is benchmark code, so a faster superweil does not
# make it faster.
CALIBRATION_REF_S = 0.00125
_CAL_A = [Fraction(n, d) for n, d in zip(range(-7, 9), (3, 5, 7, 2, 9, 4, 11, 6) * 2)]
_CAL_B = [Fraction(n, d) for n, d in zip(range(9, -7, -1), (4, 7, 3, 5, 8, 9, 2, 13) * 2)]


def calibrate() -> float:
    t0 = time.thread_time()
    acc = {}
    for i, a in enumerate(_CAL_A):
        for j, b in enumerate(_CAL_B):
            k = (i ^ j) & 15
            prev = acc.get(k)
            acc[k] = a * b if prev is None else prev + a * b
    return time.thread_time() - t0


class Timer:
    """Times items, with a calibration before the first item and after each."""

    def __init__(self):
        self.raw = []
        self.busy = 0.0
        self.calibrations = [calibrate()]

    def __call__(self, fn, *args):
        t0 = time.thread_time()
        try:
            return fn(*args)
        finally:
            dt = time.thread_time() - t0
            self.raw.append(dt)
            self.busy += dt
            self.calibrations.append(calibrate())

    def scaled(self) -> list:
        c = self.calibrations
        return [t * 2 * CALIBRATION_REF_S / (c[i] + c[i + 1])
                for i, t in enumerate(self.raw)]


def import_package():
    """Import superweil from this checkout's src/, never from elsewhere."""
    if not (SRC / "superweil" / "__init__.py").is_file():
        raise SystemExit(f"superweil sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import superweil

    if Path(superweil.__file__).resolve().parent != SRC / "superweil":
        raise SystemExit(f"imported superweil from {superweil.__file__}, not {SRC}")
    return superweil


def _summary(times) -> dict:
    if len(times) < 2:
        times = (times or [float("nan")]) * 2
    return {
        "items_per_s": len(times) / sum(times),
        "item_p50_ms": statistics.median(times) * 1000,
        "item_p90_ms": statistics.quantiles(times, n=10)[8] * 1000,
    }


def measure(wl, seconds, min_items=MIN_ITEMS, tamper=None) -> dict:
    """Closed loop: each step starts when the previous one and its check end.

    Runs until the timed items add up to `seconds` and at least `min_items`
    were attempted.  Output checks run between steps, outside the timed
    region.  tamper(output), if given, replaces the first step's output
    before its check, which lets a test show that a wrong result is counted.
    """
    timer = Timer()
    failed = attempted = 0
    give_up = time.monotonic() + 3 * seconds + 60
    stream = wl.inputs()
    while (timer.busy < seconds or attempted < min_items) and time.monotonic() < give_up:
        inp = next(stream)
        before = len(timer.raw)
        try:
            out = wl.run_timed(inp, timer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            lost = max(1, len(timer.raw) - before)
            attempted += lost
            failed += lost
            continue
        if tamper is not None:
            out, tamper = tamper(out), None
        failed += wl.check(inp, out)
        attempted += len(timer.raw) - before
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "metrics": dict(_summary(timer.scaled()), peak_rss_mb=peak_mb),
        "unscaled": dict(_summary(timer.raw),
                     calibration_ms=statistics.median(timer.calibrations) * 1000),
    }


def trace(wl, steps) -> dict:
    """Untraced pass, then two traced passes over the same `steps` inputs.

    Correct only if the untraced outputs pass their checks, both traced
    passes return the same outputs, every traced binding was wrapped, and
    the work counts of the two traced passes are identical.
    """
    import tracer

    inputs = list(islice(wl.inputs(), steps))
    timer = Timer()
    base = [wl.run_timed(inp, timer) for inp in inputs]
    untraced = sum(timer.scaled())
    failed = sum(wl.check(inp, out) for inp, out in zip(inputs, base))
    passes = []
    for _ in range(2):
        tr = tracer.Tracer()
        timer = Timer()
        with tr.installed():
            missed = tracer.unwrapped()
            outs = [wl.run_timed(inp, timer) for inp in inputs]
        passes.append(tr.metrics(sum(timer.scaled()) / untraced))
        if outs != base:
            print("traced outputs differ from untraced ones", file=sys.stderr)
            failed += 1
        if missed:
            print(f"bindings left unwrapped: {missed}", file=sys.stderr)
            failed += 1
    drift = [n for n in tracer.COUNTS
             if passes[0][n]["value"] != passes[1][n]["value"]]
    if drift:
        print(f"work counts differ between traced runs: {drift}", file=sys.stderr)
    return {
        "attempted": len(timer.raw),
        "failed": failed,
        "correct": failed == 0 and not drift,
        "metrics": passes[0],
    }


def environment(superweil, wl, seed) -> dict:
    return {
        "backend": superweil.BACKEND,
        "python": platform.python_version(),
        "superweil": superweil.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "workload": wl.name,
        **wl.describe(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="worker.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)

    # calibrations before import, during warm-up and after it sample the speed
    # over set-up; their own CPU time is not set-up time
    cals = [calibrate() for _ in range(8)]
    superweil = import_package()
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl = workloads.create(args.workload, args.seed, Path(tmp))
        warm = Timer()
        wl.warm_up(warm)
        setup_raw = time.process_time()
        cals += warm.calibrations + [calibrate() for _ in range(8)]
        setup_raw -= sum(cals[:-8])
        speed = statistics.mean(cals)
        if args.mode == "setup":
            result = {}
        elif args.mode == "measure":
            result = measure(wl, args.seconds)
        else:
            result = trace(wl, wl.trace_steps)
    result["setup_s"] = setup_raw * CALIBRATION_REF_S / speed
    result["setup_raw_s"] = setup_raw
    result["env"] = environment(superweil, wl, args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
