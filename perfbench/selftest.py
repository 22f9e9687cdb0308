"""Fast self-test of the benchmark harness at tiny sizes.

  python3 perfbench/selftest.py

Covers every workload through the measuring loop, the traced run and the
output checks; shows that a corrupted result is counted as failed, that every
binding of a traced function is wrapped and restored, that layers a workload
leaves idle make no calls there, that BENCHMARK.json matches the harness, and
that run.py prints its result line, or exits non-zero without one when the
superweil sources are missing.  Exits 0 when everything holds.
"""

import copy
import json
import math
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import worker  # noqa: E402

sw = worker.import_package()
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DESIGN = json.loads((HERE / "design.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_BLOCKS = (("det_even", (3, 0)), ("berezinian", (3, 2)), ("smat_inv", (2, 2)))


def tiny(name, workdir):
    if name == "verify":
        wl = workloads.Verify(5)
        wl.trace_steps = 1
    elif name == "dense_algebra":
        wl = workloads.DenseAlgebra(5)
        wl.trace_steps = 3
    elif name == "big_blocks":
        wl = workloads.BigBlocks(5, plan=TINY_BLOCKS)
        wl.trace_steps = 3
    else:
        wl = workloads.Compute(5, workdir, per_kind=1)
    return wl


def corrupt(out):
    if isinstance(out, sw.AlgebraElement):
        return out + 1
    if isinstance(out, sw.SuperMatrix):
        return out + sw.SuperMatrix.identity(out.signature, out.row_shape)
    if isinstance(out, dict):
        out = copy.deepcopy(out)
        out["results"][0]["failed"] += 1
        return out
    status, text = out
    return status, text.replace("1", "2", 1)


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def test_oracle():
    check(oracle.bubble_sign((1, 2, 3)) == 1, "sorted sequence has sign +1")
    check(oracle.bubble_sign((2, 1)) == -1, "one swap gives sign -1")
    check(oracle.bubble_sign((3, 1, 2)) == 1, "two swaps give sign +1")
    sig = sw.Signature(1, 3)
    ref = oracle.GrassmannRef()
    t1, t2, e1 = sig.theta(1), sig.theta(2), sig.eps(1)
    check(ref.mul(oracle.terms(t2), oracle.terms(t1)) == oracle.terms(-(t1 * t2)),
          "t2 t1 = -t1 t2")
    check(ref.mul(oracle.terms(e1), oracle.terms(e1)) == {}, "e1 e1 = 0")
    draw = workloads.Draw(sig, random.Random(1))
    for _ in range(20):
        x, y = draw.element(1, None, 6), draw.element(2, None, 6)
        check(ref.mul(oracle.terms(x), oracle.terms(y)) == oracle.terms(x * y),
              "reference product agrees with superweil")


def test_measure_and_tamper(wl):
    out = worker.measure(wl, 0, min_items=3)
    check(out["correct"] and out["failed"] == 0, f"{wl.name}: clean run fails checks")
    check(out["attempted"] >= 3, f"{wl.name}: too few items")
    for name, value in out["metrics"].items():
        check(math.isfinite(value) and value > 0, f"{wl.name}: {name} = {value}")
    bad = worker.measure(wl, 0, min_items=1, tamper=corrupt)
    check(not bad["correct"] and bad["failed"] >= 1,
          f"{wl.name}: corrupted output not counted as failed")


def test_trace(wl):
    out = worker.trace(wl, wl.trace_steps)
    check(out["correct"], f"{wl.name}: traced run not correct")
    names = [n for n, _, _ in tracer.CATALOGUE]
    check(list(out["metrics"]) == names, f"{wl.name}: per-layer metric names")
    values = {n: m["value"] for n, m in out["metrics"].items()}
    check(values["kernel.mul_into.calls"] > 0, f"{wl.name}: no kernel calls traced")
    for layer in DESIGN["workloads"][wl.name]["idle"]:
        busy = [n for n, v in values.items() if n.startswith(layer + ".") and v]
        check(not busy, f"{wl.name}: layer {layer} predicted idle but has {busy}")


def test_bindings():
    from superweil import _kernel_py, flag, matrix, suites

    def bindings():
        return (flag.inv_even, suites.inv_even, flag.rat_det, _kernel_py.mul_into,
                sw.berezinian, matrix.SuperMatrix.__matmul__, sw.cli.main,
                suites.SUITES["flag"][0][1])

    originals = bindings()
    with tracer.Tracer().installed():
        check(tracer.unwrapped() == [], "a traced function has an unwrapped binding")
        for wrapped in bindings():
            check(hasattr(wrapped, "__wrapped__"), f"{wrapped} is not wrapped")
    check(all(a is b for a, b in zip(originals, bindings())), "bindings not restored")


def test_benchmark_json():
    check(set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check([w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
          == list(workloads.WORKLOADS) == list(DESIGN["workloads"]), "workload names")
    check([(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END),
          "end_to_end metrics")
    check([(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
          == tracer.CATALOGUE, "per_layer metrics")


def run_py(cwd, *args):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_command():
    proc = run_py(ROOT, "--workload", "compute", "--seed", "1", "--seconds", "0.2",
                  "--trace", "0")
    check(proc.returncode == 0, f"run.py failed: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(result["correct"] and result["failed"] == 0, "run.py result not correct")
    check(list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]],
          "run.py end-to-end metrics")
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_py(tmp, "--workload", "verify", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    check(proc.returncode != 0, "run.py succeeded without the superweil sources")
    check("{" not in proc.stdout, "run.py printed a result without the sources")


def main() -> int:
    test_oracle()
    test_bindings()
    test_benchmark_json()
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as tmp:
        for name in workloads.WORKLOADS:
            wl = tiny(name, Path(tmp))
            wl.warm_up(worker.Timer())
            test_measure_and_tamper(wl)
            test_trace(wl)
            print(f"ok {name}")
    test_command()
    print("ok all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
