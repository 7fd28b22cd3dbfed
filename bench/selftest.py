"""Fast self-test of the benchmark, about ten seconds:

    python3 bench/selftest.py

Runs the `selftest` workload (x, x*y and localize y^2 - x^5) untraced and
traced and checks that every metric BENCHMARK.json names is reported with
its unit and a finite value, that every oracle passes, that the tracer
recorded calls in each layer and put back every binding it rewrote, and
that the benchmark fails without a result where the library is missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import run
from probe import SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_metrics(spec):
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        proc = bench(ROOT, "--workload", "selftest", "--seed", "1",
                     "--seconds", "1", "--trace", trace)
        expect(proc.returncode == 0, f"--trace {trace} exited {proc.returncode}:\n"
               + proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"result keys {sorted(result)}")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
               f"--trace {trace}: {proc.stderr}")
        units = {m["name"]: m["unit"] for m in spec[group]}
        expect(set(result["metrics"]) == set(units),
               f"--trace {trace} metrics differ from BENCHMARK.json: "
               f"{sorted(set(result['metrics']) ^ set(units))}")
        for name, metric in result["metrics"].items():
            value = metric["value"]
            expect(metric["unit"] == units[name], f"{name} unit {metric['unit']}")
            expect(isinstance(value, (int, float)) and math.isfinite(value)
                   and value >= 0, f"{name} = {value!r}")
        if group == "end_to_end":
            zero = [name for name, m in result["metrics"].items() if not m["value"]]
            expect(not zero, f"end-to-end metrics at 0: {zero}")


def check_tracer_restores():
    import workloads
    cases = workloads.build("selftest", 1)
    prepared = [case.prepare() for case in cases]
    tracer = Tracer()
    with tracer.installed():
        traced = run.Pass(cases, prepared, SpeedProbe(), tracer)
    expect(not traced.check(cases, {}), "a selftest case failed under tracing")
    _, uses = workloads.WORKLOADS["selftest"]
    silent = [name for name in uses if not tracer.spans[name].calls]
    expect(not silent, f"no calls traced in {silent}")
    expect(tracer.bindings, "the tracer rebound nothing")
    for namespace, attr, original in tracer.bindings:
        expect(vars(namespace)[attr] is original,
               f"{getattr(namespace, '__name__', namespace)}.{attr} not restored")


def check_oracles():
    import workloads
    expect(workloads.orlik_solomon_dims([(1, 0, 0), (0, 1, 0), (1, 1, 0)])
           == [1, 3, 2, 0, 0], "three concurrent lines")
    expect(workloads.orlik_solomon_dims([(1, 0, 0), (1, 0, 1), (0, 1, 0)])
           == [1, 3, 2, 0, 0], "two parallel lines and a transversal")
    expect(workloads.orlik_solomon_dims([(1, 0, 0), (0, 1, 0), (1, 1, -1)])
           == [1, 3, 3, 0, 0], "three lines in general position")
    expect(workloads.negative_rational_roots(["1/2", "3/2", 1], 2)
           == [-1, Fraction(-1, 2)], "roots of (s + 1)(s + 1/2)")
    expect(workloads.negative_rational_roots([2, 3, 1], 2) is None, "root -2 at -n")
    expect(workloads.negative_rational_roots([2, 0, 1], 2) is None, "s^2 + 2")


def check_bare_directory():
    """Without src/ the benchmark must fail and print no result."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(tmp, "--workload", "golden-sweep", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
        expect(proc.returncode != 0, "benchmark succeeded without the library")
        expect('"metrics"' not in proc.stdout, "benchmark printed a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run.import_derham()
    check_metrics(spec)
    check_tracer_restores()
    check_oracles()
    check_bare_directory()
    print("bench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
