"""Benchmark for derham: one workload, one process, one case at a time.

    python3 bench/run.py --workload golden-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the library is imported from
./src, never from an installed copy.  The loop is closed with one client:
each case starts when the previous one has returned.

--trace 0 repeats whole passes over the workload while another pass fits
in --seconds (at least one) and reports the end-to-end metrics as medians
over the passes.  --trace 1 makes one untraced pass and one traced pass
and reports the per-layer metrics of the traced one.  Every answer is
checked against the workload's oracle and every report is digested; a
wrong answer, a DerhamError or a digest that differs between passes
counts as a failed case.  Times of untraced passes are scaled to a
reference host speed (see probe.py).  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import SpeedProbe
from tracer import STAGES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7


def import_derham():
    """Import derham from this checkout's src, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import derham
    except ImportError as exc:
        sys.exit(f"bench: cannot import derham from {SRC}: {exc}")
    if Path(derham.__file__).resolve().parent != SRC / "derham":
        sys.exit(f"bench: derham was imported from {derham.__file__}, not {SRC}")


class Pass:
    """Outputs and timings of one pass over the workload's cases.

    Case times leave out the probe's own time.  Each is scaled to reference
    host speed by the probe samples from the one before the case to the one
    after it, the pass time by all samples of the pass.
    """

    def __init__(self, cases, prepared, probe, tracer=None):
        import workloads
        self.outputs, self.errors, raw, self.case_s = [], [], [], []
        first = len(probe.samples)
        for case, inp in zip(cases, prepared):
            if tracer is not None:
                tracer.begin_case()
            probe.sample()
            lo, spent = len(probe.samples) - 1, probe.spent
            t0 = time.perf_counter()
            out, err = workloads.run_case(case, inp)
            elapsed = time.perf_counter() - t0 - (probe.spent - spent)
            probe.sample()
            raw.append(elapsed)
            self.case_s.append(elapsed * probe.scale(lo, len(probe.samples)))
            self.outputs.append(out)
            self.errors.append(err)
        self.wall_s = sum(raw)
        self.solve_s = self.wall_s * probe.scale(first, len(probe.samples))
        self.slowest_case_s = max(self.case_s)

    def check(self, cases, digests: dict) -> list:
        """Failures of this pass; digests maps case label -> first digest."""
        failures = []
        for case, out, err in zip(cases, self.outputs, self.errors):
            if err is None:
                err = case.check(out)
            if err is None:
                digest = case.digest(out)
                if digests.setdefault(case.label, digest) != digest:
                    err = "report digest differs from an earlier pass"
            if err is not None:
                failures.append(f"{case.label}: {err}")
        return failures


def measure_setup(workload: str, seed: int) -> float:
    """Median time from interpreter start until derham is imported and the
    workload's inputs are parsed and validated, over fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def layer_metrics(tracer, traced: Pass, cases, untraced_solve_s: float) -> dict:
    spans, counts, maxima = tracer.spans, tracer.counts, tracer.maxima
    m = {f"pipeline.{stage}.s": (spans[f"pipeline.{stage}"].total, "s")
         for stage in dict.fromkeys(STAGES.values())}
    builds = spans["groebner.solver"].calls
    distinct = counts["solver.distinct"]
    m.update({
        "groebner.solver.builds": (builds, "count"),
        "groebner.solver.distinct": (distinct, "count"),
        "groebner.solver.distinct_ratio": (distinct / builds if builds else 0.0, "ratio"),
        "groebner.solver.s": (spans["groebner.solver"].total, "s"),
        "groebner.solver.self_s": (spans["groebner.solver"].self_time, "s"),
        "groebner.solver.repeat_s": (counts["solver.repeat_s"], "s"),
        "groebner.solver.max_rows": (maxima["solver.max_rows"], "count"),
        "groebner.buchberger.max_basis": (maxima["buchberger.max_basis"], "count"),
        "groebner.buchberger.max_coeff_bits": (maxima["buchberger.max_coeff_bits"], "bits"),
        "groebner.spair.reduced": (counts["spair.reduced"], "count"),
        "groebner.spair.zero_ratio": (counts["spair.zero"] / counts["spair.reduced"]
                                      if counts["spair.reduced"] else 0.0, "ratio"),
        "groebner.mono_mul_flat.terms_out": (counts["mono_mul_flat.terms_out"], "count"),
    })
    for span, fields in (("groebner.buchberger", ("calls", "s", "self_s")),
                         ("groebner.reduce", ("calls", "s", "self_s")),
                         ("groebner.mono_mul_flat", ("calls", "s")),
                         ("localization.annihilator", ("calls", "s")),
                         ("localization.bernstein_sato", ("calls", "s")),
                         ("weyl.weyl_mul", ("calls", "s")),
                         ("linalg.rank", ("calls", "s")),
                         ("linalg.solve", ("calls", "s"))):
        s = spans[span]
        values = {"calls": (s.calls, "count"), "s": (s.total, "s"),
                  "self_s": (s.self_time, "s")}
        for field in fields:
            m[f"{span}.{field}"] = values[field]
    sizes = {"strictify.strict_rank_sum": 0, "restriction.b_degree": 0,
             "restriction.truncated_dim_sum": 0}
    for case, out in zip(cases, traced.outputs):
        if out is not None:
            for name, value in case.sizes(out).items():
                sizes[name] += value
    m.update({name: (value, "count") for name, value in sizes.items()})
    m["trace.overhead_ratio"] = (traced.solve_s / untraced_solve_s, "ratio")
    return m


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the library sources, to identify code outside git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "derham").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run(args, cases, prepared):
    import workloads

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    context = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "python": platform.python_version(),
               "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
               "loadavg_before": os.getloadavg(), "git_commit": git_commit(),
               "source_sha256": source_digest(), "cases": len(cases)}
    digests: dict = {}
    failures: list = []
    passes = []
    probe = SpeedProbe()
    start = time.perf_counter()
    with probe.running():
        while True:
            p0 = time.perf_counter()
            passes.append(Pass(cases, prepared, probe))
            failures += passes[-1].check(cases, digests)
            elapsed = time.perf_counter() - start
            if args.trace or elapsed + (time.perf_counter() - p0) > args.seconds:
                break
    if args.trace:
        # no timer here: its samples would land inside the traced spans
        tracer = Tracer()
        with tracer.installed():
            traced = Pass(cases, prepared, probe, tracer)
        failures += traced.check(cases, digests)
        _, uses = workloads.WORKLOADS[args.workload]
        silent = [name for name in uses if not tracer.spans[name].calls]
        if silent and not failures:
            sys.exit("bench: the traced pass recorded no calls in "
                     + ", ".join(silent) + "; a binding was missed")
        metrics = layer_metrics(tracer, traced, cases, passes[0].solve_s)
        attempted = len(cases) * 2
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "solve_s": (statistics.median(p.solve_s for p in passes), "s"),
            "slowest_case_s": (statistics.median(p.slowest_case_s for p in passes), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        attempted = len(cases) * len(passes)
    context["passes"] = len(passes)
    context["probe_unit_s"] = statistics.median(probe.samples)
    context["loadavg_after"] = os.getloadavg()
    context["report_digest"] = hashlib.sha256(
        json.dumps(digests, sort_keys=True).encode()).hexdigest()

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} untraced pass(es) over {len(cases)} cases")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':38s} {len(failures) / attempted:.6g} ratio")
    print(f"  {'unscaled wall time per pass':38s} "
          f"{' '.join(f'{p.wall_s:.4f}' for p in passes)} s")
    print("  per case, median over untraced passes:")
    for label, seconds in sorted(
            (case.label, statistics.median(p.case_s[i] for p in passes))
            for i, case in enumerate(cases)):
        print(f"    {seconds:10.4f} s  {label}")
    print("context " + json.dumps(context))
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, print the monotonic clock, exit")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_derham()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from "
                 + ", ".join(workloads.WORKLOADS))
    cases = workloads.build(args.workload, args.seed)
    prepared = [case.prepare() for case in cases]
    if args.setup_only:
        print(repr(time.monotonic()))
        return 0
    print(json.dumps(run(args, cases, prepared)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
