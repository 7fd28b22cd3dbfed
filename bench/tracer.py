"""Outside-in tracer for the derham layers.

The library is not edited: the tracer times the public functions of each
layer by rebinding their names.  A function imported with `from .x import f`
is a separate binding in every importing module, so kernels are rebound in
every loaded `derham` module that holds them; pipeline stages are rebound
only in `derham.pipeline`, whose `_run` calls them; methods are rebound on
their class.  Every original binding is put back on exit.

Spans are aggregated in memory per name (calls, inclusive time, self time)
rather than stored one by one: the kernels run millions of times.  A span's
self time is its duration minus the durations of the spans it called
directly.  Nested spans of the same name count once toward inclusive time.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# pipeline function -> the stage name `_run` gives it
STAGES = {
    "family_for_mv": "localize",
    "family_for_support": "localize",
    "mv_complex": "mayer-vietoris",
    "mv_tensor_cech": "mv-tensor-cech",
    "fourier_complex": "fourier",
    "strictify_complex": "strictify",
    "b_function_of_complex": "b-function",
    "omega_tensor_truncate": "truncate",
    "cohomology_dims": "ranks",
}


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.spans = defaultdict(Span)
        self.counts = defaultdict(int)      # summed counters and times
        self.maxima = defaultdict(int)      # largest values seen
        self._stack = []                    # [time spent in direct children]
        self._open = defaultdict(int)       # open spans per name
        self._bindings = []                 # (namespace, attr, original)
        self._seen_solvers = set()

    def begin_case(self):
        """Solver builds repeat only within one case."""
        self._seen_solvers.clear()

    def _wrapper(self, fn, name, observe):
        stack, opened, span = self._stack, self._open, self.spans[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            opened[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                opened[name] -= 1
                span.calls += 1
                span.self_time += elapsed - frame[0]
                if not opened[name]:
                    span.total += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if observe is not None:
                t1 = clock()
                observe(out, args, kwargs, elapsed)
                if stack:
                    # the observer's own cost is charged to no layer
                    stack[-1][0] += clock() - t1
            return out

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, namespace, attr, wrapper):
        self._bindings.append((namespace, attr, vars(namespace)[attr]))
        setattr(namespace, attr, wrapper)

    def wrap_everywhere(self, fn, name, observe=None):
        """Rebind fn in every loaded derham module that holds it."""
        wrapper = self._wrapper(fn, name, observe)
        found = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "derham" or modname.startswith("derham.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._rebind(mod, attr, wrapper)
                    found += 1
        if not found:
            raise RuntimeError(f"no binding of {name} found to trace")

    def wrap_attr(self, namespace, attr, name, observe=None):
        self._rebind(namespace, attr,
                     self._wrapper(vars(namespace)[attr], name, observe))

    def restore(self):
        for namespace, attr, original in reversed(self._bindings):
            setattr(namespace, attr, original)

    @property
    def bindings(self):
        """Every (namespace, attribute, original) this tracer rebound."""
        return list(self._bindings)

    # -- counters observed at the layer boundaries -------------------------

    def _solver_built(self, _out, args, _kwargs, elapsed):
        solver = args[0]
        key = (solver.spec, solver.rank, tuple(solver.gens),
               solver.ambient_shift, solver.cofactor_shift)
        if key in self._seen_solvers:
            self.counts["solver.repeat_s"] += elapsed
        else:
            self._seen_solvers.add(key)
            self.counts["solver.distinct"] += 1
        self.maxima["solver.max_rows"] = max(self.maxima["solver.max_rows"],
                                             len(solver.gens))

    def _basis_built(self, out, _args, _kwargs, _elapsed):
        self.maxima["buchberger.max_basis"] = max(
            self.maxima["buchberger.max_basis"], len(out))
        bits = self.maxima["buchberger.max_coeff_bits"]
        for _lead, _lc, vec in out:
            for c in vec.values():
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        self.maxima["buchberger.max_coeff_bits"] = bits

    def _reduced(self, out, args, kwargs, _elapsed):
        mode = kwargs.get("mode", args[3] if len(args) > 3 else "full")
        if mode == "top":
            self.counts["spair.reduced"] += 1
            if not out:
                self.counts["spair.zero"] += 1

    def _multiplied(self, out, _args, _kwargs, _elapsed):
        self.counts["mono_mul_flat.terms_out"] += len(out)

    @contextmanager
    def installed(self):
        """Trace every layer inside the block; restore the bindings after."""
        from derham import groebner, linalg, localization, pipeline, weyl
        try:
            for fn_name, stage in STAGES.items():
                self.wrap_attr(pipeline, fn_name, f"pipeline.{stage}")
            self.wrap_attr(groebner.SubmoduleSolver, "__init__", "groebner.solver",
                           self._solver_built)
            self.wrap_attr(groebner.GBEngine, "buchberger", "groebner.buchberger",
                           self._basis_built)
            self.wrap_attr(groebner.GBEngine, "reduce", "groebner.reduce",
                           self._reduced)
            self.wrap_everywhere(groebner.mono_mul_flat, "groebner.mono_mul_flat",
                                 self._multiplied)
            self.wrap_everywhere(weyl.weyl_mul, "weyl.weyl_mul")
            self.wrap_everywhere(localization.annihilator_of_fs,
                                 "localization.annihilator")
            self.wrap_everywhere(localization.bernstein_sato,
                                 "localization.bernstein_sato")
            self.wrap_everywhere(linalg.rank, "linalg.rank")
            self.wrap_everywhere(linalg.solve, "linalg.solve")
            yield self
        finally:
            self.restore()
