"""Span recording around calls into detcomp's public functions.

Every span is recorded from the benchmark's side of a layer boundary: the
tracer rebinds the module attribute a caller looks up (for example
``singularity.buchberger`` or ``matmap.det_berkowitz``) to a wrapper that
times the call. Nothing inside ``src/`` is edited. Spans carry a name, start,
end, parent span and job id; they stay in memory and are written out once,
when the run ends. A layer's number is its self time: the span's duration
minus the time covered by its child spans.

Counters are read from the public return values (``GroebnerStats``,
``SampleReport``, ``SearchReport``, ``DcResult``), so at a fixed seed they
repeat exactly from run to run.
"""

from __future__ import annotations

import json
import statistics
import time
from math import comb


class Tracer:
    def __init__(self):
        self.spans: list = []      # (name, start, end, parent, job)
        self._open: list = []      # indices into spans of the calls in flight
        self._child: list = []     # child time accumulated per open span
        self.job = None            # id of the job running now; None: record nothing
        self.self_s: dict = {}
        self.calls: dict = {}
        self.counts: dict = {}     # work counters read from return values
        self.samples: dict = {}    # per-call durations kept for percentiles

    # -- recording -------------------------------------------------------

    def span(self, name, fn, observe=None, keep_durations=False):
        """A wrapper that records one span per call of fn while a job runs."""
        tracer = self

        def traced(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer._open.append(idx)
            tracer._child.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                child = tracer._child.pop()
                duration = end - start
                if tracer._child:
                    tracer._child[-1] += duration
                parent = tracer._open[-1] if tracer._open else -1
                tracer.spans[idx] = (name, start, end, parent, tracer.job)
                tracer.self_s[name] = tracer.self_s.get(name, 0.0) + duration - child
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
                if keep_durations:
                    tracer.samples.setdefault(name, []).append(duration)
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        """A wrapper that only counts calls: for functions too small to time."""
        tracer = self

        def counted(*args):
            if tracer.job is not None:
                tracer.calls[name] = tracer.calls.get(name, 0) + 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- installing ------------------------------------------------------

    def rebind(self, modules, attr, wrapper_for):
        """Replace attr in every module that holds the same function object.

        wrapper_for(module) returns the wrapper for that module, so one
        function can be named after its caller (search.verify_expression is
        the search layer's re-verification, matmap.verify_expression is not).
        """
        original = None
        for module in modules:
            if hasattr(module, attr):
                original = getattr(module, attr)
                break
        if original is None:
            raise AttributeError(f"no module defines {attr}")
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper_for(module, original))

    # -- reporting -------------------------------------------------------

    def reset(self):
        """Start a new pass; spans already recorded are kept for the file."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.samples.clear()

    def write(self, path, header):
        """One JSON line of run metadata, then one [name, start, end, parent, job] per span."""
        with open(path, "w") as out:
            out.write(json.dumps(header) + "\n")
            for name, start, end, parent, job in self.spans:
                out.write(json.dumps([name, round(start, 9), round(end, 9), parent, job]))
                out.write("\n")


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every detcomp layer the workloads reach.

    The wrappers stay for the life of the process; outside a job they only
    pass the call through.
    """
    from detcomp import (
        cli, explore, expressions, fields, groebner, jsonio, linalg, matmap,
        parsing, poly, search, singularity,
    )
    from detcomp.expressions import ABP
    from detcomp.poly import Polynomial

    modules = [cli, explore, expressions, fields, groebner, jsonio, linalg,
               matmap, parsing, poly, search, singularity]

    def named(name, observe=None, keep=False):
        return lambda module, fn: tracer.span(name, fn, observe, keep)

    def on_basis(t, args, gb):
        t.add("pairs_processed", gb.stats.pairs_processed)
        t.add("zero_reductions", gb.stats.zero_reductions)
        t.add("basis_size", gb.stats.basis_size)

    def on_oracle(t, args, ok):
        t.add("oracle_pairs", comb(len(args[0].polys), 2))

    def on_sample(t, args, report):
        t.add("degenerate", report.degenerate)
        t.add("timeouts", report.timeouts)

    def on_search(t, args, report):
        t.add("full_evaluations", report.full_evaluations)
        t.add("blocks_pruned", report.blocks_pruned)
        t.add("hits", len(report.found))

    def on_dc(t, args, result):
        t.add("full_evaluations", sum(evals for _, evals in result.evaluations))
        t.add("hits", 1 if result.value is not None else 0)

    tracer.rebind(modules, "buchberger", named("groebner.buchberger", on_basis))
    tracer.rebind(modules, "is_groebner_basis", named("groebner.oracle", on_oracle))
    tracer.rebind(modules, "staircase_dimension", named("groebner.staircase"))
    tracer.rebind(modules, "mono_lcm", lambda m, fn: tracer.counter("poly.mono_lcm", fn))
    tracer.rebind(modules, "mono_divides", lambda m, fn: tracer.counter("poly.mono_divides", fn))
    tracer.rebind(modules, "symbolic_det", named("matmap.symbolic_det"))
    tracer.rebind(modules, "det_berkowitz", named("matmap.berkowitz"))
    tracer.rebind(modules, "det_laplace_memo", named("matmap.laplace"))
    tracer.rebind(modules, "verify_expression", lambda module, fn: tracer.span(
        "search.reverify" if module is search else "matmap.verify", fn))
    tracer.rebind(modules, "mat_det", named("linalg.mat_det"))
    tracer.rebind(modules, "certify_lower_bound", named("singularity.certify"))
    tracer.rebind(modules, "jacobian_ideal", named("singularity.jacobian_ideal"))
    tracer.rebind(modules, "codim_sing", named("singularity.codim_sing"))
    tracer.rebind(modules, "sample_codim", named("explore.trial", on_sample, keep=True))
    tracer.rebind(modules, "abp_to_determinant", named("expressions.abp_to_determinant"))
    tracer.rebind(modules, "cubic_case_analysis", named("expressions.case_analysis"))
    tracer.rebind(modules, "search_report", named("search.search", on_search))
    tracer.rebind(modules, "dc_exact", named("search.search", on_dc))

    # Methods are looked up on the class, so they are rebound there.
    add = tracer.span("poly.add", Polynomial.__add__)
    Polynomial.__add__ = add
    Polynomial.__radd__ = add
    Polynomial.__mul__ = tracer.span("poly.mul", Polynomial.__mul__)
    ABP.path_sum = tracer.span("expressions.path_sum", ABP.path_sum)


def _pct(values, q):
    """Nearest-rank percentile; 0 when the layer did not run."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one pass: self times, calls and work counters."""
    s = tracer.self_s.get
    n = tracer.calls.get
    c = tracer.counts.get
    pairs = c("pairs_processed", 0)
    search_s = s("search.search", 0.0)
    evals = c("full_evaluations", 0)
    trials = tracer.samples.get("explore.trial", [])
    return {
        "groebner.buchberger_s": s("groebner.buchberger", 0.0),
        "groebner.buchberger_calls": n("groebner.buchberger", 0),
        "groebner.pairs_processed": pairs,
        "groebner.s_per_pair": s("groebner.buchberger", 0.0) / pairs if pairs else 0.0,
        "groebner.zero_reductions": c("zero_reductions", 0),
        "groebner.useful_pair_ratio": (pairs - c("zero_reductions", 0)) / pairs if pairs else 0.0,
        "groebner.basis_size": c("basis_size", 0),
        "groebner.oracle_s": s("groebner.oracle", 0.0),
        "groebner.oracle_pairs": c("oracle_pairs", 0),
        "groebner.staircase_s": s("groebner.staircase", 0.0),
        "poly.add_calls": n("poly.add", 0),
        "poly.add_s": s("poly.add", 0.0),
        "poly.mul_calls": n("poly.mul", 0),
        "poly.mul_s": s("poly.mul", 0.0),
        "poly.mono_lcm_calls": n("poly.mono_lcm", 0),
        "poly.mono_divides_calls": n("poly.mono_divides", 0),
        "matmap.symbolic_det_s": s("matmap.symbolic_det", 0.0),
        "matmap.berkowitz_calls": n("matmap.berkowitz", 0),
        "matmap.berkowitz_s": s("matmap.berkowitz", 0.0),
        "matmap.laplace_calls": n("matmap.laplace", 0),
        "matmap.laplace_s": s("matmap.laplace", 0.0),
        "matmap.verify_s": s("matmap.verify", 0.0),
        "linalg.mat_det_calls": n("linalg.mat_det", 0),
        "linalg.mat_det_s": s("linalg.mat_det", 0.0),
        "singularity.certify_s": s("singularity.certify", 0.0),
        "singularity.jacobian_ideal_s": s("singularity.jacobian_ideal", 0.0),
        "singularity.codim_sing_s": s("singularity.codim_sing", 0.0),
        "explore.trials": len(trials),
        "explore.trial_s.p50": _pct(trials, 0.5),
        "explore.trial_s.p90": _pct(trials, 0.9),
        "explore.degenerate": c("degenerate", 0),
        "explore.timeouts": c("timeouts", 0),
        "expressions.abp_to_determinant_s": s("expressions.abp_to_determinant", 0.0),
        "expressions.path_sum_s": s("expressions.path_sum", 0.0),
        "expressions.case_analysis_s": s("expressions.case_analysis", 0.0),
        "search.search_s": search_s,
        "search.full_evaluations": evals,
        "search.blocks_pruned": c("blocks_pruned", 0),
        "search.evals_per_s": evals / search_s if search_s else 0.0,
        "search.hits": c("hits", 0),
        "search.reverify_s": s("search.reverify", 0.0),
    }


def median_metrics(passes: list) -> dict:
    """Median of each per-layer number over the passes of one run."""
    return {key: statistics.median(p[key] for p in passes) for key in passes[0]}
