"""Outside-in tracing of sig4's public functions, for the per-layer metrics.

``Tracer.install`` replaces each traced function at every global of a
``sig4`` or ``sig4.*`` module that binds the same object, so calls between
modules (``dd`` -> ``wp``) and the function-local imports in ``verify`` go
through the wrapper too.  Modules are looked up in ``sys.modules``:
``import sig4.dd`` yields the function ``dd``, not the module.  The
identity runners are timed by swapping ``verify.REGISTRY`` and the Click
group by shadowing its ``main`` method.  ``uninstall`` restores every
original binding; nothing in src/ is edited.

Each call's time is attributed to the innermost traced caller, so a
function's self time is its duration minus that of its traced callees.
Every call is aggregated per (caller, function); functions in ``HOT`` run
per point or per quadrature node and get no span of their own, the rest
also keep one span per call in memory, written out by ``dump``.
"""

from __future__ import annotations

import json
import sys
import time

TRACED = (
    ("numerics", "integrate"),
    ("numerics", "solve_depressed_cubic"),
    ("hypergeometric", "hyp2f1"),
    ("hypergeometric", "complete_f"),
    ("weierstrass", "wp"),
    ("weierstrass", "half_periods"),
    ("weierstrass", "midpoints"),
    ("dd", "dd"),
    ("dd", "phi"),
    ("dd", "phi_many"),
    ("dd", "forward_integral"),
    ("dd", "d_real"),
    ("dd", "make_context"),
    ("y4", "y4_plus"),
    ("y4", "y4_minus"),
    ("y4", "make_y4_context"),
    ("quartic", "solve_quartic_ivp"),
    ("verify", "run_suite"),
)
HOT = frozenset({
    "numerics.solve_depressed_cubic", "hypergeometric.hyp2f1", "weierstrass.wp",
    "dd.dd", "y4.y4_plus", "y4.y4_minus", "quartic.solution",
})
IDENTITIES = (
    "d-ode-real-axis", "dd-wp-product", "omega-trig-vs-forward", "omega-trig-vs-series",
    "omega-prime-two-routes", "y4-ode", "y4-shifts", "y4-zero-pole", "y4-zero-start",
    "wp-quarter-turn", "dd-y4-bridge", "period-transfer", "quartic-ivp-dd", "quartic-ivp-y4",
)
MAX_SPANS = 100_000

#: per-layer metrics: (metric name, traced function, quantity, unit)
LAYER_METRICS = (
    [("numerics.integrate." + q, "numerics.integrate", q, u)
     for q, u in (("calls", "count"), ("self_s", "s"), ("fail", "count"),
                  ("evals_per_call", "evals/call"))]
    + [("numerics.solve_depressed_cubic." + q, "numerics.solve_depressed_cubic", q, u)
       for q, u in (("calls", "count"), ("self_s", "s"))]
    + [("hypergeometric.hyp2f1." + q, "hypergeometric.hyp2f1", q, u)
       for q, u in (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"), ("fail", "count"))]
    + [("hypergeometric.complete_f." + q, "hypergeometric.complete_f", q, u)
       for q, u in (("calls", "count"), ("self_s", "s"))]
    + [("weierstrass.wp." + q, "weierstrass.wp", q, u)
       for q, u in (("calls", "count"), ("self_s", "s"), ("us_per_call", "us"),
                    ("pole_share", "share"))]
    + [(f"weierstrass.{f}.{q}", "weierstrass." + f, q, u)
       for f in ("half_periods", "midpoints") for q, u in (("calls", "count"), ("self_s", "s"))]
    + [("dd.dd.calls", "dd.dd", "calls", "count"), ("dd.dd.us_per_call", "dd.dd", "us_per_call", "us"),
       ("dd.phi.calls", "dd.phi", "calls", "count"), ("dd.phi.ms_per_call", "dd.phi", "ms_per_call", "ms")]
    + [(f"dd.{f}.{q}", "dd." + f, q, u)
       for f in ("phi_many", "forward_integral") for q, u in (("calls", "count"), ("self_s", "s"))]
    + [("dd.d_real.calls", "dd.d_real", "calls", "count"),
       ("dd.make_context.calls", "dd.make_context", "calls", "count"),
       ("dd.make_context.self_s", "dd.make_context", "self_s", "s"),
       ("y4.y4_plus.calls", "y4.y4_plus", "calls", "count"),
       ("y4.y4_plus.us_per_call", "y4.y4_plus", "us_per_call", "us"),
       ("y4.y4_minus.calls", "y4.y4_minus", "calls", "count"),
       ("y4.make_y4_context.calls", "y4.make_y4_context", "calls", "count"),
       ("y4.make_y4_context.self_s", "y4.make_y4_context", "self_s", "s"),
       ("quartic.solve_quartic_ivp.calls", "quartic.solve_quartic_ivp", "calls", "count"),
       ("quartic.solve_quartic_ivp.self_s", "quartic.solve_quartic_ivp", "self_s", "s"),
       ("quartic.solution.calls", "quartic.solution", "calls", "count"),
       ("quartic.solution.us_per_call", "quartic.solution", "us_per_call", "us"),
       ("verify.run_suite.calls", "verify.run_suite", "calls", "count"),
       ("verify.run_suite.self_s", "verify.run_suite", "self_s", "s")]
    + [(f"verify.{name}.s", "verify." + name, "total_s", "s") for name in IDENTITIES]
    + [("verify.checks_failed", None, "checks_failed", "count"),
       ("cli.main.calls", "cli.main", "calls", "count"),
       ("cli.main.self_s", "cli.main", "self_s", "s"),
       ("tracing.overhead_share", None, "overhead_share", "share")]
)

#: ROADMAP Baseline table (Python 3.11, timeit, one process): per-call cost and its unit
BASELINE = {
    "weierstrass.wp": ("us", 7.4, "scalar"),
    "dd.dd": ("us", 8.4, "scalar"),
    "y4.y4_plus": ("us", 12.6, "scalar"),
    "hypergeometric.hyp2f1": ("us", 5.8, "x=0.2; 80 us at x=0.9"),
    "dd.forward_integral": ("ms", 0.56, "T=pi/2, kappa=0.5"),
    "dd.phi": ("ms", 1.0, "scalar"),
    "dd.phi_many": ("ms", 106.0, "600 points"),
}


class Tracer:
    def __init__(self):
        self._stack = []
        self._restore = []
        self._cli = None
        self.reset()

    def reset(self):
        """Drop everything recorded so far (the bindings stay wrapped)."""
        self.agg = {}          # (caller, function) -> [calls, total_s, self_s, fails, poles]
        self.spans = []        # (id, parent id, function, start, end)
        self.dropped = 0
        self.evals = 0         # integrand evaluations inside numerics.integrate
        self.checks_failed = 0
        self._next_id = 1

    def wrap(self, name: str, fn):
        stack = self._stack
        hot = name in HOT
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = parent[2] if parent else 0
            if not hot:
                span_id, self._next_id = self._next_id, self._next_id + 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                key = (parent[0] if parent else None, name)
                rec = self.agg.get(key)
                if rec is None:
                    rec = self.agg[key] = [0, 0.0, 0.0, 0, 0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[1]
                if error is not None:
                    rec[3] += 1
                    rec[4] += type(error).__name__ == "PoleError"
                if not hot:
                    if len(self.spans) < MAX_SPANS:
                        self.spans.append((span_id, parent[2] if parent else 0, name, start, end))
                    else:
                        self.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def _special(self, name, fn):
        """Extra bookkeeping around a few functions, inside their wrapper."""
        if name == "numerics.integrate":
            def call(f, *args, **kwargs):
                def counted(x):
                    self.evals += 1
                    return f(x)
                return fn(counted, *args, **kwargs)
            return call
        if name == "quartic.solve_quartic_ivp":
            def call(*args, **kwargs):
                solution, inv = fn(*args, **kwargs)
                return self.wrap("quartic.solution", solution), inv
            return call
        if name == "verify.run_suite":
            registry = len(sys.modules["sig4.verify"].REGISTRY)

            def call(*args, **kwargs):
                try:
                    report = fn(*args, **kwargs)
                except BaseException:
                    self.checks_failed += registry
                    raise
                self.checks_failed += registry - sum(c.passed for c in report.checks)
                return report
            return call
        return fn

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "sig4" or n.startswith("sig4.")]
        for module, fname in TRACED:
            original = getattr(sys.modules["sig4." + module], fname)
            name = f"{module}.{fname}"
            wrapper = self.wrap(name, self._special(name, original))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, attr, value))
                        setattr(m, attr, wrapper)
        verify = sys.modules["sig4.verify"]
        self._restore.append((verify, "REGISTRY", verify.REGISTRY))
        verify.REGISTRY = tuple((n, self.wrap("verify." + n, r)) for n, r in verify.REGISTRY)
        cli = sys.modules.get("sig4.cli")
        if cli is not None:
            cli.main.main = self.wrap("cli.main", cli.main.main)
            self._cli = cli.main

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
        if self._cli is not None:
            del self._cli.main
            self._cli = None

    def totals(self, name: str) -> list:
        """[calls, total_s, self_s, fails, poles] of one function over all callers."""
        out = [0, 0.0, 0.0, 0, 0]
        for (_, fname), rec in self.agg.items():
            if fname == name:
                out = [a + b for a, b in zip(out, rec)]
        return out

    def layer_metrics(self, overhead_share: float) -> dict:
        metrics = {}
        for metric, fname, quantity, unit in LAYER_METRICS:
            if quantity == "checks_failed":
                value = self.checks_failed
            elif quantity == "overhead_share":
                value = overhead_share
            else:
                calls, total, self_s, fails, poles = self.totals(fname)
                per = total / calls if calls else 0.0
                value = {
                    "calls": calls, "self_s": self_s, "total_s": total, "fail": fails,
                    "us_per_call": per * 1e6, "ms_per_call": per * 1e3,
                    "pole_share": poles / calls if calls else 0.0,
                    "evals_per_call": self.evals / calls if calls else 0.0,
                }[quantity]
            metrics[metric] = {"value": value, "unit": unit}
        return metrics

    def baseline_rows(self) -> list:
        """Traced per-call cost beside the ROADMAP Baseline table, with the ratio."""
        rows = []
        for fname, (unit, base, note) in BASELINE.items():
            calls, total = self.totals(fname)[:2]
            if calls:
                measured = total / calls * (1e6 if unit == "us" else 1e3)
                rows.append({"function": fname, "unit": unit, "traced": measured, "calls": calls,
                             "roadmap": base, "roadmap_inputs": note, "ratio": measured / base})
        return rows

    def dump(self, path) -> None:
        data = {
            "aggregates": [
                {"caller": caller, "function": fname, "calls": r[0], "total_s": r[1],
                 "self_s": r[2], "fail": r[3]}
                for (caller, fname), r in sorted(self.agg.items(), key=lambda kv: -kv[1][1])
            ],
            "spans": self.spans,
            "spans_dropped": self.dropped,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
