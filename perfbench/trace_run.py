"""Traced pass over one workload, in this one process.

Reads a JSON list of `ziclab` argument lists on stdin, imports `ziclab`
from a fresh interpreter, wraps the public functions of each module in
spans, runs every command through `ziclab.cli.main`, and prints one JSON
object with the per-layer metrics.  Run it from the root of a checkout
with `src` on PYTHONPATH; `run.py --trace 1` does that.

Spans live in memory, one list per command.  Each thread keeps its own
span stack; work that `parallel_map` hands to its pool threads is parented
to the `parallel_map` span.  A span's self time is the part of its
interval that no child span covers; where spans of several threads run at
once, each instant is split evenly among the innermost spans running
then, so the self times of one command sum to its traced wall time.
"""

import sys
import time

import ziclab  # first, so that the module count below is that of `import ziclab`

SCIPY_MODULES = sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import threading  # noqa: E402

import numpy as np  # noqa: E402

from ziclab import _util, cli, counterexamples, entropy, gaussmix, geometry, hessian, hkregion  # noqa: E402

# metrics that aggregate by maximum; every other extra is summed
MAX_EXTRAS = ("max_order", "max_side", "workers")

SUBCOMMANDS = (
    "phase-diagram", "condition54-root", "verify-lemma1", "verify-lemma2",
    "verify-vertical", "hessian", "theorem5-epsilon", "constant-power-gap",
    "geometry", "limit-functional", "hk-region", "lemma5-audit",
    "theorem4-audit", "conjecture2-map",
)


def _arg(args, kwargs, i, name, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


# (span name, owner, attribute, extras(args, kwargs, result) -> dict or None)
TRACED = (
    ("gaussmix.gauss_deriv_pdf", gaussmix, "gauss_deriv_pdf",
     lambda a, k, r: {"points": int(np.size(a[0])), "max_order": int(_arg(a, k, 2, "order", 0))}),
    ("gaussmix.gauss_deriv_poly", gaussmix, "gauss_deriv_poly", None),
    ("gaussmix.convolve", gaussmix.GaussDerivMixture, "convolve",
     lambda a, k, r: {"terms_out": len(r.terms)}),
    ("gaussmix.convolve", gaussmix.GaussMixture, "convolve",
     lambda a, k, r: {"terms_out": len(r.weights)}),
    ("entropy.differential_entropy", entropy, "differential_entropy",
     lambda a, k, r: {"points": int(_arg(a, k, 0, "p").n)}),
    ("entropy.fisher_information", entropy, "fisher_information", None),
    ("entropy.mixture_to_grid", entropy, "mixture_to_grid", None),
    ("entropy.log_weighted_deriv_integral", entropy, "log_weighted_deriv_integral", None),
    ("entropy.smoothing_curve", entropy, "smoothing_curve", None),
    ("counterexamples.deriv_norm_balance", counterexamples, "deriv_norm_balance", None),
    ("counterexamples.vertical_gap", counterexamples, "vertical_gap", None),
    ("counterexamples.fisher_limit_gain", counterexamples, "fisher_limit_gain", None),
    ("counterexamples.skewness_gap", counterexamples, "skewness_gap", None),
    ("counterexamples.select_epsilon", counterexamples, "select_epsilon", None),
    ("counterexamples.interference_objective", counterexamples, "interference_objective", None),
    ("hessian.phase_diagram", hessian, "phase_diagram", None),
    ("hessian.hessian_quadratic_form", hessian, "hessian_quadratic_form", None),
    ("hessian.local_optimality_radius", hessian, "local_optimality_radius", None),
    ("geometry.volume_ratio", geometry, "volume_ratio", None),
    ("hkregion.f1_table", hkregion, "f1_table", lambda a, k, r: {"nodes": int(r.size)}),
    ("hkregion.Envelope2D", hkregion.Envelope2D, "__init__",
     lambda a, k, r: {"points": int(a[0].table.size),
                      "max_side": int(max(a[0].xg.size, a[0].yg.size))}),
    ("hkregion.Envelope2D.value", hkregion.Envelope2D, "value", None),
    ("hkregion.fixed_power_value", hkregion, "fixed_power_value", None),
    ("hkregion.fixed_power_value_2d", hkregion, "fixed_power_value_2d", None),
    ("hkregion.concave_envelope_1d", hkregion, "concave_envelope_1d", None),
    ("hkregion.envelope_for", hkregion, "envelope_for", None),
    ("hkregion.power_control_envelope", hkregion, "power_control_envelope", None),
    ("hkregion.power_control_value", hkregion, "power_control_value", None),
    ("hkregion.maximizer_bound_check", hkregion, "maximizer_bound_check", None),
    ("hkregion.eigenvalue_bound_audit", hkregion, "eigenvalue_bound_audit",
     lambda a, k, r: {"d": int(_arg(a, k, 0, "d")), "samples": int(_arg(a, k, 2, "samples"))}),
)

# (metric, unit); "<span>.calls" counts spans, "<span>.self_pct" is the
# span's summed self time as a share of the traced pass, any other suffix
# is an extra recorded by the span.  Times are shares so that a layer a
# workload never calls reads 0 % rather than a constant 0 s.
LAYER_METRICS = (
    ("import.scipy_modules", "count"),
    *((f"cli.{sub}.wall_pct", "%") for sub in SUBCOMMANDS),
    ("hkregion.f1_table.calls", "count"),
    ("hkregion.f1_table.self_pct", "%"),
    ("hkregion.f1_table.nodes", "count"),
    ("hkregion.Envelope2D.builds", "count"),
    ("hkregion.Envelope2D.self_pct", "%"),
    ("hkregion.Envelope2D.points", "count"),
    ("hkregion.Envelope2D.max_side", "count"),
    ("hkregion.Envelope2D.value.calls", "count"),
    ("hkregion.Envelope2D.value.self_pct", "%"),
    ("hkregion.queries_per_build", "ratio"),
    ("hkregion.margin_escalations", "count"),
    ("hkregion.audit.refinements", "count"),
    ("hkregion.fixed_power_value.calls", "count"),
    ("hkregion.fixed_power_value.self_pct", "%"),
    ("hkregion.fixed_power_value_2d.calls", "count"),
    ("hkregion.fixed_power_value_2d.self_pct", "%"),
    ("hkregion.concave_envelope_1d.calls", "count"),
    ("hkregion.concave_envelope_1d.self_pct", "%"),
    ("counterexamples.deriv_norm_balance.calls", "count"),
    ("counterexamples.deriv_norm_balance.self_pct", "%"),
    ("counterexamples.vertical_gap.self_pct", "%"),
    ("counterexamples.fisher_limit_gain.self_pct", "%"),
    ("counterexamples.skewness_gap.self_pct", "%"),
    ("counterexamples.select_epsilon.self_pct", "%"),
    ("counterexamples.interference_objective.self_pct", "%"),
    ("entropy.differential_entropy.calls", "count"),
    ("entropy.differential_entropy.self_pct", "%"),
    ("entropy.differential_entropy.points", "count"),
    ("entropy.fisher_information.calls", "count"),
    ("entropy.fisher_information.self_pct", "%"),
    ("entropy.mixture_to_grid.calls", "count"),
    ("entropy.mixture_to_grid.self_pct", "%"),
    ("entropy.log_weighted_deriv_integral.calls", "count"),
    ("entropy.log_weighted_deriv_integral.self_pct", "%"),
    ("entropy.smoothing_curve.calls", "count"),
    ("entropy.smoothing_curve.self_pct", "%"),
    ("gaussmix.gauss_deriv_pdf.calls", "count"),
    ("gaussmix.gauss_deriv_pdf.self_pct", "%"),
    ("gaussmix.gauss_deriv_pdf.points", "count"),
    ("gaussmix.gauss_deriv_pdf.max_order", "count"),
    ("gaussmix.gauss_deriv_poly.calls", "count"),
    ("gaussmix.gauss_deriv_poly.self_pct", "%"),
    ("gaussmix.convolve.calls", "count"),
    ("gaussmix.convolve.terms_out", "count"),
    ("hessian.phase_diagram.self_pct", "%"),
    ("hessian.hessian_quadratic_form.self_pct", "%"),
    ("hessian.local_optimality_radius.self_pct", "%"),
    ("geometry.volume_ratio.calls", "count"),
    ("geometry.volume_ratio.self_pct", "%"),
    ("util.parallel_map.calls", "count"),
    ("util.parallel_map.self_pct", "%"),
    ("util.parallel_map.workers", "count"),
)


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "extra")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.extra = None


class Tracer:
    """Span recorder; `spans` is replaced by the caller per command."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def stack(self):
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, name):
        stack = self.stack()
        span = Span(name, stack[-1] if stack else None)
        self.spans.append(span)
        stack.append(span)
        span.t0 = time.perf_counter()
        return span

    def end(self, span):
        span.t1 = time.perf_counter()
        self.stack().pop()

    def wrap(self, name, fn, extras):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if extras is not None:
                span.extra = extras(args, kwargs, result)
            return result

        return traced

    def wrap_parallel_map(self, fn):
        def traced(work, items):
            span = self.begin("util.parallel_map")
            span.extra = {"workers": min(_util.thread_count(), len(items)) if items else 1}
            owner = threading.get_ident()

            def in_pool(item):
                if threading.get_ident() == owner:
                    return work(item)
                stack = self.stack()
                stack.append(span)
                try:
                    return work(item)
                finally:
                    stack.pop()

            try:
                return fn(in_pool, items)
            finally:
                self.end(span)

        return traced


def install(tracer):
    """Replace each traced function in every `ziclab` namespace binding it,
    and each traced method on its class."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "ziclab" or n.startswith("ziclab.")]
    rebind = [(_util.parallel_map, tracer.wrap_parallel_map(_util.parallel_map))]
    for name, owner, attr, extras in TRACED:
        if isinstance(owner, type):
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr], extras))
        else:
            orig = getattr(owner, attr)
            rebind.append((orig, tracer.wrap(name, orig, extras)))
    for orig, wrapped in rebind:
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)


def self_times(spans):
    """Self time per span; each instant goes in equal shares to the running
    spans that have no running child."""
    index = {id(s): i for i, s in enumerate(spans)}
    parent = [index.get(id(s.parent), -1) for s in spans]
    events = sorted([(s.t0, 1, i) for i, s in enumerate(spans)] + [(s.t1, 0, i) for i, s in enumerate(spans)])
    running_children = [0] * len(spans)
    running = [False] * len(spans)
    leaves = set()
    out = [0.0] * len(spans)
    last = None
    for t, starts, i in events:
        if leaves:
            share = (t - last) / len(leaves)
            for j in leaves:
                out[j] += share
        last = t
        p = parent[i]
        if starts:
            running[i] = True
            leaves.add(i)
            if p >= 0 and running[p]:
                running_children[p] += 1
                leaves.discard(p)
        else:
            running[i] = False
            leaves.discard(i)
            if p >= 0 and running[p]:
                running_children[p] -= 1
                if running_children[p] == 0:
                    leaves.add(p)
    return out


def _under_audit(span, d):
    s = span.parent
    while s is not None:
        if s.name == "hkregion.eigenvalue_bound_audit":
            return s.extra is not None and s.extra["d"] == d
        s = s.parent
    return False


def main():
    commands = json.load(sys.stdin)
    tracer = Tracer()
    install(tracer)
    calls, self_s, extras = {}, {}, {}
    walls = {sub: 0.0 for sub in SUBCOMMANDS}
    audit_calls = 0
    reports = []
    for argv in commands:
        tracer.spans = []
        root = tracer.begin("cli")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(list(argv))
        tracer.end(root)
        reports.append(hashlib.sha256(buf.getvalue().encode()).hexdigest())
        wall = root.t1 - root.t0
        walls[argv[0]] += wall
        spans = tracer.spans
        own = self_times(spans)
        if sum(own) > wall * (1.0 + 1e-9) + 1e-9:
            raise RuntimeError(f"self times {sum(own)} exceed wall {wall} for {argv[0]}")
        for span, t in zip(spans, own):
            calls[span.name] = calls.get(span.name, 0) + 1
            self_s[span.name] = self_s.get(span.name, 0.0) + t
            for key, val in (span.extra or {}).items():
                full = f"{span.name}.{key}"
                if key in MAX_EXTRAS:
                    extras[full] = max(extras.get(full, 0), val)
                else:
                    extras[full] = extras.get(full, 0) + val
            if (span.name == "hkregion.maximizer_bound_check" and _under_audit(span, 1)) or (
                span.name == "hkregion.power_control_value" and _under_audit(span, 2)
            ):
                audit_calls += 1
    audit_samples = extras.get("hkregion.eigenvalue_bound_audit.samples", 0)

    traced_s = sum(walls.values())
    builds = calls.get("hkregion.Envelope2D", 0)
    derived = {
        "import.scipy_modules": SCIPY_MODULES,
        "hkregion.Envelope2D.builds": builds,
        "hkregion.queries_per_build": calls.get("hkregion.Envelope2D.value", 0) / builds if builds else 0.0,
        "hkregion.margin_escalations": calls.get("hkregion.envelope_for", 0)
        - calls.get("hkregion.power_control_envelope", 0),
        "hkregion.audit.refinements": audit_calls - audit_samples,
        **{f"cli.{sub}.wall_pct": 100.0 * w / traced_s for sub, w in walls.items()},
    }
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name in derived:
            value = derived[name]
        elif name.endswith(".calls"):
            value = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_pct"):
            value = 100.0 * self_s.get(name[: -len(".self_pct")], 0.0) / traced_s
        else:
            value = extras.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    # the traced pass is the time spent in cli.main, without the analysis
    print(json.dumps({"metrics": metrics, "pass_s": traced_s, "reports": reports}))


if __name__ == "__main__":
    main()
