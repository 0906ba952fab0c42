"""Outside-in tracer for the per-layer numbers.

The layers are smoothbench's modules. The tracer replaces each traced
function with a timing wrapper wherever a smoothbench module holds it (so
calls through `from .geometry import mirror_step` are seen too), wraps the
`value`/`derivative` callables of every loss built by the `make_*`
factories, and wraps the listed methods on their classes. `restore()` puts
every original back.

Each call is a span: its duration, and the layer of the span that called
it. Spans are aggregated in memory as they end (per group: calls, seconds,
calls by caller layer; per layer: self time), because a traced workload
makes millions of calls. A layer's self time is its spans' time minus the
time of the spans they called.

A traced name that is absent (renamed or removed by a later change) is not
an error: it is recorded, and every metric that depends on it is reported
as missing.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from collections import defaultdict

_SB = "smoothbench"

# (layer, module, attribute, group). "Class.method" wraps a method on the
# class; the group aggregates the calls. Group "losses.factory" marks the
# make_* factories, whose returned LossSpec gets wrapped callables.
POINTS = [
    ("harness", "harness.experiments", "run_experiment", "harness.run"),
    ("online", "online", "run_mirror_descent", "online.run"),
    ("online", "online", "averaged_iterate", "online.other"),
    ("online", "online", "average_regret", "online.other"),
    ("online", "online", "hindsight_average_loss", "online.other"),
    ("online", "online", "fixed_stream", "online.other"),
    ("online", "online", "iid_stream", "online.other"),
    ("online", "online", "adaptive_stream", "online.other"),
    ("online", "online", "stepsize_for", "online.other"),
    ("online", "online", "regret_bound", "online.other"),
    ("geometry", "geometry", "mirror_step", "geometry.mirror_step"),
    ("geometry", "geometry", "check_feasible", "geometry.check_feasible"),
    ("geometry", "geometry", "bregman_divergence", "geometry.bregman"),
    ("geometry", "geometry", "regularizer_value", "geometry.regularizer_value"),
    ("geometry", "geometry", "regularizer_grad", "geometry.other"),
    ("geometry", "geometry", "dual_norm", "geometry.other"),
    ("geometry", "geometry", "default_start", "geometry.other"),
    ("geometry", "geometry", "euclidean_setup", "geometry.other"),
    ("geometry", "geometry", "entropy_setup", "geometry.other"),
    ("geometry", "geometry", "ball_radius", "geometry.other"),
    ("losses", "losses", "make_squared", "losses.factory"),
    ("losses", "losses", "make_squared_unhalved", "losses.factory"),
    ("losses", "losses", "make_smooth_ramp", "losses.factory"),
    ("losses", "losses", "make_piecewise_quadlin", "losses.factory"),
    ("losses", "losses", "make_absolute", "losses.factory"),
    ("batch", "batch", "solve_regularized_erm", "batch.solve"),
    ("batch", "batch", "_objective", "batch.objective"),
    ("batch", "batch", "_gradient", "batch.gradient"),
    ("batch", "batch", "Dataset.predictions", "batch.predictions"),
    ("batch", "batch", "Dataset.grad_combination", "batch.grad_combination"),
    ("batch", "batch", "Dataset.dense_xs", "batch.other"),
    ("batch", "batch", "stability_probe", "batch.other"),
    ("batch", "batch", "lambda_for", "batch.other"),
    ("batch", "batch", "excess_risk", "batch.other"),
    ("distributions", "distributions", "hard_absolute", "distributions.construct"),
    ("distributions", "distributions", "hard_gaussian", "distributions.construct"),
    ("distributions", "distributions", "hard_quadlin", "distributions.construct"),
    ("distributions", "distributions", "separable_synthetic", "distributions.construct"),
    ("distributions", "distributions", "sparse_generator", "distributions.construct"),
    ("distributions", "distributions", "regime_generator", "distributions.construct"),
    ("distributions", "distributions", "HardDistribution.sample", "distributions.sample"),
    ("distributions", "distributions", "SeparableSynthetic.sample", "distributions.sample"),
    ("distributions", "distributions", "SparseGenerator.sample_signed", "distributions.sample"),
    ("distributions", "distributions", "SparseGenerator.sample_doubled", "distributions.sample"),
    ("distributions", "distributions", "RegimeGenerator.sample", "distributions.sample"),
    ("distributions", "distributions", "HardDistribution.true_risk", "distributions.other"),
    ("distributions", "distributions", "SeparableSynthetic.true_risk", "distributions.other"),
    ("distributions", "distributions", "SparseGenerator.true_risk", "distributions.other"),
    ("distributions", "distributions", "RegimeGenerator.true_risk", "distributions.other"),
    ("distributions", "distributions", "erm_exact", "distributions.erm_exact"),
    ("distributions", "distributions", "lower_bound_value", "distributions.other"),
    ("bounds", "bounds", "empirical_rademacher", "bounds.rademacher"),
    ("bounds", "bounds", "margin_bound", "bounds.other"),
    ("bounds", "bounds", "margin_empirical_error", "bounds.other"),
]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Install with `install()`, run the workload, then `restore()` and read
    `layer_metrics()`. One tracer serves one traced run."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.by_caller = defaultdict(int)  # (group, caller layer) -> calls
        self.self_s = defaultdict(float)  # layer -> self seconds
        self.extra = defaultdict(float)  # hook-specific sums and maxima
        self.missing = set()  # groups with an absent traced name
        self._stack = []  # one [child seconds] cell per open span, plus its layer
        self._patches = []  # (owner, attribute, original)

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        for layer, modname, attr, group in POINTS:
            try:
                module = importlib.import_module(f"{_SB}.{modname}")
            except ImportError:
                self.missing.add(group)
                continue
            if "." in attr:
                cls_name, meth = attr.split(".", 1)
                owner = getattr(module, cls_name, None)
                if owner is None or meth not in vars(owner):
                    self.missing.add(group)
                    continue
                original = vars(owner)[meth]
                self._patch(owner, meth, self._wrap(original, layer, group))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.add(group)
                continue
            wrapper = self._wrap(original, layer, group)
            modules = [m for n, m in sys.modules.items() if n == _SB or n.startswith(_SB + ".")]
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans --------------------------------------------------------------

    def _wrap(self, fn, layer, group):
        stack = self._stack
        calls, seconds, by_caller, self_s = self.calls, self.seconds, self.by_caller, self.self_s
        hook = getattr(self, "_on_" + group.replace(".", "_"), None)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            cell = [0.0, layer]
            stack.append(cell)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - start
                stack.pop()
                self_s[layer] += dt - cell[0]
                if parent is not None:
                    parent[0] += dt
                calls[group] += 1
                seconds[group] += dt
                by_caller[group, parent[1] if parent else ""] += 1
            if hook is not None:
                result = hook(args, kwargs, result, dt)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", group)
        return traced

    # -- per-group hooks (called after the span ends) -------------------------

    def _on_losses_factory(self, args, kwargs, spec, dt):
        return dataclasses.replace(
            spec,
            value=self._wrap(spec.value, "losses", "losses.value"),
            derivative=self._wrap(spec.derivative, "losses", "losses.derivative"),
        )

    def _elements(self, args, kwargs, out, dt):
        self.extra["losses.elements"] += getattr(out, "size", 1)
        return out

    _on_losses_value = _elements
    _on_losses_derivative = _elements

    def _on_online_run(self, args, kwargs, trace, dt):
        mode = _arg(args, kwargs, 2, "stream").mode.split("_")[0]
        self.extra[f"online.rounds.{mode}"] += trace.n
        self.extra[f"online.seconds.{mode}"] += dt
        nbytes = trace.iterates.nbytes + trace.xs.nbytes
        self.extra["online.trace_bytes"] = max(self.extra["online.trace_bytes"], nbytes)
        return trace

    def _on_geometry_mirror_step(self, args, kwargs, result, dt):
        geometry = _arg(args, kwargs, 0, "setup").geometry
        self.extra[f"mirror_step.calls.{geometry}"] += 1
        self.extra[f"mirror_step.seconds.{geometry}"] += dt
        return result

    def _on_batch_solve(self, args, kwargs, report, dt):
        self.extra["batch.iterations"] += report.iterations
        self.extra["batch.max_iters"] += report.termination == "max_iters"
        return report

    def _matvec(self, args, kwargs, result, dt):
        data = args[0]
        matrix = data.xs if data.xs is not None else data.basis_idx
        self.extra["batch.matvec_bytes"] += matrix.nbytes
        return result

    _on_batch_predictions = _matvec
    _on_batch_grad_combination = _matvec

    def _on_bounds_rademacher(self, args, kwargs, estimate, dt):
        n = _arg(args, kwargs, 1, "xs").shape[0]
        nbytes = estimate.draws * n * 8
        self.extra["bounds.sign_bytes"] = max(self.extra["bounds.sign_bytes"], nbytes)
        return estimate

    # -- metrics --------------------------------------------------------------

    def layer_metrics(self) -> tuple[dict, list]:
        """({name: (value, unit)}, names of metrics with a missing input)."""
        c, s, x = self.calls, self.seconds, self.extra
        iterations = x["batch.iterations"]
        rounds = sum(x[f"online.rounds.{m}"] for m in ("fixed", "iid", "adaptive"))
        table = [
            # name, unit, value, groups it depends on
            ("online.runs", "count", c["online.run"], ["online.run"]),
            ("online.rounds", "count", rounds, ["online.run"]),
            ("online.self_s", "s", self.self_s["online"], ["online.run"]),
            *[
                (f"online.us_per_round.{m}", "us",
                 1e6 * _ratio(x[f"online.seconds.{m}"], x[f"online.rounds.{m}"]), ["online.run"])
                for m in ("fixed", "iid", "adaptive")
            ],
            ("online.trace_bytes", "B", x["online.trace_bytes"], ["online.run"]),
            ("geometry.mirror_step.calls", "count", c["geometry.mirror_step"],
             ["geometry.mirror_step"]),
            *[
                (f"geometry.mirror_step.us.{g}", "us",
                 1e6 * _ratio(x[f"mirror_step.seconds.{g}"], x[f"mirror_step.calls.{g}"]),
                 ["geometry.mirror_step"])
                for g in ("euclidean", "entropy")
            ],
            ("geometry.check_feasible.calls", "count", c["geometry.check_feasible"],
             ["geometry.check_feasible"]),
            ("geometry.bregman.calls", "count", c["geometry.bregman"], ["geometry.bregman"]),
            ("geometry.regularizer_value.calls", "count", c["geometry.regularizer_value"],
             ["geometry.regularizer_value"]),
            ("geometry.self_s", "s", self.self_s["geometry"], []),
            ("losses.calls", "count", c["losses.value"] + c["losses.derivative"],
             ["losses.factory"]),
            ("losses.elements", "count", x["losses.elements"], ["losses.factory"]),
            ("losses.self_s", "s", self.self_s["losses"], ["losses.factory"]),
            ("losses.construct.calls", "count", c["losses.factory"], ["losses.factory"]),
            ("losses.construct_s", "s", s["losses.factory"], ["losses.factory"]),
            ("batch.solves", "count", c["batch.solve"], ["batch.solve"]),
            ("batch.iterations", "count", iterations, ["batch.solve"]),
            ("batch.grad_evals_per_iter", "evals/iter", _ratio(c["batch.gradient"], iterations),
             ["batch.solve", "batch.gradient"]),
            ("batch.obj_evals_per_iter", "evals/iter", _ratio(c["batch.objective"], iterations),
             ["batch.solve", "batch.objective"]),
            ("batch.max_iters_share", "share", _ratio(x["batch.max_iters"], c["batch.solve"]),
             ["batch.solve"]),
            ("batch.self_s", "s", self.self_s["batch"], []),
            ("batch.predictions.us_per_call", "us",
             1e6 * _ratio(s["batch.predictions"], c["batch.predictions"]), ["batch.predictions"]),
            ("batch.matvec_bytes", "B", x["batch.matvec_bytes"],
             ["batch.predictions", "batch.grad_combination"]),
            ("distributions.sample.calls", "count", c["distributions.sample"],
             ["distributions.sample"]),
            ("distributions.sample_s", "s", s["distributions.sample"], ["distributions.sample"]),
            ("distributions.construct.calls", "count", c["distributions.construct"],
             ["distributions.construct"]),
            ("distributions.erm_exact.us_per_call", "us",
             1e6 * _ratio(s["distributions.erm_exact"], c["distributions.erm_exact"]),
             ["distributions.erm_exact"]),
            ("distributions.self_s", "s", self.self_s["distributions"], []),
            ("bounds.rademacher_s", "s", s["bounds.rademacher"], ["bounds.rademacher"]),
            ("bounds.rademacher.sign_bytes", "B", x["bounds.sign_bytes"], ["bounds.rademacher"]),
            ("bounds.self_s", "s", self.self_s["bounds"], []),
            ("harness.self_s", "s", self.self_s["harness"], ["harness.run"]),
            ("harness.l1_iterations", "count", self.by_caller["losses.derivative", "harness"],
             ["harness.run", "losses.factory"]),
        ]
        metrics = {name: (float(value), unit) for name, unit, value, _ in table}
        missing = [name for name, _, _, needs in table if self.missing.intersection(needs)]
        return metrics, missing

    def raw(self) -> dict:
        """Every aggregate, for the results file."""
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "calls_by_caller": {f"{g}<-{p or 'top'}": n for (g, p), n in self.by_caller.items()},
            "self_s": dict(self.self_s),
            "extra": dict(self.extra),
            "missing_groups": sorted(self.missing),
        }
