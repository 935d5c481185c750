"""Outside-in tracer for the `cqlab` modules.

The tracer wraps public functions of each package module from outside the
package; nothing in `cqlab` changes.  Each wrapper is installed in every
`cqlab` module namespace that holds the original object (for example
`trace_forms` in both `cqlab.wick` and `cqlab.correspondence`), and
`eval_batch` is wrapped on every `Functional` subclass found by a subclass
walk, so the numbers survive refactors that move or merge names.  A public
name that no longer exists is an error, never a silent 0 s.

Spans (name, start, end, parent) are kept in memory.  A layer's `busy_s`
and `calls` count only outermost spans of that name (a `ScaledFunctional`
calling its base's `eval_batch` is one call), its `self_s` is each span's
duration minus its direct children, summed.  Counters whose name ends in
`_computed` are derived from array shapes, not measured, and are summed
over innermost spans of each name, where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import threading
import time
from dataclasses import dataclass, field


class TracerError(RuntimeError):
    """A traced public name is missing from the package."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counters: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# counters read from arguments and results


def _draw_counts(args, kwargs, result):
    return {"rows": result.count, "chunks": result.chunk_count,
            "bytes_computed": result.samples.nbytes}


def _eval_batch_counts(args, kwargs, result):
    f, x = args[0], args[1]
    op = getattr(f, "operator", None)
    # quadratic-form kernel x_p . A x_p: 2 d^2 flops per row
    flops = 2 * x.shape[0] * op.shape[0] * op.shape[1] if getattr(op, "ndim", 0) == 2 else 0
    return {"rows": x.shape[0], "flops_computed": flops}


def _diag_variant(args):
    return args[0].kind


def _eval_diag_counts(args, kwargs, result):
    form, x = args[0], args[1]
    counts = {"rows": x.shape[0]}
    if form.kind == "dense":
        # contraction of an order-k tensor with k copies of each row
        d = form.dim
        counts["flops_computed"] = 2 * x.shape[0] * sum(d ** j for j in range(1, form.order + 1))
    return counts


def _symmetrize_counts(args, kwargs, result):
    t = args[0]
    if result is t:
        return {"bytes_computed": 0}
    # one accumulated copy per axis permutation
    return {"bytes_computed": t.nbytes * math.factorial(t.ndim)}


def _dense_counts(args, kwargs, result):
    form = args[0]
    stored = form.tensor if form.kind == "dense" else None
    return {"bytes_computed": 0 if result is stored else result.nbytes}


def _trace_forms_counts(args, kwargs, result):
    b, a = args[0], args[1]
    if b.is_zero or a.is_zero:
        return {}
    if b.order == 2:
        branch = "order2"
    elif b.kind == "pairing" and a.kind == "pairing":
        branch = "pairing_pairing"
    elif "pairing" in (b.kind, a.kind):
        branch = "pairing_dense"
    else:
        branch = "dense_dense"
    return {branch: 1}


# (layer, module, qualified name, counters, name variant)
TARGETS = (
    ("hilbert.spectral_decompose", "hilbert", "spectral_decompose", None, None),
    ("gaussian.draw_chunked", "gaussian", "draw_chunked", _draw_counts, None),
    ("gaussian.GaussianState.sample", "gaussian", "GaussianState.sample", None, None),
    ("gaussian.exact_span_coefficients", "gaussian", "exact_span_coefficients", None, None),
    ("gaussian.chebyshev_tail", "gaussian", "chebyshev_tail", None, None),
    ("functionals.symmetrize_tensor", "functionals", "symmetrize_tensor", _symmetrize_counts, None),
    ("functionals.SymmetricForm.dense", "functionals", "SymmetricForm.dense", _dense_counts, None),
    ("functionals.eval_diag_batch", "functionals", "SymmetricForm.eval_diag_batch",
     _eval_diag_counts, _diag_variant),
    ("functionals.eval_batch", "functionals", "Functional.eval_batch", _eval_batch_counts, None),
    ("wick.trace_forms", "wick", "trace_forms", _trace_forms_counts, None),
    ("wick.gaussian_integral_multilinear", "wick", "gaussian_integral_multilinear", None, None),
    ("wick.moment_mc_check", "wick", "moment_mc_check", None, None),
    ("correspondence.generalized_average", "correspondence", "generalized_average", None, None),
    ("correspondence.t2n_variable", "correspondence", "t2n_variable", None, None),
    ("correspondence.t_state", "correspondence", "t_state", None, None),
    ("experiments.mc_average", "experiments", "mc_average", None, None),
    ("experiments.closed_form_average", "experiments", "closed_form_average", None, None),
    ("experiments.analytic_average", "experiments", "analytic_average", None, None),
    ("experiments.alpha_sweep", "experiments", "alpha_sweep", None, None),
    ("experiments.higher_order_check", "experiments", "higher_order_check", None, None),
    ("experiments.moments_check", "experiments", "moments_check", None, None),
    ("experiments.pure_state_experiment", "experiments", "pure_state_experiment", None, None),
    ("experiments.nongaussian_experiment", "experiments", "nongaussian_experiment", None, None),
    ("experiments.finite_qm_demo", "experiments", "finite_qm_demo", None, None),
    ("experiments.chebyshev_experiment", "experiments", "chebyshev_experiment", None, None),
    ("cli.load_config", "cli", "load_config", None, None),
    ("cli.write_csv", "cli", "write_csv", None, None),
    ("cli.emit_plot_data", "cli", "emit_plot_data", None, None),
    ("cli.run", "cli", "run", None, None),
)

# The per-layer metrics the traced run reports, with units.  Quantities
# are calls, busy_s and self_s per layer, or a counter recorded on its spans.
PER_LAYER = (
    ("gaussian.draw_chunked.calls", "count"),
    ("gaussian.draw_chunked.busy_s", "s"),
    ("gaussian.draw_chunked.rows", "count"),
    ("gaussian.draw_chunked.chunks", "count"),
    ("gaussian.draw_chunked.bytes_computed", "B"),
    ("gaussian.GaussianState.sample.self_s", "s"),
    ("gaussian.exact_span_coefficients.busy_s", "s"),
    ("gaussian.chebyshev_tail.busy_s", "s"),
    ("functionals.eval_batch.calls", "count"),
    ("functionals.eval_batch.busy_s", "s"),
    ("functionals.eval_batch.rows", "count"),
    ("functionals.eval_batch.flops_computed", "flop"),
    ("functionals.eval_diag_batch.dense.calls", "count"),
    ("functionals.eval_diag_batch.dense.busy_s", "s"),
    ("functionals.eval_diag_batch.dense.rows", "count"),
    ("functionals.eval_diag_batch.dense.flops_computed", "flop"),
    ("functionals.eval_diag_batch.pairing.calls", "count"),
    ("functionals.eval_diag_batch.pairing.busy_s", "s"),
    ("functionals.eval_diag_batch.pairing.rows", "count"),
    ("functionals.symmetrize_tensor.calls", "count"),
    ("functionals.symmetrize_tensor.busy_s", "s"),
    ("functionals.symmetrize_tensor.bytes_computed", "B"),
    ("functionals.SymmetricForm.dense.calls", "count"),
    ("functionals.SymmetricForm.dense.busy_s", "s"),
    ("functionals.SymmetricForm.dense.bytes_computed", "B"),
    ("wick.trace_forms.calls", "count"),
    ("wick.trace_forms.busy_s", "s"),
    ("wick.trace_forms.self_s", "s"),
    ("wick.trace_forms.order2", "count"),
    ("wick.trace_forms.pairing_pairing", "count"),
    ("wick.trace_forms.pairing_dense", "count"),
    ("wick.trace_forms.dense_dense", "count"),
    ("wick.gaussian_integral_multilinear.busy_s", "s"),
    ("wick.moment_mc_check.self_s", "s"),
    ("correspondence.generalized_average.busy_s", "s"),
    ("correspondence.t2n_variable.busy_s", "s"),
    ("correspondence.t_state.busy_s", "s"),
    ("experiments.mc_average.calls", "count"),
    ("experiments.mc_average.busy_s", "s"),
    ("experiments.mc_average.self_s", "s"),
    ("experiments.closed_form_average.busy_s", "s"),
    ("experiments.analytic_average.busy_s", "s"),
    ("experiments.alpha_sweep.self_s", "s"),
    ("experiments.higher_order_check.self_s", "s"),
    ("experiments.moments_check.self_s", "s"),
    ("experiments.pure_state_experiment.self_s", "s"),
    ("experiments.nongaussian_experiment.self_s", "s"),
    ("experiments.finite_qm_demo.self_s", "s"),
    ("experiments.chebyshev_experiment.self_s", "s"),
    ("hilbert.spectral_decompose.calls", "count"),
    ("hilbert.spectral_decompose.busy_s", "s"),
    ("cli.load_config.busy_s", "s"),
    ("cli.write_csv.busy_s", "s"),
    ("cli.emit_plot_data.busy_s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.share_sample_evaluate", "ratio"),
    ("trace.share_contract_dense_eval", "ratio"),
)

# Layers each workload is predicted to run; a traced pass in which one of
# them records no call means a wrapper was bypassed.
PREDICTED_LAYERS = {
    "mc_sweep": ("gaussian.draw_chunked", "functionals.eval_batch", "experiments.mc_average",
                 "experiments.closed_form_average", "experiments.alpha_sweep",
                 "hilbert.spectral_decompose", "cli.write_csv", "cli.emit_plot_data",
                 "cli.run"),
    "exact_forms": ("wick.trace_forms", "functionals.SymmetricForm.dense",
                    "functionals.eval_diag_batch.dense", "functionals.eval_diag_batch.pairing",
                    "functionals.eval_batch", "functionals.symmetrize_tensor",
                    "wick.gaussian_integral_multilinear", "wick.moment_mc_check",
                    "correspondence.generalized_average", "correspondence.t2n_variable",
                    "correspondence.t_state", "experiments.analytic_average",
                    "experiments.mc_average", "experiments.higher_order_check",
                    "experiments.moments_check", "gaussian.draw_chunked", "cli.run"),
    "shipped_configs": ("gaussian.draw_chunked", "gaussian.exact_span_coefficients",
                        "gaussian.chebyshev_tail", "functionals.eval_batch",
                        "wick.trace_forms", "experiments.mc_average",
                        "experiments.alpha_sweep", "experiments.higher_order_check",
                        "experiments.moments_check", "experiments.pure_state_experiment",
                        "experiments.nongaussian_experiment", "experiments.finite_qm_demo",
                        "experiments.chebyshev_experiment", "cli.load_config",
                        "cli.write_csv", "cli.emit_plot_data", "cli.run"),
}


def _resolve(module: str, qualname: str):
    """(owner, attribute, original) for one traced name, or None if missing."""
    try:
        owner = importlib.import_module(f"cqlab.{module}")
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


def _subclasses(cls: type) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(c for c in _subclasses(sub) if c not in out)
    return out


def _plan() -> list[tuple]:
    """(layer, owner, attribute, original, counters, variant) for every place a
    wrapper goes; a method is wrapped on its class and on every subclass that
    overrides it.  Raises naming each target that is missing."""
    plan, missing = [], []
    for layer, module, qualname, counts, variant in TARGETS:
        found = _resolve(module, qualname)
        if found is None:
            missing.append(f"cqlab.{module}.{qualname}")
            continue
        owner, attr, original = found
        if isinstance(owner, type):
            plan.extend((layer, cls, attr, cls.__dict__[attr], counts, variant)
                        for cls in _subclasses(owner) if attr in cls.__dict__)
        else:
            plan.append((layer, owner, attr, original, counts, variant))
    if missing:
        raise TracerError("traced names missing from cqlab: " + ", ".join(missing))
    return plan


class Tracer:
    """Records spans around the traced `cqlab` functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        self._plan = _plan()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, fn, counts, variant):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = f"{layer}.{variant(args)}" if variant else layer
            stack = tracer._stack()
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if counts is not None:
                span.counters.update(counts(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        if self._installed:
            raise TracerError("tracer is already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "cqlab" or n.startswith("cqlab."))]
        for layer, owner, attr, original, counts, variant in self._plan:
            wrapper = self._wrap(layer, original, counts, variant)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._installed.append((owner, attr, original))
                continue
            for module in namespaces:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def count(self, name: str, value: float) -> None:
        """Add to a counter recorded outside any span (e.g. bytes written)."""
        self.counters[name] = self.counters.get(name, 0) + value

    def layer_totals(self) -> dict[str, float]:
        """calls, busy_s, self_s and span counters per layer, summed over spans."""
        children = [0.0] * len(self.spans)
        outermost = [True] * len(self.spans)
        innermost = [True] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span.parent is not None:
                children[span.parent] += span.end - span.start
            ancestor = span.parent
            while ancestor is not None:
                if self.spans[ancestor].name == span.name:
                    outermost[i] = False
                    innermost[ancestor] = False
                ancestor = self.spans[ancestor].parent
        totals: dict[str, float] = dict(self.counters)

        def add(key, value):
            totals[key] = totals.get(key, 0) + value

        for i, span in enumerate(self.spans):
            duration = span.end - span.start
            add(f"{span.name}.self_s", duration - children[i])
            if outermost[i]:
                add(f"{span.name}.calls", 1)
                add(f"{span.name}.busy_s", duration)
            for key, value in span.counters.items():
                if innermost[i] if key.endswith("_computed") else outermost[i]:
                    add(f"{span.name}.{key}", value)
        return totals

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 **({"counters": s.counters} if s.counters else {})} for s in self.spans]


def silent_layers(workload: str, totals: dict[str, float]) -> list[str]:
    """Layers predicted for `workload` that recorded no call."""
    return [layer for layer in PREDICTED_LAYERS[workload] if not totals.get(f"{layer}.calls")]
