"""Spans and counters recorded around fraclap's layer boundaries.

The tracer never edits fraclap's source: `instrument` replaces module
attributes and class methods inside one worker process, so every call the
program makes through those names passes a wrapper that records a span
(name, kind, start, end, parent span, thread) and the layer's counts.
Spans stay in memory; the worker hands them back when its operations end.

Two kinds of span:

- layer spans time one layer. Their self time is what the per-layer
  `*.self_s` metrics report: the part of the timeline during which the span
  is the innermost layer span of its thread. Where the innermost layer spans
  of several threads overlap, they share that interval equally, so the self
  times of a pass never sum to more than its wall time.
- scope spans (`cli.*`, `acceptance.*`) report inclusive wall time.

A call into a layer from inside the same layer folds into the outer span,
so `calls` counts entries into a layer, not its internal recursion.
"""

import collections
import contextlib
import dataclasses
import functools
import sys
import threading
import time

LAYER = "layer"
SCOPE = "scope"

# caller module -> layer name for the Gauss-Legendre rules, resolved per call
_GL_LAYERS = {
    "fraclap.pohozaev": "pohozaev.gl",
    "fraclap.counterexample": "counterexample.gl",
    "fraclap.halfharmonic": "halfharmonic.gl",
}


@dataclasses.dataclass
class Span:
    name: str
    kind: str
    start: float
    parent: int
    thread: int
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._paused = False

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key, value=1):
        with self._lock:
            self.counts[key] += value

    def in_layer(self, name):
        return any(self.spans[i].name == name for i in self._stack())

    @contextlib.contextmanager
    def paused(self):
        """Run reference computations without recording them."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def call(self, name, kind, fn, args, kwargs, after=None):
        """Run fn(*args, **kwargs) inside a span named `name`.

        `after(result, args, kwargs)` may return extra counts and a
        replacement result (used to wrap returned callables).
        """
        stack = self._stack()
        if self._paused or (stack and self.spans[stack[-1]].name == name):
            return fn(*args, **kwargs)
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, kind, time.perf_counter(),
                                   stack[-1] if stack else -1,
                                   threading.get_ident()))
            if kind == LAYER:
                self.counts[name + ".calls"] += 1
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()
        if after is not None:
            extra, result = after(result, args, kwargs)
            for key, value in extra.items():
                self.add(name + "." + key, value)
        return result

    def wrap(self, name, fn, kind=LAYER, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, kind, fn, args, kwargs, after)
        return traced

    def summary(self):
        """Counts, layer self times and scope wall times of what was recorded."""
        out = dict(self.counts)
        for name, value in self_times(self.spans).items():
            out[name + ".self_s"] = value
        for span in self.spans:
            if span.kind == SCOPE:
                key = span.name + ".wall_s"
                out[key] = out.get(key, 0.0) + (span.end - span.start)
        return out


def self_times(spans):
    """Self time per layer name, sharing overlaps between threads equally."""
    events = []
    for i, span in enumerate(spans):
        if span.kind == LAYER:
            events.append((span.start, 1, i))
            events.append((span.end, 0, i))
    events.sort()
    stacks = collections.defaultdict(list)
    totals = collections.defaultdict(float)
    last = None
    for t, is_start, i in events:
        if last is not None and t > last:
            tops = [stack[-1] for stack in stacks.values() if stack]
            for j in tops:
                totals[spans[j].name] += (t - last) / len(tops)
        last = t
        stack = stacks[spans[i].thread]
        if is_start:
            stack.append(i)
        else:
            stack.remove(i)
    return dict(totals)


# ---------------------------------------------------------------------------
# the layer boundaries of fraclap


def instrument(tracer):
    """Wrap fraclap's layer boundaries in this process. Returns the tracer."""
    import numpy.polynomial.legendre as legendre
    from fraclap import (acceptance, cli, commutators, counterexample, fracops,
                         geometry, halfharmonic, norms, pohozaev, stereo)

    def patch(module, attr, name, kind=LAYER, after=None):
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), kind, after))

    # spectral multipliers: points and the bytes of the arrays each call
    # reads and writes (input samples, the input spectrum when the call
    # computes it, output samples), computed from array sizes
    def multiplier(fn):
        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            had_spectrum = getattr(f, "_spectrum", None) is not None

            def after(result, a, k):
                made = getattr(f, "_spectrum", None)
                spectrum_bytes = 0 if had_spectrum or made is None else made.nbytes
                return {"points": f.grid.n_points * f.m,
                        "bytes_computed": f.samples.nbytes + spectrum_bytes
                        + result.samples.nbytes}, result
            return tracer.call("fracops.multiplier", LAYER, fn, (f,) + args, kwargs, after)
        return traced

    for attr in ("frac_laplacian_circle", "frac_laplacian_line_spectral",
                 "riesz_transform", "inverse_quarter_laplacian"):
        setattr(fracops, attr, multiplier(getattr(fracops, attr)))

    patch(fracops, "frac_laplacian_line_quadrature", "fracops.quadrature")
    patch(fracops, "_tail_far_contribution", "fracops.tail_quad")
    quad = fracops.quad

    def counted_quad(*args, **kwargs):
        tracer.add("fracops.tail_quad.quad_calls")
        return quad(*args, **kwargs)
    fracops.quad = counted_quad

    def interpolant_built(evaluate, args, kwargs):
        def traced_eval(pts):
            return tracer.call("fracops.interp_eval", LAYER, evaluate, (pts,), {},
                               lambda r, a, k: ({"queries": len(r)}, r))
        return {"points": args[0].grid.n_points}, traced_eval
    patch(fracops, "line_interpolant", "fracops.interp_build", after=interpolant_built)

    Field = geometry.Field
    Field.spectrum = tracer.wrap("geometry.spectrum", Field.spectrum)
    field_init = Field.__init__

    @functools.wraps(field_init)
    def counted_init(self, *args, **kwargs):
        tracer.add("geometry.field.calls")
        field_init(self, *args, **kwargs)
    Field.__init__ = counted_init

    patch(norms, "sobolev_half_seminorm", "norms.seminorm")
    for attr in ("lorentz_21", "lorentz_2inf", "lorentz_21_samples",
                 "lorentz_2inf_samples"):
        patch(norms, attr, "norms.lorentz")
    counterexample.lorentz_21_samples = norms.lorentz_21_samples

    def flow_done(states, args, kwargs):
        return {"iterations": states[-1].iteration}, states
    patch(halfharmonic, "gradient_flow", "halfharmonic.flow", after=flow_done)
    energy = halfharmonic.energy

    def counted_energy(u):
        if tracer.in_layer("halfharmonic.flow"):
            tracer.add("halfharmonic.flow.energy_evals")
        return energy(u)
    halfharmonic.energy = counted_energy

    def quarter_built(apply, args, kwargs):
        def traced_apply(xs):
            return tracer.call("halfharmonic.bubble_quad", LAYER, apply, (xs,), {},
                               lambda r, a, k: ({"points": len(r)}, r))
        return {}, traced_apply
    patch(halfharmonic, "_bubble_quarter_lap", "halfharmonic.bubble_quad",
          after=quarter_built)
    patch(halfharmonic, "_circle_evaluator", "halfharmonic.circle_eval")
    patch(halfharmonic, "_locate_concentration", "halfharmonic.locate")

    def mobius_levels(comp, args, kwargs):
        levels = (comp.grid.n_points // args[0].grid.n_points).bit_length()
        return {"points": levels}, comp
    patch(halfharmonic, "mobius_compose", "halfharmonic.mobius", after=mobius_levels)

    # one wrapper for every module's Gauss-Legendre rules, attributed to the
    # module that asks for the rule
    leggauss = legendre.leggauss

    @functools.wraps(leggauss)
    def traced_leggauss(deg):
        layer = _GL_LAYERS.get(sys._getframe(1).f_globals.get("__name__"))
        if layer is None:
            return leggauss(deg)
        return tracer.call(layer, LAYER, leggauss, (deg,), {},
                           lambda r, a, k: ({"nodes": int(deg)}, r))
    legendre.leggauss = traced_leggauss
    pohozaev.leggauss = traced_leggauss
    counterexample.leggauss = traced_leggauss

    groups = [
        (pohozaev, "pohozaev.residual", ("residual_line", "residual_circle",
                                         "residual_circle_t")),
        (pohozaev, "pohozaev.m_apply", ("m_plus", "m_minus", "m_adjoint_check",
                                        "m_plus_mellin_symbol")),
        (pohozaev, "pohozaev.plane", ("residual_plane", "plane_field_from_function")),
        (pohozaev, "pohozaev.even_matrix", ("m_plus_even_matrix",)),
        (stereo, "stereo.pushforward", ("pushforward", "pullback")),
        (stereo, "stereo.transfer", ("transfer_identity_check",)),
        (commutators, "commutators.ops", ("multiply", "op_T", "op_S", "op_F",
                                          "op_Lambda")),
        (commutators, "commutators.reference", ("convolution_reference",)),
        (commutators, "commutators.report", ("compensation_report",)),
        (counterexample, "counterexample.neck_report", ("neck_report",)),
        (counterexample, "counterexample.potentials", ("build_potentials",)),
    ]
    for module, name, attrs in groups:
        for attr in attrs:
            patch(module, attr, name)

    acceptance.CHECKS[:] = [
        (check_id, tracer.wrap("acceptance." + check_id, fn, SCOPE))
        for check_id, fn in acceptance.CHECKS]
    for command, spec in list(cli._COMMANDS.items()):
        cli._COMMANDS[command] = dataclasses.replace(
            spec, runner=tracer.wrap("cli." + command, spec.runner, SCOPE))
    patch(cli, "main", "cli.main", SCOPE)
    return tracer
