"""Span recording around polqpdf's public functions, from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
polqpdf module namespace that binds it, so calls made by bare name inside
a module (`qpdf_trace` from `plane_grid_qpdf`, `coherence_function` from
`factorization_check`) are recorded as well as calls through attributes.
Private helpers are not wrapped: their time stays in the caller's self
time.  Spans are kept in memory and written out by `write_jsonl` when the
run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from dataclasses import dataclass, field

_MODULES = (
    "polqpdf",
    "polqpdf.cli",
    "polqpdf.qpdf",
    "polqpdf.fock",
    "polqpdf.coherence",
    "polqpdf.poincare",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op_id: int
    extra: dict = field(default_factory=dict)


class Tracer:
    """Collects spans while `active`; wrappers call straight through otherwise."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, namer, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = namer(args, kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, 0.0, 0.0, parent, tracer.op_id)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.extra["raised"] = type(exc).__name__
                span.extra["typed"] = _is_typed(exc)
                raise
            else:
                span.end = time.perf_counter()
                if after is not None:
                    after(span, args, kwargs, result)
                return result
            finally:
                tracer._stack.pop()

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function of the package (idempotent per Tracer)."""
        if self._restore:
            return
        from polqpdf import cli, coherence, fock, poincare, qpdf

        def fixed(name):
            return lambda args, kwargs: name

        def module_fn(module, attr, namer=None, after=None):
            orig = getattr(module, attr)
            wrapped = self._wrap(orig, namer or fixed(f"{_layer(module)}.{attr}"), after)
            for mod_name in _MODULES:
                mod = sys.modules[mod_name]
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)

        def class_fn(cls, attr, name):
            raw = cls.__dict__[attr]
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            wrapped = self._wrap(fn, fixed(name))
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, classmethod(wrapped) if is_cm else wrapped)

        # cli
        module_fn(cli, "main", after=_after_main)
        module_fn(cli, "write_csv", after=_after_file_write(1))
        module_fn(cli, "write_svg", after=_after_file_write(1))
        module_fn(cli, "read_csv")
        # qpdf
        for attr in ("sweep_phase", "sweep_modulus"):
            module_fn(qpdf, attr, namer=_sweep_namer(getattr(qpdf, attr)),
                      after=_after_sweep)
        module_fn(qpdf, "plane_grid_qpdf", namer=_plane_namer, after=_after_points)
        for attr in ("qpdf_trace", "qpdf_trace_single", "qpdf_coherent_closed",
                     "poincare_sphere_qpdf"):
            module_fn(qpdf, attr)
        module_fn(qpdf, "normalization_check",
                  after=_after_normalization(qpdf.normalization_check))
        # fock (coherent_vector stays unwrapped: its Poisson tail check is
        # part of two_mode_coherent_density's self time)
        for attr in ("two_mode_coherent_density", "kernel", "state_components"):
            module_fn(fock, attr)
        class_fn(fock.TwoModeState, "from_density", "fock.from_density")
        class_fn(fock.TwoModeState, "from_kets", "fock.from_kets")
        # coherence
        for attr in ("factorization_check", "coherence_function",
                     "polarization_residual"):
            module_fn(coherence, attr)
        # poincare: public functions plus construction/validation of its
        # value types, which is how the other layers reach it
        for attr in poincare.__all__:
            obj = getattr(poincare, attr)
            if inspect.isfunction(obj):
                module_fn(poincare, attr)
            elif inspect.isclass(obj):
                for key, raw in list(obj.__dict__.items()):
                    if key == "__post_init__" or isinstance(raw, classmethod):
                        class_fn(obj, key, f"poincare.{attr}.{key}")

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": sp.name, "start": sp.start, "end": sp.end,
                    "parent": sp.parent, "op": sp.op_id, **sp.extra,
                }) + "\n")


# ---------------------------------------------------------------------------
# naming and per-span counters
# ---------------------------------------------------------------------------

def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _is_typed(exc: BaseException) -> bool:
    from polqpdf.errors import TruncationError, ValidationError

    return isinstance(exc, (TruncationError, ValidationError))


def _sweep_namer(fn):
    from polqpdf.qpdf import Method

    sig = inspect.signature(fn)

    def namer(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        method = bound.arguments.get("method", Method.CLOSED_FORM)
        return "qpdf.sweep_trace" if method is Method.TRACE_ORACLE else "qpdf.sweep_closed"

    return namer


def _plane_namer(args, kwargs):
    state = args[0] if args else kwargs["state"]
    return "qpdf.plane_kets" if state.components is not None else "qpdf.plane_density"


def _after_main(span, args, kwargs, result):
    span.extra["rc"] = result


def _after_file_write(path_index):
    def after(span, args, kwargs, result):
        path = args[path_index] if len(args) > path_index else kwargs["path"]
        span.extra["bytes"] = os.path.getsize(path)

    return after


def _after_points(span, args, kwargs, result):
    span.extra["points"] = int(result.values.size)


def _after_sweep(span, args, kwargs, result):
    n = int(result.values.size)
    span.extra["points"] = n
    if result.meta.dim_used is not None:
        span.extra["dim2_points"] = n * result.meta.dim_used ** 2


def _after_normalization(fn):
    default = inspect.signature(fn).parameters["quadrature"].default

    def after(span, args, kwargs, result):
        quad = args[2] if len(args) > 2 else kwargs.get("quadrature", default)
        span.extra["nodes"] = quad.nodes_per_axis ** 2

    return after


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    out = [sp.end - sp.start for sp in spans]
    for sp in spans:
        if sp.parent >= 0:
            out[sp.parent] -= sp.end - sp.start
    return out


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-pass counts and self times for the names the benchmark reports."""
    selfs = self_times(spans)
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    for sp, st in zip(spans, selfs):
        layer = sp.name.split(".", 1)[0]
        parent_layer = spans[sp.parent].name.split(".", 1)[0] if sp.parent >= 0 else None
        if layer == "poincare":
            add("poincare.self_s", st)
            if parent_layer != "poincare":
                add("poincare.calls", 1)
        else:
            add(f"{sp.name}.calls", 1)
            add(f"{sp.name}.self_s", st)
        for key in ("points", "bytes", "nodes", "dim2_points"):
            if key in sp.extra:
                add(f"{sp.name}.{key}", sp.extra[key])
        if sp.name == "cli.main" and (sp.extra.get("rc") or "raised" in sp.extra):
            add("cli.exit_nonzero", 1)
        if sp.extra.get("typed") and parent_layer != layer:
            add(f"{layer}.raised", 1)
    return {k: v / passes for k, v in m.items()}
