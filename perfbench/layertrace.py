"""Layer spans recorded from outside owalk, for the traced benchmark run.

:func:`install` wraps the public functions (names without a leading underscore) of
owalk's layer modules, plus the ``SwitchingAutomorphism.order`` property,
and rebinds every name in every owalk module that refers to a wrapped
function, so calls through ``from .x import f`` bindings are seen too.
Nothing is installed in an untraced run.

A span is ``[name, start, end, parent, proc, counters]``: ``parent`` is
the index of the enclosing span in the same process (-1 at top level),
``proc`` identifies the process (one CLI invocation, or the survey
session).  Spans stay in memory and are written out at the end.  Span
names are ``<module>.<function>`` (``autos.order`` for the property).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("graph", "spectral", "arithmetic", "cospectral", "periodicity", "transfer", "autos", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.proc = 0  # id of the process the spans are recorded in
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Wrap ``fn`` in a span; ``count(counters, bound_args, result)`` adds counters."""
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.proc, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(span[5], bound.arguments, result)
            return result

        return traced


def _count_decompose(counters, args, sd):
    counters["projector_bytes"] = sum(e.nbytes for e in sd.idempotents)


def _count_scan(counters, args, certs):
    counters["amplitude_evals"] = args["grid"] * len(args["sd"].eigenvalues)
    counters["events"] = len(certs)


def _count_found(counters, args, autos):
    counters["found"] = len(autos)


def _count_cert(counters, args, cert):
    counters["certs"] = 1


COUNTERS = {
    "spectral.decompose": _count_decompose,
    "transfer.scan_pst": _count_scan,
    "transfer.complete_char": _count_cert,
    "autos.find_switching_automorphisms": _count_found,
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of owalk's loaded layer modules."""
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules.get(f"owalk.{layer}")  # cli is not loaded by a library session
        if module is None:
            continue
        for attr, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_"):
                name = f"{layer}.{attr}"
                wrapped[fn] = tracer.wrap(name, fn, COUNTERS.get(name))
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "owalk" or mod_name.startswith("owalk."):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])
    autos = sys.modules["owalk.autos"]
    order = autos.SwitchingAutomorphism.order
    autos.SwitchingAutomorphism.order = property(tracer.wrap("autos.order", order.fget))


def merge(into: list[list], spans: list[list]) -> None:
    """Append the spans of another process, re-basing their parent indices."""
    base = len(into)
    into += [[*span[:3], span[3] + base if span[3] >= 0 else -1, *span[4:]] for span in spans]


def self_times(spans: list[list]) -> list[float]:
    """Span duration minus the durations of its direct child spans."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for name, start, end, parent, proc, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Self time (``<span>.self_s``), call count (``<span>.calls``) and summed
    counters (``<span>.<counter>``) per span name, plus the largest projector
    memory held by one process (``projector_bytes_max``)."""
    out: dict[str, float] = {}
    per_proc: dict[int, int] = {}
    for span, own in zip(spans, self_times(spans)):
        name, proc, counters = span[0], span[4], span[5]
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + own
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        for key, value in counters.items():
            out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
        if "projector_bytes" in counters:
            per_proc[proc] = per_proc.get(proc, 0) + counters["projector_bytes"]
    out["projector_bytes_max"] = max(per_proc.values(), default=0)
    return out
