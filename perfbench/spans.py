"""In-memory spans around calls into iontrapsim's public functions.

The benchmark never edits the package: `install` rebinds each listed
function, wherever the package has bound it (its own module, `cli`, the
package namespace), to a wrapper that records a span while tracing is
enabled.  A listed function the package no longer has is skipped, so it
yields no span instead of an error.

Span names are `<layer>.<function>`, where the layer is the module name.
The optimizer wrappers also time the per-iteration callback, which is how
sweep times are seen without touching the optimizer's private sweeps.  An
untraced run installs only the optimizer wrappers, for the sweep times.
"""

import inspect
import os
import sys
import time

# (module, function) pairs wrapped in a traced run.  Functions not listed
# (encoding, mean positions, grids, packets) count as their caller's self
# time, which for the CLI stages is `cli.self_s`.
WRAPPED = [
    ("trap", "solve_trap"),
    ("gridsim", "elementary_gate"),
    ("oct", "optimize_gate"),
    ("oct", "optimize_gate_dissipative"),
    ("oct", "optimize_state_prep"),
    ("propagator", "propagate_tdse"),
    ("propagator", "propagate_lindblad"),
    ("propagator", "evolution_operator"),
    ("analysis", "fidelity_trace"),
    ("analysis", "spectrum"),
    ("analysis", "bandpass_filter"),
]
# every public save_*/load_* function of the serialization module is wrapped
SERIALIZATION_PREFIXES = ("save_", "load_")


class Tracer:
    """Spans kept in memory: id, parent id, name, start, end, attributes."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.enabled = False

    def open(self, name, **attrs):
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def reset(self):
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.spans = []

    def self_times(self):
        """Span id -> duration minus the time its direct children cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


def _file_sizes(values):
    """Bytes and count of existing files among string arguments/results."""
    total = files = 0
    for v in values:
        if isinstance(v, dict):
            b, f = _file_sizes(v.values())
            total, files = total + b, files + f
        elif isinstance(v, str) and os.path.isfile(v):
            total += os.path.getsize(v)
            files += 1
    return total, files


def _wrap(tracer, name, func):
    sig = inspect.signature(func)
    times_callback = "callback" in sig.parameters
    writes = name.startswith("serialization.save_")

    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return func(*args, **kwargs)
        attrs = {}
        if times_callback:
            bound = sig.bind(*args, **kwargs)
            config = bound.arguments.get("config")
            attrs["steps"] = getattr(config, "n_steps", None)
            attrs["callbacks"] = marks = []
            inner = bound.arguments.get("callback")

            def timed_callback(*cb_args, **cb_kwargs):
                span = tracer.open("cli.callback")
                marks.append(span["start"])
                try:
                    if inner is not None:
                        return inner(*cb_args, **cb_kwargs)
                    return None
                finally:
                    tracer.close(span)
                    marks.append(span["end"])

            bound.arguments["callback"] = timed_callback
            args, kwargs = bound.args, bound.kwargs
        span = tracer.open(name, **attrs)
        try:
            result = func(*args, **kwargs)
        finally:
            tracer.close(span)
        if writes:
            span["attrs"]["bytes"], span["attrs"]["files"] = _file_sizes(
                list(args) + list(kwargs.values()) + [result]
            )
        return result

    return wrapper


def _targets(package_name, only=None):
    for module_name, func_name in WRAPPED:
        if only is not None and f"{module_name}.{func_name}" not in only:
            continue
        module = sys.modules.get(f"{package_name}.{module_name}")
        func = getattr(module, func_name, None) if module else None
        if callable(func):
            yield f"{module_name}.{func_name}", func
    ser = sys.modules.get(f"{package_name}.serialization") if only is None else None
    for func_name in sorted(vars(ser) if ser else ()):
        func = getattr(ser, func_name)
        if func_name.startswith(SERIALIZATION_PREFIXES) and inspect.isfunction(func):
            yield f"serialization.{func_name}", func


def install(tracer, package_name="iontrapsim", only=None):
    """Rebind every target (or those named in `only`) in every loaded
    package module; returns an undo list for `uninstall`."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package_name or n.startswith(package_name + "."))]
    undo = []
    for name, func in _targets(package_name, only):
        wrapper = _wrap(tracer, name, func)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapper)
                    undo.append((module, attr, func))
    return undo


def uninstall(undo):
    for module, attr, func in reversed(undo):
        setattr(module, attr, func)


def callback_intervals(span):
    """(first, later) gaps before each callback of an optimizer span: `first`
    runs from the call to the first callback, each later one from the end of
    the previous callback, i.e. one sweep plus its evaluation."""
    marks = span["attrs"].get("callbacks") or []
    starts, ends = marks[0::2], marks[1::2]
    if not starts:
        return None, []
    return starts[0] - span["start"], [s - e for s, e in zip(starts[1:], ends)]


def span_cost_s(repeats=5000):
    """Measured cost of one span: a wrapped no-op call minus a plain one."""
    tracer = Tracer()
    tracer.enabled = True

    def noop():
        return None

    wrapped = _wrap(tracer, "bench.noop", noop)
    t0 = time.perf_counter()
    for _ in range(repeats):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(repeats):
        wrapped()
    traced = time.perf_counter() - t0
    return max(0.0, (traced - plain) / repeats)
