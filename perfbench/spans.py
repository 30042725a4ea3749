"""In-memory span tracer that wraps latticewaves at its lookup sites.

``Tracer.install`` replaces every public function of the traced modules, and
the public methods of the classes they define, with a wrapper that records
one span per call: name, start, end, parent and optional attributes.  The
wrapper is bound wherever the original object is looked up -- the defining
module, every ``latticewaves`` module that imported it by name, and the
package namespace -- so calls made inside the library are traced without
editing it.  ``Tracer.uninstall`` puts every original back.

Spans stay in memory; ``Tracer.dump`` writes them out once the run is over.
Standard library only, so importing it adds nothing to the timed set-up.
"""

import contextlib
import functools
import inspect
import json
import sys
import time

TRACED_MODULES = ("catalog", "dispersion", "spectral", "operators", "solver",
                  "simulator")
WRAPPED = "__perfbench_original__"

# Spans are named <module>.<function or method>; these read better renamed.
RENAMED = {
    "operators.LongWaveOperators.__init__": "operators.context_build",
    "dispersion.TaylorRemainders.t1": "dispersion.taylor_t1",
    "dispersion.TaylorRemainders.t2": "dispersion.taylor_t2",
}


class Tracer:
    """Span recorder.  One instance per traced process; not thread-safe."""

    def __init__(self, hooks=None):
        # span: [name, start, end, parent index or -1, attrs or None]
        self.spans = []
        self.hooks = dict(hooks or {})
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, args, kwargs):
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        hook = self.hooks.get(name)
        if hook is not None:
            span[4] = hook(args, result)
        return result

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        setattr(traced, WRAPPED, fn)
        return traced

    def install(self, package="latticewaves"):
        """Wrap the package's traced modules; returns the bindings replaced."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        replacements = {}  # id(original function) -> wrapper
        for short in TRACED_MODULES:
            mod = sys.modules[f"{package}.{short}"]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self._wrap(f"{short}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(short, obj)
        for mod in _package_modules(package):
            for attr, obj in list(vars(mod).items()):
                wrapper = replacements.get(id(obj)) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return len(self._patched)

    def _wrap_methods(self, short, cls):
        for attr, obj in sorted(vars(cls).items()):
            qual = f"{short}.{cls.__name__}.{attr}"
            if not inspect.isfunction(obj) or (attr.startswith("_") and qual not in RENAMED):
                continue
            self._patched.append((cls, attr, obj))
            setattr(cls, attr, self._wrap(RENAMED.get(qual, f"{short}.{attr}"), obj))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- output -------------------------------------------------------------

    def dump(self, path, run_id):
        with open(path, "w") as fh:
            json.dump({"run_id": run_id,
                       "fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def _package_modules(package):
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))]


def find_wrappers(package="latticewaves"):
    """(owner, attribute) of every tracing wrapper still bound in the package."""
    found = {}
    for mod in _package_modules(package):
        owners = [mod] + [obj for obj in vars(mod).values() if inspect.isclass(obj)]
        for owner in owners:
            for attr, obj in vars(owner).items():
                if hasattr(obj, WRAPPED):
                    found[(id(owner), attr)] = (owner.__name__, attr)
    return sorted(found.values())


def self_times(spans):
    """Self time of each span: its duration minus that of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def summarize(spans):
    """Per span name: calls, total seconds, self seconds and call durations."""
    out = {}
    for span, self_s in zip(spans, self_times(spans)):
        row = out.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                       "durations": []})
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += self_s
        row["durations"].append(span[2] - span[1])
    return out


def tail_percentile(n, min_beyond=10):
    """Highest of the 99.9th, 99th, 90th and 50th percentiles that has at
    least ``min_beyond`` of ``n`` samples beyond it; 50 when none has."""
    for permille in (999, 990, 900):
        if n * (1000 - permille) >= 1000 * min_beyond:
            return permille / 10.0
    return 50.0


def percentile(values, pct):
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = -(-len(ordered) * round(10 * pct) // 1000)
    return ordered[min(max(rank, 1), len(ordered)) - 1]
