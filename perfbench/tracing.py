"""In-memory span tracer for the skpower layers.

The tracer wraps public skpower functions at the place their callers look
them up (a module attribute or a class attribute), so no program file
changes.  Each wrapped call records a span: name, layer, start, end and
parent.  A layer's self time is the part of its spans not covered by child
spans; nested spans of the same layer therefore add up to the layer's own
work exactly once.

Spans are kept in memory for the whole traced phase and reduced to
per-call summaries when the phase ends.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("sketching", "linalg", "power", "diagnostics", "data_io", "bench", "cli")

# (module, attribute path, span name).  The module is the one the caller
# reads the name from: ``power.orthonormalize`` is the binding that
# ``range_finder_sketched`` calls, ``bench.orthonormalize`` the one the
# benchmark harness calls.  The layer is the span name's prefix.
PATCHES = (
    ("skpower.sketching", "SketchOperator.apply_right", "sketching.apply_right"),
    ("skpower.sketching", "SketchOperator.apply_left_transpose", "sketching.apply_left_transpose"),
    ("skpower.sketching", "SketchOperator.densify", "sketching.densify"),
    ("skpower.power", "make_sketch", "sketching.make_sketch"),
    ("skpower.bench", "make_sketch", "sketching.make_sketch"),
    ("skpower.linalg", "as_matrix", "linalg.as_matrix"),
    ("skpower.sketching", "as_matrix", "linalg.as_matrix"),
    ("skpower.power", "as_matrix", "linalg.as_matrix"),
    ("skpower.diagnostics", "as_matrix", "linalg.as_matrix"),
    ("skpower.data_io", "as_matrix", "linalg.as_matrix"),
    ("skpower.power", "orthonormalize", "linalg.orthonormalize"),
    ("skpower.bench", "orthonormalize", "linalg.orthonormalize"),
    ("skpower.power", "pinv", "linalg.pinv"),
    ("skpower.bench", "pinv", "linalg.pinv"),
    ("skpower.power", "thin_svd", "linalg.thin_svd"),
    ("skpower.linalg", "thin_svd", "linalg.thin_svd"),
    ("skpower.diagnostics", "frobenius_norm", "linalg.frobenius_norm"),
    ("skpower.power", "range_finder_sketched", "power.range_finder_sketched"),
    ("skpower.power", "randsvd", "power.randsvd"),
    ("skpower.power", "lowrank_factorize", "power.lowrank_factorize"),
    ("skpower.power", "power_iterate", "power.power_iterate"),
    ("skpower.power", "_check_psd", "power.check_psd"),
    ("skpower.diagnostics", "estimate_spectral_norm", "diagnostics.estimate_spectral_norm"),
    ("skpower.bench", "estimated_projection_residuals", "diagnostics.residual"),
    ("skpower.bench", "estimated_approximation_residuals", "diagnostics.residual"),
    ("skpower.diagnostics", "SpectralProfile.from_matrix", "diagnostics.profile"),
    ("skpower.data_io", "read_binary", "data_io.read_binary"),
    ("skpower.data_io", "write_binary", "data_io.write_binary"),
    ("skpower.data_io", "gen_polydecay", "data_io.gen"),
    ("skpower.data_io", "_haar_columns", "data_io.gen"),
    ("skpower.data_io", "_format_record", "data_io.format_record"),
    ("skpower.bench", "run_benchmark", "bench.run_benchmark"),
    ("skpower.bench", "config_from_mapping", "bench.config"),
    ("skpower.cli", "main", "cli.main"),
)


def _apply_bytes(args, result) -> float:
    # computed, not measured: operand read once plus result written once
    return 8.0 * (args[1].size + result.size)


def _ortho_cols(args, result) -> tuple[int, int]:
    return args[0].shape[1], result.shape[1]


def _pair_count(args, result) -> int:
    return int(args[2])


# extra per-span facts, computed from the arguments and the result
INFO = {
    "sketching.apply_right": _apply_bytes,
    "sketching.apply_left_transpose": _apply_bytes,
    "linalg.orthonormalize": _ortho_cols,
    "power.power_iterate": _pair_count,
}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "child_time", "info")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.child_time = 0.0
        self.info = None
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Records nested spans; ``root(kind)`` opens a top-level span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.errors: Counter = Counter()
        self._stack: list[Span] = []
        self._counted: set[int] = set()
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str, layer: str) -> Span:
        span = Span(name, layer, self._stack[-1] if self._stack else None)
        self._stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration

    @contextlib.contextmanager
    def root(self, kind: str):
        """One top-level span (``call`` or ``setup``) around the benchmark's own code."""
        span = self._open(kind, "client")
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str):
        layer = name.split(".", 1)[0]
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count an exception once, in the innermost layer it crossed
                if id(exc) not in self._counted:
                    self._counted.add(id(exc))
                    self.errors[layer] += 1
                raise
            finally:
                self._close(span)
            if info is not None:
                span.info = info(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every patched binding with its traced wrapper."""
        import importlib

        for module_name, path, name in PATCHES:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(raw.__func__, name))
            else:
                new = self.wrap(raw, name)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- reduction -----------------------------------------------------

    def summaries(self, kind: str) -> list[dict]:
        """One summary per root span of ``kind``: per-layer self time and per-name facts."""
        out: dict[int, dict] = {}
        for span in self.spans:
            if span.parent is None:
                if span.name == kind:
                    out[id(span)] = {
                        "total": span.duration,
                        "self": defaultdict(float, client=span.self_time),
                        "names_self": defaultdict(float),
                        "dur": defaultdict(float),
                        "count": Counter(),
                        "info": defaultdict(list),
                    }
                continue
            root = span.parent
            while root.parent is not None:
                root = root.parent
            summary = out.get(id(root))
            if summary is None:
                continue
            summary["self"][span.layer] += span.self_time
            summary["names_self"][span.name] += span.self_time
            if span.parent.name != span.name:  # outermost of a same-name chain
                summary["dur"][span.name] += span.duration
                summary["count"][span.name] += 1
            if span.info is not None:
                summary["info"][span.name].append((span.info, span.duration))
        return list(out.values())


def median_of(summaries: list[dict], value) -> float:
    """Median over calls of ``value(summary)``; 0 when there are no calls."""
    values = [value(s) for s in summaries]
    return float(statistics.median(values)) if values else 0.0
