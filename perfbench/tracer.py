"""In-memory span tracer for the backflow benchmark.

The tracer replaces public callables of the ``backflow`` modules (and
``numpy.linalg.eigvalsh``) with thin wrappers, at the module attributes the
callers look the names up in, and puts the originals back on ``restore``.
Nothing under ``src/`` is edited.  Each wrapped call records one span
``[name, start, end, parent]``; ``parent`` is the index of the innermost
enclosing span or -1.  Spans stay in memory until the benchmark writes them.

Private helpers of the program are deliberately not wrapped: their names are
expected to change, and the benchmark must not need edits when they do.  The
pair kernel therefore shows up as the self time of ``experiments.run_figure``
plus the ``linalg.eigvalsh`` counts.  Work done inside forked pool workers is
invisible to the parent, so only the parent side of a fan-out is traced.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import time
from collections import Counter, defaultdict

import numpy as np


def _eigvalsh_counts(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    shape = np.shape(a)
    n = math.prod(shape[:-2])
    counts = {"bytes_in": np.asarray(a).nbytes}
    if shape[-1] in (4, 16):
        counts[f"matrices_{shape[-1]}"] = n
    return counts


def _eval_points(args, kwargs, result):
    t = args[1] if len(args) > 1 else kwargs.get("tau", kwargs.get("t"))
    return {"points": int(np.size(t))}


def _csv_bytes(args, kwargs, result):
    return {"bytes_written": os.path.getsize(args[0])}


def _meta_bytes(args, kwargs, result):
    return {"bytes_written": os.path.getsize(result)}


# (module, attribute, span name, counter hook).  Several attributes share one
# span name when the same public function is looked up from several callers.
TARGETS = (
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh", _eigvalsh_counts),
    ("backflow.experiments", "sample_random_pair", "measures.sample_random_pair", None),
    ("backflow.measures", "sample_random_pair", "measures.sample_random_pair", None),
    ("backflow.measures", "assert_density_matrix", "linalg.assert_density_matrix", None),
    ("backflow.measures", "choi_state", "channels.choi_state", None),
    ("backflow.measures", "intermediate_choi", "channels.intermediate_choi", None),
    ("backflow.measures", "trace_norm", "linalg.trace_norm", None),
    ("backflow.linalg", "trace_norm", "linalg.trace_norm", None),
    ("backflow.measures", "von_neumann_entropy", "linalg.von_neumann_entropy", None),
    ("backflow.channels", "kappa_complex", "decoherence.eval", _eval_points),
    ("backflow.channels", "chi", "decoherence.eval", _eval_points),
    ("backflow.experiments", "kappa_complex", "decoherence.eval", _eval_points),
    ("backflow.experiments", "chi", "decoherence.eval", _eval_points),
    ("backflow.experiments", "analytic_blp_dephasing", "decoherence.closed_form", None),
    ("backflow.experiments", "transition_thetas", "decoherence.closed_form", None),
    ("backflow.experiments", "bell_diagonal", "rsp", None),
    ("backflow.experiments", "correlation_matrix", "rsp", None),
    ("backflow.experiments", "rsp_fidelity", "rsp", None),
    ("backflow.cli", "resolve_config", "experiments.resolve_config", None),
    ("backflow.cli", "run_figure", "experiments.run_figure", None),
    ("backflow.cli", "write_csv", "experiments.write_csv", _csv_bytes),
    ("backflow.cli", "write_metadata", "experiments.write_metadata", _meta_bytes),
)


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _enter(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _exit(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        record = self._enter(name)
        try:
            yield
        finally:
            self._exit(record)

    def _wrapper(self, name, fn, hook):
        # No context manager here: wrapped functions run up to ~10^5 times
        # per pass, and a generator-based one costs more than the rest of
        # the wrapper.
        def traced(*args, **kwargs):
            record = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(record)
            if hook is not None:
                for key, n in hook(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += n
            return result

        return traced

    def install(self) -> None:
        self._originals = []
        for module_name, attr, name, hook in TARGETS:
            owner = importlib.import_module(module_name)
            original = getattr(owner, attr)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(name, original, hook))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)

    def unrestored(self) -> list[str]:
        """Installed names not bound to their original (empty after restore)."""
        return [
            f"{owner.__name__}.{attr}"
            for owner, attr, original in self._originals
            if getattr(owner, attr) is not original
        ]

    def aggregate(self, first: int = 0) -> dict:
        """Per span name: call count, inclusive seconds and self seconds,
        over the spans recorded from index ``first`` on.

        Inclusive time counts only the outermost span of each name along a
        chain, so a name nested in itself is not counted twice.  Self time
        is a span's duration minus the durations of its direct children.
        """
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans[first:]:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i in range(first, len(self.spans)):
            name, start, end, parent = self.spans[i]
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                entry["s"] += end - start
        return dict(out)

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "fields": ["name", "start", "end", "parent"],
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
        }
