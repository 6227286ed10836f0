"""Span recording around calls into the ``conewise`` modules.

The benchmark measures each layer from outside: it replaces public
functions at module boundaries with wrappers that record a span (name,
start, end, parent span, op id and an optional work count) and restores
the originals afterwards.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

SETUP_OP = -1


def _kmax_orders(args, kwargs, result):
    return int(args[1]) + 1  # log_moment_array(spec, kmax) -> orders 0..kmax


def _len_taus(args, kwargs, result):
    return int(len(args[1]))  # g_array(spec, taus)


def _draw_size(args, kwargs, result):
    return int(result.size)  # sample_power_law_intervals(...) -> array


# (module, attribute, span name, work count).  ``numpy.linalg`` functions are
# replaced on the module that ``dynamics`` and ``surrogate`` look them up on.
BOUNDARIES = (
    ("conewise.ensembles", "EnsembleSpec.sample", "ensembles.sample", None),
    ("numpy.linalg", "eigh", "linalg.eigh", None),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh", None),
    ("numpy.linalg", "cholesky", "linalg.cholesky", None),
    ("conewise.surrogate", "log_moment_array", "spectral.log_moment_array", _kmax_orders),
    ("conewise.surrogate", "build_covariance", "surrogate.build_covariance", None),
    ("conewise.renewal", "g_array", "spectral.g_array", _len_taus),
    ("conewise.renewal", "sample_power_law_intervals", "renewal.draw", _draw_size),
    ("conewise.estimators", "fit_powerlaw", "estimators.fit_powerlaw", None),
    ("conewise.estimators", "ks_distance", "estimators.ks_distance", None),
    ("conewise.dynamics", "estimate_persistence_matrix", "entry.persistence_matrix", None),
    ("conewise.dynamics", "lyapunov_runs", "entry.lyapunov_runs", None),
    ("conewise.surrogate", "estimate_persistence_gp", "entry.persistence_gp", None),
    ("conewise.renewal", "sample_renewal_lyapunov", "entry.renewal", None),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "work")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.work = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op, self.work]


class Tracer:
    """Records nested spans on one thread; install() swaps in the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = SETUP_OP

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = Span(name, perf_counter(), parent, self.op)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = perf_counter()

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if count is not None:
                    rec.work = count(args, kwargs, result)
                return result

        return traced

    def install(self) -> None:
        if self._saved:
            return
        for module, attr, name, count in BOUNDARIES:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, name, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.duration
        return out
