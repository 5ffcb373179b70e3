"""Span tracing of stochtdr from outside the program.

A :class:`Trace` replaces, for the length of one ``with trace.installed():``
block, the module and class attributes that stochtdr's own code looks up
at call time with wrappers that record a span around each call: its name,
start, end and the span that was open when it began.  No line of the
program changes, and every attribute is put back when the block ends.
Spans stay in memory; self times are computed after the traced call.
"""

from __future__ import annotations

import functools
import hashlib
import time
from contextlib import contextmanager

import numpy as np


def span_targets() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every wrapped callable.

    The owner is the namespace the caller reads the name from, which is
    not always the defining module: ``tasks`` imports the readout
    functions into its own namespace, ``reservoir`` does the same with the
    quantizers, ``cli`` with ``metric_study``, and
    ``Reservoir._step_stochastic`` re-imports ``ones_count_to_offset`` from
    ``streams`` on every step.
    """
    from stochtdr import bernstein, cli, metrics, reservoir, streams, tasks

    res = reservoir.Reservoir
    return [
        (cli, "main", "cli.main"),
        (cli, "parse_config", "cli.parse"),
        (cli, "run_experiment", "cli.run_experiment"),
        (cli, "metric_study", "metrics.metric_study"),
        (metrics, "numerical_rank", "metrics.numerical_rank"),
        (tasks, "evaluate_regression", "tasks.evaluate"),
        (tasks, "evaluate_classification", "tasks.evaluate"),
        (tasks, "narma10_generate", "tasks.generate"),
        (tasks, "sine_square_generate", "tasks.generate"),
        (tasks, "ridge_train", "readout.ridge_train"),
        (tasks, "predict", "readout.predict"),
        (res, "__init__", "reservoir.build"),
        (res, "run", "reservoir.run"),
        (res, "step", "reservoir.step"),
        (reservoir, "real_to_offset", "streams.quantize"),
        (reservoir, "offset_to_real", "streams.quantize"),
        (streams, "ones_count_to_offset", "streams.s2b"),
        (bernstein, "bernstein_eval", "bernstein.eval"),
        (bernstein, "fit_bernstein_coeffs", "bernstein.fit"),
    ]


# the span whose return value (the state matrix) is kept for hashing
_STATE_SPAN = "reservoir.run"


class Trace:
    """Spans of one traced call, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.states: list[np.ndarray] = []
        self._open = [-1]

    def _wrap(self, name: str, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, states, clock = self._open, self.states, time.perf_counter_ns
        keep = name == _STATE_SPAN

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if keep:
                states.append(out[0] if isinstance(out, tuple) else out)
            return out

        return span

    @contextmanager
    def installed(self):
        """Wrap every span target; restore the originals on exit.

        A target the program no longer has is skipped, and its metrics read 0.
        """
        saved = []
        try:
            for owner, attr, name in span_targets():
                if attr not in vars(owner):
                    continue
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
        left = [attr for owner, attr, original in saved
                if vars(owner)[attr] is not original]
        if left:
            raise RuntimeError(f"span wrappers left installed on {left}")

    def self_ns(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)
        parent = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return dur - child

    def layers(self) -> dict[str, dict]:
        """Per span name: call count, total and self seconds, durations (ns)."""
        dur = np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)
        own = self.self_ns()
        names = np.asarray(self.names)
        out = {}
        for name in dict.fromkeys(self.names):
            sel = names == name
            out[name] = {"count": int(sel.sum()), "total_s": float(dur[sel].sum()) * 1e-9,
                         "self_s": float(own[sel].sum()) * 1e-9, "durations_ns": dur[sel]}
        return out

    def sanity_error(self, wall_s: float, rel_tol: float) -> str | None:
        """Why the spans do not account for a call of ``wall_s`` seconds, or None.

        A traced call must form one span tree whose self times sum to the
        wall time measured around it, up to ``rel_tol`` of that wall time.
        """
        roots = sum(1 for p in self.parents if p < 0)
        if roots != 1:
            return f"expected one root span, got {roots}"
        own = self.self_ns()
        if (own < 0).any():
            return "a span's children outlast it"
        gap = wall_s - float(own.sum()) * 1e-9
        if abs(gap) > rel_tol * wall_s:
            return f"self times miss {gap:.6f} s of a {wall_s:.6f} s call"
        return None

    def state_digest(self) -> str:
        """sha256 over the shape and bytes of every state matrix run() returned."""
        h = hashlib.sha256()
        for X in self.states:
            X = np.ascontiguousarray(X, dtype=np.float64)
            h.update(repr(X.shape).encode())
            h.update(X.tobytes())
        return h.hexdigest()

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans in columns, for writing to disk."""
        names = list(dict.fromkeys(self.names))
        index = {n: k for k, n in enumerate(names)}
        return {"span_names": np.asarray(names),
                "name": np.asarray([index[n] for n in self.names], dtype=np.int32),
                "parent": np.asarray(self.parents, dtype=np.int64),
                "start_ns": np.asarray(self.starts, dtype=np.int64),
                "end_ns": np.asarray(self.ends, dtype=np.int64)}
