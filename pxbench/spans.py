"""Benchmark-side spans around calls into the program's layers.

The program is not edited: :class:`Patches` replaces a module or class
attribute with a timing wrapper for the duration of a traced pass and
puts the original back afterwards.  Spans nest through a per-thread
stack; closing a span adds its *self time* (its duration minus the time
its child spans cover) to the layer's total, so the layer totals of one
pass never count a nanosecond twice.

Spans are aggregated as they close instead of being kept one by one:
the DP's ``convolve`` runs hundreds of thousands of times per pass, and
a list of span records would dominate the benchmark's own memory.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

_MISSING = object()


class Recorder:
    """Per-layer self time, span counts and free-form counters."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        self.root_s: dict[str, float] = defaultdict(float)
        self.roots: dict[str, int] = defaultdict(int)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def close(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        stack = self._stack()
        stack.pop()
        name = frame[0]
        self.self_s[name] += duration - frame[2]
        self.calls[name] += 1
        if stack:
            stack[-1][2] += duration
            self.calls[f"{stack[0][0]}/{name}"] += 1
        else:
            self.root_s[name] += duration
            self.roots[name] += 1

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def peak(self, name: str, value: float) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    # -- derived views ---------------------------------------------------------
    def layer_ms(self, *names: str) -> float:
        return 1000.0 * sum(self.self_s.get(name, 0.0) for name in names)

    def coverage(self) -> float:
        """Share of the root spans' wall time covered by layer self times."""
        wall = sum(self.root_s.values())
        covered = sum(
            seconds for name, seconds in self.self_s.items() if name not in self.root_s
        )
        return covered / wall if wall > 0 else 0.0


class _Span:
    __slots__ = ("recorder", "name", "frame")

    def __init__(self, recorder: Recorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self) -> "_Span":
        self.frame = self.recorder.open(self.name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.recorder.close(self.frame)


class Patches:
    """Timing wrappers installed at module/class attributes, undoable."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, layer: str, after=None) -> None:
        """Time every call of ``owner.attr`` as a ``layer`` span.

        ``after(recorder, args, result)`` runs inside the span once the
        call returns, to read counters off the arguments or the result."""
        original = getattr(owner, attr)
        recorder = self.recorder

        @functools.wraps(original)
        def timed(*args, **kwargs):
            frame = recorder.open(layer)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(recorder, args, result)
                return result
            finally:
                recorder.close(frame)

        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()


def install_core(patches: Patches) -> None:
    """Wrap the library layers every workload reaches in-process."""
    import repro.circuit
    from repro.circuit import ir, trace
    from repro.core import compiler, evaluator, pxdb, query_eval

    def after_run(recorder: Recorder, args, _result) -> None:
        evaluation = args[0]
        recorder.count("core.evaluator.runs")
        recorder.count("core.evaluator.nodes_computed", evaluation.nodes_computed)
        recorder.count("core.evaluator.cache_hits", evaluation.cache_hits)
        recorder.count("core.evaluator.cache_misses", evaluation.cache_misses)
        recorder.peak("core.evaluator.max_sig_width", evaluation.max_sig_width)
        recorder.sample("core.evaluator.sig_width", evaluation.max_sig_width)

    def after_candidates(recorder: Recorder, _args, result) -> None:
        recorder.count("core.query_eval.candidate_sets")
        recorder.count("core.query_eval.candidates", len(result))
        recorder.peak("core.query_eval.candidates_max", len(result))

    patches.wrap(compiler.Registry, "__init__", "core.compiler.compile")
    patches.wrap(evaluator.Evaluation, "run", "core.evaluator.dp", after_run)
    patches.wrap(evaluator.Evaluation, "convolve", "core.evaluator.convolve")
    patches.wrap(evaluator.Evaluation, "mix", "core.evaluator.mix")
    patches.wrap(evaluator.Evaluation, "consume", "core.evaluator.local")
    patches.wrap(query_eval, "candidate_tuples", "core.query_eval.bind", after_candidates)
    patches.wrap(query_eval, "bound_formula", "core.query_eval.bind")
    patches.wrap(pxdb.PXDB, "sample", "core.sampler.draw")
    patches.wrap(repro.circuit, "compile_formulas", "circuit.compile")
    patches.wrap(trace.CompiledCircuit, "rebind", "circuit.rebind_forward")
    patches.wrap(ir.Circuit, "forward", "circuit.rebind_forward")
    patches.wrap(ir.Circuit, "forward_batch", "circuit.sweep")
