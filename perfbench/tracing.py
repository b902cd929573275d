"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps the layer entry points as ``majprop.driver`` and
``majprop.pool`` bind them, for the duration of one traced call, and records
one span per call: name, start, end, parent span and run id.  Spans stay in
memory until the benchmark ends.  A span's self time is its duration minus
the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the recorder, -1 for none
    run: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _sized(key):
    return lambda fn: lambda args, kwargs, result: {key: len(result)}


def _candidates(fn):
    """Candidates a scoring call evaluates: its ``indices``, or the whole pool."""
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = signature.bind(*args, **kwargs).arguments
        chosen = bound.get("indices")
        return {"candidates": len(bound["pool"] if chosen is None else chosen)}

    return count


# (module, attribute, span name, annotation factory)
ENTRY_POINTS = (
    ("driver", "build_majorana_hamiltonian", "hamiltonian.build", _sized("terms")),
    ("driver", "build_majoranic_pool", "pool.build", _sized("size")),
    ("driver", "reduce_pool_equivalence", "pool.build", _sized("size")),
    ("driver", "score_pool_ggf", "pool.score_ggf", _candidates),
    ("driver", "score_pool_gradient", "pool.score_gradient", _candidates),
    ("driver", "build_surrogate", "surrogate.build", None),
    ("driver", "extend_surrogate", "surrogate.extend", None),
    ("pool", "extend_surrogate", "surrogate.extend", None),
    ("driver", "eval_energy", "surrogate.eval", None),
    ("driver", "eval_energy_and_gradient", "surrogate.grad", None),
    ("driver", "propagate", "engine.propagate", None),
    ("driver", "optimize_parameters", "driver.optimize", None),
)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = Span(name, time.perf_counter(), math.nan,
                      self._open[-1] if self._open else -1, self.run)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def _wrap(self, fn, name, annotate):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if annotate is not None:
                record.attrs.update(annotate(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route the entry points through span wrappers until the block exits."""
        from majprop import driver, pool

        modules = {"driver": driver, "pool": pool}
        saved = []
        try:
            for module_name, attr, name, annotation in ENTRY_POINTS:
                module = modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                annotate = annotation(original) if annotation is not None else None
                setattr(module, attr, self._wrap(original, name, annotate))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def to_rows(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.run, s.attrs] for s in self.spans]


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole


def layer_metrics(recorder: SpanRecorder, run: int, result, seconds: float) -> dict:
    """Per-layer metrics of one traced call, whose root span is ``driver.run``.

    ``seconds`` is the call's wall time; ``result`` its ``AdaptResult``.  A
    ratio whose base is zero on this workload reads None.
    """
    spans = recorder.spans
    child_seconds: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            child_seconds[s.parent] += s.seconds
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    attrs: dict[str, list] = defaultdict(list)
    optimizer_evals: dict[int, int] = defaultdict(int)
    root = None
    for i, s in enumerate(spans):
        if s.run != run:
            continue
        total[s.name] += s.seconds
        calls[s.name] += 1
        self_s[s.name] += s.seconds - child_seconds[i]
        attrs[s.name].append(s.attrs)
        if s.name == "driver.run":
            root = i
        if s.parent >= 0 and spans[s.parent].name == "driver.optimize":
            optimizer_evals[s.parent] += 1
    if root is None:
        raise ValueError(f"run {run} has no driver.run span")

    scored = sum(
        a["candidates"] for name in ("pool.score_ggf", "pool.score_gradient") for a in attrs[name]
    )
    ggf_scored = sum(a["candidates"] for a in attrs["pool.score_ggf"])
    iterations = len(result.trajectory) - 1
    maxfun = result.config.opt_maxfun
    stats = result.graph.stats()
    m = {
        "hamiltonian.build_s": total["hamiltonian.build"],
        "hamiltonian.terms": attrs["hamiltonian.build"][-1]["terms"],
        "integrals.parse_s": total["integrals.parse"],
        "pool.build_s": total["pool.build"],
        "pool.size": attrs["pool.build"][-1]["size"],
        "pool.score_ggf_s": total["pool.score_ggf"],
        "pool.score_ggf_calls": calls["pool.score_ggf"],
        "pool.candidates_scored": scored,
        "pool.score_ggf_per_candidate_us": 1e6 * total["pool.score_ggf"] / ggf_scored if ggf_scored else None,
        "pool.score_gradient_s": total["pool.score_gradient"],
        "pool.score_gradient_calls": calls["pool.score_gradient"],
        "pool.scored_per_accept": scored / iterations if iterations else None,
        "surrogate.build_s": total["surrogate.build"],
        "surrogate.build_calls": calls["surrogate.build"],
        "surrogate.extend_s": total["surrogate.extend"],
        "surrogate.extend_calls": calls["surrogate.extend"],
        "surrogate.eval_s": total["surrogate.eval"],
        "surrogate.eval_calls": calls["surrogate.eval"],
        "surrogate.grad_s": total["surrogate.grad"],
        "surrogate.grad_calls": calls["surrogate.grad"],
        "surrogate.grad_per_call_ms": 1e3 * total["surrogate.grad"] / calls["surrogate.grad"]
        if calls["surrogate.grad"] else None,
        "surrogate.max_layer": stats["max_layer"],
        "surrogate.total_edges": stats["total_edges"],
        "surrogate.live_fraction": int((result.graph.sink != 0).sum()) / stats["final_layer"],
        "engine.propagate_s": total["engine.propagate"],
        "engine.propagate_calls": calls["engine.propagate"],
        "driver.optimize_s": total["driver.optimize"],
        "driver.optimize_self_s": self_s["driver.optimize"],
        "driver.nfev": sum(optimizer_evals.values()),
        "driver.maxfun_hits": sum(1 for n in optimizer_evals.values() if n >= maxfun),
        "driver.iterations": iterations,
        "driver.unattributed_s": spans[root].seconds - child_seconds[root],
    }
    # shares of the call for the layers some workloads never enter
    for name in ("pool.score_ggf", "pool.score_gradient", "surrogate.extend",
                 "surrogate.eval", "engine.propagate"):
        m[f"{name}_pct"] = _pct(total[name], seconds)
    return m
