"""In-memory span tracer that wraps the public functions of jobrec's modules.

A span records its name, start, end and the span that was open when it
began (its parent). Spans stay in memory; the worker turns them into
per-layer numbers after the traced run ends. The tracer is single-threaded
by design: the benchmark passes no thread options, so every call it
records runs on the main thread and lies on the blocking path.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field


def _matrix_rows(args, kwargs, matrix):
    dataset = args[0] if args else kwargs["dataset"]
    ev = dataset.events
    return {
        "variant": (ev.max_timestamp, len(ev.interactions), len(ev.impressions)),
        "full": (args[2] if len(args) > 2 else kwargs.get("rows")) is None,
        "user_ids": matrix.user_ids,
        "item_ids": matrix.item_ids,
    }


def _trained(args, kwargs, model):
    cfg = model.config
    return {
        "rows": len(args[0]),
        "kept": len(model.trees),
        "num_round": cfg.num_round,
        "early_stopping_rounds": cfg.early_stopping_rounds,
        "best_round": model.best_round,
        "has_valid": kwargs.get("valid", args[4] if len(args) > 4 else None) is not None,
    }


# Span name -> (module, attribute path, observer). Every name must
# resolve; a missing one stops the traced run instead of reporting a
# silent zero. An observer keeps only counts or references to arrays
# that exist anyway; numbers are derived from them after the run.
WRAPPED = {
    "dataio.load_dataset": ("jobrec.dataio", "load_dataset",
                            lambda a, k, ds: {"rows": len(ds.users) + len(ds.items) + len(ds.interactions)
                                             + len(ds.impressions) + len(ds.target_users)}),
    "split.temporal_split": ("jobrec.split", "temporal_split", None),
    "split.build_ground_truth": ("jobrec.split", "build_ground_truth", None),
    "similarity.top_k_jaccard": ("jobrec.similarity", "SparseSetIndex.top_k_jaccard", None),
    "candidates.init": ("jobrec.candidates", "CandidateGenerator.__init__", None),
    "candidates.generate_all": ("jobrec.candidates", "CandidateGenerator.generate_all",
                                lambda a, k, lists: {"lists": lists}),
    "candidates.generate": ("jobrec.candidates", "CandidateGenerator.generate", None),
    "candidates.save_candidates": ("jobrec.candidates", "save_candidates", None),
    "candidates.load_candidates": ("jobrec.candidates", "load_candidates", None),
    "features.extractor_init": ("jobrec.features", "FeatureExtractor.__init__", None),
    "features.block": ("jobrec.features", "FeatureExtractor.block", None),
    "features.build_matrix": ("jobrec.features", "build_matrix", _matrix_rows),
    "features.matrix_save": ("jobrec.features", "FeatureMatrix.save",
                             lambda a, k, _: {"path": str(a[1] if len(a) > 1 else k["path"])}),
    "features.matrix_load": ("jobrec.features", "FeatureMatrix.load", None),
    "gbdt.train": ("jobrec.gbdt", "train", _trained),
    "gbdt.predict_proba": ("jobrec.gbdt", "GbdtModel.predict_proba",
                           lambda a, k, p: {"row_trees": len(p) * len(a[0].trees)}),
    "gbdt.model_save": ("jobrec.gbdt", "GbdtModel.save", None),
    "gbdt.model_load": ("jobrec.gbdt", "GbdtModel.load", None),
    "pipeline.build_training_file": ("jobrec.pipeline", "build_training_file", None),
    "pipeline.blend": ("jobrec.pipeline", "blend", None),
    "pipeline.rank_and_select": ("jobrec.pipeline", "rank_and_select", None),
    "pipeline.baseline_recency": ("jobrec.pipeline", "baseline_recency", None),
    "pipeline.baseline_popular": ("jobrec.pipeline", "baseline_popular", None),
    "evaluation.total_score": ("jobrec.evaluation", "total_score", None),
}


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent))
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {self.spans[sid].name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    def wrap(self, name: str, fn, observer=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if observer is not None:
                tracer.spans[sid].info = observer(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every function in WRAPPED, also where a jobrec module
        imported it under its own name (``from .gbdt import train as ...``)."""
        for name, (module_name, path, observer) in WRAPPED.items():
            module = importlib.import_module(module_name)
            owner = module
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
                if owner is None:
                    raise RuntimeError(f"traced function {module_name}.{path} is missing")
            original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if isinstance(original, classmethod):
                traced = classmethod(self.wrap(name, original.__func__, observer))
            elif callable(original):
                traced = self.wrap(name, original, observer)
            else:
                raise RuntimeError(f"traced function {module_name}.{path} is missing")
            setattr(owner, attr, traced)
            if not outer:
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("jobrec.") and mod is not module:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, traced)


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the part its direct children cover.

    Children of one parent never overlap on a single thread, so the part
    they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def check_spans(spans: list[Span], wall_s: float) -> None:
    """Self-check of one traced run.

    The run must have exactly one root and every child must lie inside its
    parent. Self times (the root's being the gap no other span covers)
    must then add up to the root's duration, and the root must match the
    wall time the worker measured around the traced phases.
    """
    roots = [k for k, s in enumerate(spans) if s.parent is None]
    if len(roots) != 1:
        raise RuntimeError(f"trace has {len(roots)} root spans, expected 1")
    eps = 1e-9
    for s in spans:
        if s.end < s.start:
            raise RuntimeError(f"span {s.name} was never closed")
        if s.parent is not None:
            p = spans[s.parent]
            if s.start < p.start - eps or s.end > p.end + eps:
                raise RuntimeError(f"span {s.name} lies outside its parent {p.name}")
    selfs = self_times(spans)
    if min(selfs) < -1e-6:
        raise RuntimeError("child spans overlap: a self time is negative")
    root = spans[roots[0]]
    total = sum(selfs)
    if abs(total - root.duration) > 1e-6 * max(1.0, root.duration):
        raise RuntimeError(f"self times sum to {total:.6f}s, root span is {root.duration:.6f}s")
    if abs(root.duration - wall_s) > 0.01 * wall_s + 0.01:
        raise RuntimeError(f"root span {root.duration:.3f}s disagrees with measured wall {wall_s:.3f}s")
