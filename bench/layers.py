"""Per-layer numbers from the spans of one traced run.

A layer is a jobrec module; a span's layer is the part of its name
before the first dot. Spans named ``run``, ``stage.*`` and ``cli.*`` are
opened by the benchmark itself; their self time is the part of the run
that no wrapped jobrec function covers.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from pathlib import Path

from spans import Span, self_times

LAYERS = ("gbdt", "features", "candidates", "similarity", "dataio", "split", "pipeline", "evaluation")
BENCH_SPANS = ("run", "stage", "cli")

# Wrapped functions every run of a workload must call. A required span
# with no calls stops the run, so a renamed or bypassed function cannot
# read as a zero.
REQUIRED = {
    "dataio.load_dataset", "split.temporal_split", "split.build_ground_truth",
    "candidates.init", "candidates.generate_all", "candidates.generate",
    "similarity.top_k_jaccard", "features.extractor_init", "features.block",
    "features.build_matrix", "gbdt.train", "gbdt.predict_proba",
    "pipeline.build_training_file", "pipeline.rank_and_select",
    "pipeline.baseline_recency", "pipeline.baseline_popular", "evaluation.total_score",
}
REQUIRED_EXTRA = {
    "c6-blend": {"pipeline.blend"},
    "wide-score": set(),
    "cli-files": {"features.matrix_save", "features.matrix_load", "candidates.save_candidates",
                  "candidates.load_candidates", "gbdt.model_save", "gbdt.model_load"},
}
CLI_COMMANDS = ("split", "candidates", "features", "train", "predict", "baseline", "evaluate")


def _p99_ms(durations: list[float]) -> float:
    ordered = sorted(durations)
    return 1000.0 * ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)] if ordered else 0.0


def _trees_grown(info: dict) -> int:
    """Rounds boosted before early stopping cut the ensemble back.

    gbdt.train stops once best_round + early_stopping_rounds trees exist,
    or after num_round trees, and then keeps best_round of them.
    """
    esr, best = info["early_stopping_rounds"], info["best_round"]
    if info["has_valid"] and esr is not None and best is not None:
        return min(info["num_round"], best + esr)
    return info["num_round"]


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) if path.exists() else 0


def layer_metrics(spans: list[Span], workload: str, truth: dict[str, list[int]],
                  work: Path) -> dict[str, float]:
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for k, s in enumerate(spans):
        by_name[s.name].append(k)
    missing = sorted(n for n in REQUIRED | REQUIRED_EXTRA[workload] if not by_name.get(n))
    if missing:
        raise RuntimeError(f"{workload}: required traced functions never ran: {missing}")

    def total(*names: str) -> float:
        return sum(spans[k].duration for n in names for k in by_name.get(n, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def infos(name: str) -> list[dict]:
        return [spans[k].info for k in by_name.get(name, ())]

    m: dict[str, float] = {}
    root = next(s for s in spans if s.parent is None)
    wall = root.duration

    trains = infos("gbdt.train")
    grown = sum(_trees_grown(i) for i in trains)
    kept = sum(i["kept"] for i in trains)
    m["gbdt.train_s"] = total("gbdt.train")
    m["gbdt.trees_grown"] = grown
    m["gbdt.trees_kept"] = kept
    m["gbdt.kept_share"] = kept / grown
    m["gbdt.s_per_tree"] = m["gbdt.train_s"] / grown
    m["gbdt.train_rows"] = sum(i["rows"] for i in trains)
    m["gbdt.predict_s"] = total("gbdt.predict_proba")
    m["gbdt.row_trees_per_s"] = sum(i["row_trees"] for i in infos("gbdt.predict_proba")) / m["gbdt.predict_s"]

    blocks = [spans[k].duration for k in by_name["features.block"]]
    m["features.extractor_builds"] = count("features.extractor_init")
    m["features.extractor_init_s"] = total("features.extractor_init")
    m["features.block_calls"] = len(blocks)
    m["features.block_s"] = sum(blocks)
    m["features.block_p99_ms"] = _p99_ms(blocks)
    builds = [(spans[k].duration, spans[k].info) for k in by_name["features.build_matrix"]]
    m["features.train_matrix_s"] = sum(d for d, i in builds if not i["full"])
    m["features.full_matrix_s"] = sum(d for d, i in builds if i["full"])
    seen: set[tuple] = set()
    rows = dups = 0
    for _, info in builds:
        for pair in zip(info["user_ids"].tolist(), info["item_ids"].tolist()):
            key = (info["variant"], pair)
            rows += 1
            if key in seen:
                dups += 1
            else:
                seen.add(key)
    m["features.rows"] = rows
    m["features.duplicate_row_share"] = dups / rows
    m["features.rows_per_s"] = rows / (m["features.train_matrix_s"] + m["features.full_matrix_s"])
    m["features.matrix_save_s"] = total("features.matrix_save")
    m["features.matrix_load_s"] = total("features.matrix_load")
    m["features.matrix_bytes"] = sum(
        os.path.getsize(p) for i in infos("features.matrix_save")
        for p in (i["path"], i["path"] + ".schema") if os.path.exists(p)
    )

    gen = [spans[k].duration for k in by_name["candidates.generate"]]
    m["candidates.init_s"] = total("candidates.init")
    m["candidates.generate_s"] = total("candidates.generate_all")
    m["candidates.self_s"] = sum(selfs[k] for n in ("candidates.init", "candidates.generate_all",
                                                    "candidates.generate") for k in by_name[n])
    m["candidates.user_p99_ms"] = _p99_ms(gen)
    # recall and positive share of the last call: the target users' lists
    lists = infos("candidates.generate_all")[-1]["lists"]
    pairs = sum(len(cl) for cl in lists.values())
    positives = sum(1 for u, items in truth.items() for i in items
                    if int(u) in lists and i in lists[int(u)])
    m["candidates.pairs"] = pairs
    m["candidates.recall"] = positives / sum(len(items) for items in truth.values())
    m["candidates.positive_share"] = positives / pairs

    m["similarity.top_k_jaccard_calls"] = count("similarity.top_k_jaccard")
    m["similarity.top_k_jaccard_s"] = total("similarity.top_k_jaccard")

    m["dataio.load_dataset_s"] = total("dataio.load_dataset")
    m["dataio.rows_read"] = sum(i["rows"] for i in infos("dataio.load_dataset"))
    m["dataio.artifact_bytes"] = _dir_bytes(work)
    m["dataio.candidates_io_s"] = total("candidates.save_candidates", "candidates.load_candidates")
    m["dataio.model_io_s"] = total("gbdt.model_save", "gbdt.model_load")

    m["split.temporal_split_s"] = total("split.temporal_split")

    m["pipeline.build_training_file_s"] = total("pipeline.build_training_file")
    m["pipeline.blend_s"] = total("pipeline.blend")
    m["pipeline.select_s"] = total("pipeline.rank_and_select")
    m["pipeline.baselines_s"] = total("pipeline.baseline_recency", "pipeline.baseline_popular")

    m["evaluation.score_s"] = total("evaluation.total_score")

    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = total(f"cli.{cmd}")

    layer_self: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, selfs):
        layer_self[s.name.split(".", 1)[0]] += t
    for layer in LAYERS:
        m[f"{layer}.self_share"] = layer_self[layer] / wall
    m["trace.untraced_share"] = sum(layer_self[n] for n in BENCH_SPANS) / wall
    m["trace.spans"] = len(spans)
    return m
