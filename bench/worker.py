"""One pipeline run in a fresh process: set-up, then submission.

Usage: python3 bench/worker.py --workload NAME --inputs DIR --work DIR
                               --seed N --trace 0|1 --facts FACTS.json --out RESULT.json

The inputs directory holds challenge-format TSV files only; the worker
never sees the generator. It writes its timings, its submissions and
(with --trace 1) its spans' per-layer numbers to RESULT.json.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from check import read_submission  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import Tracer, check_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import jobrec  # noqa: E402

if Path(jobrec.__file__).resolve().parent != ROOT / "src" / "jobrec":
    raise SystemExit(f"imported jobrec from {jobrec.__file__}, not from this checkout")

from jobrec import candidates, dataio, evaluation, features, gbdt, pipeline, split  # noqa: E402
from jobrec.cli import main as cli_main  # noqa: E402

SETUP_RUNS = 5


def vm_hwm_mb() -> float:
    """Process high-water mark so far. It cannot be reset without writing
    to /proc/self/clear_refs, so per-stage values are cumulative."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Recorder:
    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.hwm_mb: dict[str, float] = {}

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    @contextlib.contextmanager
    def stage(self, name: str):
        with self.span(f"stage.{name}"):
            yield
        self.hwm_mb[name] = vm_hwm_mb()


def as_submission(predictions) -> dict[str, list[int]]:
    return {str(p.user_id): list(p.items) for p in predictions}


def timed_setup(setup, rec: Recorder, marks: dict):
    """Run set-up marks["setup_runs"] times and keep the last result.

    Each repetition drops the previous result first, so at most one
    set-up's data is alive and the process high-water mark is unchanged.
    """
    result = None
    marks["setup_times"] = []
    with rec.stage("setup"):
        for _ in range(marks["setup_runs"]):
            result = None
            marks["t0"] = time.perf_counter()
            result = setup()
            marks["t1"] = time.perf_counter()
            marks["setup_times"].append(marks["t1"] - marks["t0"])
    marks["cpu1"] = cpu_seconds()
    return result


def run_inprocess(spec: dict, inputs: Path, work: Path, seed: int, rec: Recorder, marks: dict) -> dict:
    def setup():
        ds = dataio.load_dataset(inputs)
        train_ds, holdout = split.temporal_split(ds, 1)
        truth = split.build_ground_truth(holdout, ds.target_users)
        inner_train, inner_holdout = split.temporal_split(train_ds, 1)
        inner_truth = split.build_ground_truth(inner_holdout, ds.target_users)
        return ds, train_ds, truth, inner_train, inner_truth

    ds, train_ds, truth, inner_train, inner_truth = timed_setup(setup, rec, marks)

    with rec.stage("candidates"):
        inner_lists = candidates.CandidateGenerator(
            inner_train, spec["cap"], spec["neighbors"]).generate_all(sorted(inner_truth))
        outer_lists = candidates.CandidateGenerator(
            train_ds, spec["cap"], spec["neighbors"]).generate_all(ds.target_users)
    with rec.stage("training"):
        cfg = gbdt.TrainConfig(**spec["train"])
        models = []
        for k in range(spec["models"]):
            tf = pipeline.build_training_file(inner_lists, inner_truth, "paper", seed * 100 + k)
            tm = features.build_matrix(inner_train, inner_lists,
                                       rows=[(u, i) for u, i, _ in tf.train_rows],
                                       ground_truth=inner_truth)
            vm = features.build_matrix(inner_train, inner_lists,
                                       rows=[(u, i) for u, i, _ in tf.valid_rows],
                                       ground_truth=inner_truth)
            models.append(gbdt.train(tm.values, tm.labels, cfg, feature_names=tm.schema.names,
                                     valid=(vm.values, vm.labels)))
    with rec.stage("features"):
        matrix = features.build_matrix(train_ds, outer_lists)
    with rec.stage("predict"):
        deletes = {int(u): train_ds.events.del_items(int(u))
                   for u in set(matrix.user_ids.tolist())}
        if len(models) == 1:
            preds = pipeline.score_and_select(models[0], matrix, deletes)
        else:
            preds = pipeline.blend(models, matrix, deletes)
    with rec.stage("evaluate"):
        submissions = {
            "model": as_submission(preds),
            "recency": as_submission(pipeline.baseline_recency(train_ds)),
            "popular": as_submission(pipeline.baseline_popular(train_ds)),
        }
        program_scores = {
            name: evaluation.total_score({int(u): v for u, v in sub.items()}, truth,
                                         "corrected").total
            for name, sub in submissions.items()
        }
    marks["t2"] = time.perf_counter()
    marks["cpu2"] = cpu_seconds()
    return {
        "submissions": submissions,
        "program_scores": program_scores,
        "score_tolerance": 1e-9,
        "candidate_users": sorted(u for u, cl in outer_lists.items() if len(cl) > 0),
    }


def run_cli(spec: dict, inputs: Path, work: Path, seed: int, rec: Recorder, marks: dict) -> dict:
    sp = work / "split"
    printed: dict[str, float] = {}

    def jobrec_cmd(*args) -> str:
        out = io.StringIO()
        with rec.span(f"cli.{args[0]}"), contextlib.redirect_stdout(out):
            cli_main.main(args=[str(a) for a in args] + ["--seed", str(seed)],
                          prog_name="jobrec", standalone_mode=False)
        return out.getvalue()

    def evaluate(name: str, preds: Path) -> None:
        line = jobrec_cmd("evaluate", "--predictions", preds,
                          "--ground-truth", sp / "ground_truth.tsv")
        printed[name] = float(line.split()[0].split("=")[1])

    timed_setup(lambda: jobrec_cmd("split", "--data", inputs, "--out", sp), rec, marks)

    with rec.stage("candidates"):
        jobrec_cmd("candidates", "--data", sp, "--out", sp / "cands.tsv")
    with rec.stage("training"):
        jobrec_cmd("features", "--data", sp, "--candidates", sp / "cands.tsv",
                   "--ground-truth", sp / "ground_truth.tsv", "--mode", "paper",
                   "--out", sp / "train.npz", "--valid-out", sp / "valid.npz")
        jobrec_cmd("train", "--train-matrix", sp / "train.npz", "--valid-matrix", sp / "valid.npz",
                   "--out", sp / "model.json", *spec["train_flags"])
    with rec.stage("features"):
        jobrec_cmd("features", "--data", sp, "--candidates", sp / "cands.tsv",
                   "--out", sp / "full.npz")
    with rec.stage("predict"):
        jobrec_cmd("predict", "--data", sp, "--model", sp / "model.json",
                   "--features", sp / "full.npz", "--out", sp / "preds.tsv")
    with rec.stage("evaluate"):
        for method in ("recency", "popular"):
            jobrec_cmd("baseline", "--data", sp, "--out", sp / f"{method}.tsv", "--method", method)
        evaluate("model", sp / "preds.tsv")
        evaluate("recency", sp / "recency.tsv")
        evaluate("popular", sp / "popular.tsv")
    marks["t2"] = time.perf_counter()
    marks["cpu2"] = cpu_seconds()

    cand_users: set[int] = set()
    with open(sp / "cands.tsv", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#") and not line.startswith("user_id\t"):
                cand_users.add(int(line.split("\t", 1)[0]))
    return {
        "submissions": {name: read_submission(sp / f"{name}.tsv")
                        for name in ("recency", "popular")}
                       | {"model": read_submission(sp / "preds.tsv")},
        "program_scores": printed,
        # evaluate prints the score with four decimals
        "score_tolerance": 5.1e-5,
        "candidate_users": sorted(cand_users),
    }


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--facts", type=Path, help="facts JSON, for candidate recall when tracing")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()

    # jobrec's CLI calls logging.basicConfig per command; configuring the
    # root logger first keeps INFO lines out of the timed path.
    logging.basicConfig(level=logging.WARNING)
    spec = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    rec = Recorder(tracer)
    # Traced runs set up once, so that set-up spans count one pipeline run.
    marks: dict = {"setup_runs": 1 if args.trace else SETUP_RUNS}
    runner = run_cli if spec["kind"] == "cli" else run_inprocess
    args.work.mkdir(parents=True, exist_ok=True)
    with rec.span("run"):
        out = runner(spec, args.inputs, args.work, args.seed, rec, marks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "setup_s": statistics.median(marks["setup_times"]),
        "submission_s": marks["t2"] - marks["t1"],
        "cpu_s": marks["cpu2"] - marks["cpu1"],
        "peak_rss_mb": peak_rss_mb,
        "hwm_mb": rec.hwm_mb,
        "submissions": out["submissions"],
        "program_scores": out["program_scores"],
        "score_tolerance": out["score_tolerance"],
        "candidate_users": out["candidate_users"],
    }
    if tracer is not None:
        check_spans(tracer.spans, marks["t2"] - marks["t0"])
        facts = json.loads(args.facts.read_text(encoding="utf-8"))
        result["layers"] = layer_metrics(tracer.spans, args.workload, facts["truth"], args.work)
    args.out.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
