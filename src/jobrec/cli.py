"""Command line interface: one subcommand per pipeline stage.

Stages communicate through files only, so any stage can be re-run in
isolation.
"""

from __future__ import annotations

import logging
import sys
from pathlib import Path

import click

from . import candidates as cand_mod
from . import dataio, evaluation, features, pipeline, synth
from .config import PipelineConfig, load_config
from .gbdt import GbdtModel, train as gbdt_train, save_importance
from .split import build_ground_truth, temporal_split

log = logging.getLogger("jobrec")


def _setup_logging(verbose: bool) -> None:
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


def common_options(fn):
    fn = click.option("--config", "config_path", type=click.Path(exists=True), default=None,
                      help="key=value config file")(fn)
    fn = click.option("--seed", type=int, default=None, help="override the pipeline seed")(fn)
    fn = click.option("--verbose", is_flag=True, default=False)(fn)
    return fn


class _Group(click.Group):
    """Bad input (a `ValueError`, which includes `DataFormatError` and
    `ModelFormatError`) from any subcommand ends it with one `Error:` line
    and exit code 1, not a traceback."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Group)
def main() -> None:
    """Two-stage job recommender pipeline."""


@main.command("synth")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--users", type=int, default=200, show_default=True)
@click.option("--items", type=int, default=400, show_default=True)
@click.option("--weeks", type=int, default=8, show_default=True)
@click.option("--topics", type=int, default=None)
@click.option("--target-fraction", type=float, default=0.5, show_default=True)
@click.option("--active-fraction", type=float, default=0.55, show_default=True)
@common_options
def synth_cmd(out_dir, users, items, weeks, topics, target_fraction, active_fraction,
              config_path, seed, verbose):
    """Generate a synthetic challenge-format dataset."""
    _setup_logging(verbose)
    cfg = load_config(config_path, seed=seed)
    sc = synth.SynthConfig(
        users=users, items=items, weeks=weeks, seed=cfg.seed, topics=topics,
        target_fraction=target_fraction, active_fraction=active_fraction,
    )
    dataset = synth.generate(sc)
    dataio.save_dataset(dataset, out_dir, cfg.provenance("synth"))
    log.info("wrote synthetic dataset to %s (%d interactions, %d impressions)",
             out_dir, len(dataset.interactions), len(dataset.impressions))


@main.command("split")
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--holdout-weeks", type=int, default=None)
@common_options
def split_cmd(data_dir, out_dir, holdout_weeks, config_path, seed, verbose):
    """Cut the last week(s) into a holdout and write the training variant."""
    _setup_logging(verbose)
    cfg = load_config(config_path, seed=seed, holdout_weeks=holdout_weeks)
    dataset = dataio.load_dataset(data_dir)
    train, holdout = temporal_split(dataset, cfg.holdout_weeks)
    truth = build_ground_truth(holdout, dataset.target_users)
    prov = cfg.provenance("split")
    out = Path(out_dir)
    dataio.save_dataset(train, out, prov)
    dataio.save_interactions(holdout.interactions, out / "holdout_interactions.tsv", prov)
    dataio.save_ground_truth(truth, out / "ground_truth.tsv", prov)
    log.info("split %s: %d train / %d holdout interactions, %d ground-truth users",
             data_dir, len(train.interactions), len(holdout.interactions), len(truth))


@main.command("candidates")
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--users", "which_users", type=click.Choice(["target", "all"]), default="target",
              show_default=True)
@click.option("--cap", type=int, default=None, help="per-generator candidate cap")
@click.option("--neighbors", type=int, default=None, help="similar users consulted")
@common_options
def candidates_cmd(data_dir, out_path, which_users, cap, neighbors,
                   config_path, seed, verbose):
    """Run the nine candidate generators and merge their rankings."""
    _setup_logging(verbose)
    cfg = load_config(config_path, seed=seed,
                      candidate_cap=cap, neighbor_count=neighbors)
    dataset = dataio.load_dataset(data_dir)
    users = dataset.target_users if which_users == "target" else sorted(dataset.users)
    gen = cand_mod.CandidateGenerator(dataset, cfg.candidate_cap, cfg.neighbor_count)
    lists = gen.generate_all(users)
    cand_mod.save_candidates(lists, out_path, cfg.provenance("candidates"))
    log.info("wrote %d candidates for %d users to %s", len(lists.item_ids), len(lists), out_path)


@main.command("features")
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True))
@click.option("--candidates", "cand_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--ground-truth", "truth_path", type=click.Path(exists=True), default=None,
              help="build sampled, labeled training/validation matrices instead")
@click.option("--valid-out", "valid_path", type=click.Path(), default=None)
@click.option("--mode", "sampling_mode", type=click.Choice(["paper", "extended"]), default=None)
@common_options
def features_cmd(data_dir, cand_path, out_path, truth_path, valid_path, sampling_mode,
                 config_path, seed, verbose):
    """Extract feature matrices for candidate pairs."""
    _setup_logging(verbose)
    cfg = load_config(config_path, seed=seed, sampling_mode=sampling_mode)
    dataset = dataio.load_dataset(data_dir)
    lists = cand_mod.load_candidates(cand_path)
    if truth_path is None:
        matrix = features.build_matrix(dataset, lists)
        matrix.save(out_path, cfg.provenance("features"))
        log.info("wrote %d feature rows to %s", len(matrix), out_path)
        return
    if valid_path is None:
        raise click.UsageError("--ground-truth requires --valid-out")
    truth = dataio.load_ground_truth(truth_path)
    tf = pipeline.build_training_file(lists, truth, cfg.sampling_mode, cfg.seed)
    train_matrix = features.build_matrix(
        dataset, lists, rows=[(u, i) for u, i, _ in tf.train_rows],
        ground_truth=truth,
    )
    valid_matrix = features.build_matrix(
        dataset, lists, rows=[(u, i) for u, i, _ in tf.valid_rows],
        ground_truth=truth,
    )
    train_matrix.save(out_path, cfg.provenance("features-train"))
    valid_matrix.save(valid_path, cfg.provenance("features-valid"))
    log.info("wrote %d training rows (%d users) and %d validation rows (%d users)",
             len(train_matrix), len(tf.train_users), len(valid_matrix), len(tf.valid_users))


@main.command("train")
@click.option("--train-matrix", "train_path", required=True, type=click.Path(exists=True))
@click.option("--valid-matrix", "valid_path", required=True, type=click.Path(exists=True))
@click.option("--out", "model_path", required=True, type=click.Path())
@click.option("--importance-out", type=click.Path(), default=None)
@click.option("--max-depth", type=int, default=None)
@click.option("--min-child-weight", type=float, default=None)
@click.option("--eta", type=float, default=None)
@click.option("--gamma", type=float, default=None)
@click.option("--rounds", "num_round", type=int, default=None)
@click.option("--reg-lambda", type=float, default=None)
@click.option("--early-stopping", "early_stopping_rounds", type=int, default=None)
@common_options
def train_cmd(train_path, valid_path, model_path, importance_out, max_depth, min_child_weight,
              eta, gamma, num_round, reg_lambda, early_stopping_rounds,
              config_path, seed, verbose):
    """Fit the boosted-tree ranking model."""
    _setup_logging(verbose)
    cfg = load_config(config_path, seed=seed, max_depth=max_depth,
                      min_child_weight=min_child_weight, eta=eta, gamma=gamma,
                      num_round=num_round, reg_lambda=reg_lambda,
                      early_stopping_rounds=early_stopping_rounds)
    tm = features.FeatureMatrix.load(train_path)
    vm = features.FeatureMatrix.load(valid_path)
    if tm.labels is None or vm.labels is None:
        raise click.UsageError("training and validation matrices must carry labels")
    if tm.schema != vm.schema:
        raise click.UsageError("training and validation matrices disagree on the feature schema")
    model = gbdt_train(
        tm.values, tm.labels, cfg.train_config(),
        feature_names=tm.schema.names, valid=(vm.values, vm.labels),
    )
    model.save(model_path)
    final_train = model.eval_history["train"][-1] if model.eval_history["train"] else float("nan")
    final_valid = model.eval_history["valid"][-1] if model.eval_history.get("valid") else float("nan")
    log.info("trained %d trees (train logloss %.5f, valid %.5f), saved to %s",
             len(model.trees), final_train, final_valid, model_path)
    if importance_out:
        groups = {s.name: s.group for s in tm.schema.specs}
        save_importance(model, importance_out, groups, cfg.provenance("train"))


def _deletes_for(dataset, matrix) -> dict[int, frozenset[int]]:
    return {int(u): dataset.events.del_items(int(u)) for u in set(matrix.user_ids.tolist())}


def _check_active(dataset, predictions) -> None:
    for p in predictions:
        for i in p.items:
            if not dataset.items[i].active_during_test:
                raise RuntimeError(f"inactive item {i} reached a prediction for user {p.user_id}")


@main.command("predict")
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True))
@click.option("--model", "model_path", required=True, type=click.Path(exists=True))
@click.option("--features", "features_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--scores-out", type=click.Path(), default=None)
@common_options
def predict_cmd(data_dir, model_path, features_path, out_path, scores_out,
                config_path, seed, verbose):
    """Score candidates with one model and emit top-30 predictions."""
    _setup_logging(verbose)
    cfg = load_config(config_path, seed=seed)
    dataset = dataio.load_dataset(data_dir)
    matrix = features.FeatureMatrix.load(features_path)
    model = GbdtModel.load(model_path)
    preds = pipeline.score_and_select(model, matrix, _deletes_for(dataset, matrix))
    _check_active(dataset, preds)
    pipeline.save_predictions(preds, out_path, cfg.provenance("predict"), scores_out)
    log.info("wrote predictions for %d users to %s", len(preds), out_path)


@main.command("blend")
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True))
@click.option("--features", "features_path", required=True, type=click.Path(exists=True))
@click.option("--model", "model_paths", required=True, multiple=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--scores-out", type=click.Path(), default=None)
@common_options
def blend_cmd(data_dir, features_path, model_paths, out_path, scores_out,
              config_path, seed, verbose):
    """Average the probabilities of several models, then select top-30."""
    _setup_logging(verbose)
    cfg = load_config(config_path, seed=seed)
    dataset = dataio.load_dataset(data_dir)
    matrix = features.FeatureMatrix.load(features_path)
    models = [GbdtModel.load(p) for p in model_paths]
    preds = pipeline.blend(models, matrix, _deletes_for(dataset, matrix))
    _check_active(dataset, preds)
    pipeline.save_predictions(preds, out_path, cfg.provenance("blend"), scores_out)
    log.info("blended %d models for %d users into %s", len(models), len(preds), out_path)


@main.command("baseline")
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--method", type=click.Choice(["recency", "popular"]), default="recency",
              show_default=True)
@common_options
def baseline_cmd(data_dir, out_path, method, config_path, seed, verbose):
    """Model-free baselines over the same dataset."""
    _setup_logging(verbose)
    cfg = load_config(config_path, seed=seed)
    dataset = dataio.load_dataset(data_dir)
    if method == "recency":
        preds = pipeline.baseline_recency(dataset)
    else:
        preds = pipeline.baseline_popular(dataset)
    _check_active(dataset, preds)
    pipeline.save_predictions(preds, out_path, cfg.provenance(f"baseline-{method}"))
    log.info("wrote %s baseline for %d users to %s", method, len(preds), out_path)


@main.command("evaluate")
@click.option("--predictions", "pred_path", required=True, type=click.Path(exists=True))
@click.option("--ground-truth", "truth_path", required=True, type=click.Path(exists=True))
@click.option("--recall-mode", type=click.Choice(list(evaluation.RECALL_MODES)), default=None)
@click.option("--report-out", type=click.Path(), default=None)
@click.option("--sample-fraction", type=float, default=None)
@click.option("--force", is_flag=True, default=False,
              help="score even when input provenance hashes disagree")
@common_options
def evaluate_cmd(pred_path, truth_path, recall_mode, report_out, sample_fraction, force,
                 config_path, seed, verbose):
    """Score a prediction file against held-out ground truth."""
    _setup_logging(verbose)
    cfg = load_config(config_path, seed=seed, recall_mode=recall_mode)
    prov_pred = dataio.read_provenance(pred_path)
    prov_truth = dataio.read_provenance(truth_path)
    if (
        "config" in prov_pred
        and "config" in prov_truth
        and prov_pred["config"] != prov_truth["config"]
    ):
        msg = (
            f"provenance mismatch: predictions config={prov_pred['config']} "
            f"vs ground truth config={prov_truth['config']}"
        )
        if not force:
            raise click.ClickException(msg + " (pass --force to score anyway)")
        log.warning("%s (forced)", msg)
    predictions = pipeline.load_predictions(pred_path)
    truth = dataio.load_ground_truth(truth_path)
    report = evaluation.total_score(
        predictions, truth, cfg.recall_mode,
        sample_fraction=sample_fraction, seed=cfg.seed,
    )
    if report_out:
        report.save(report_out, cfg.provenance("evaluate"))
    click.echo(
        f"total_score={report.total:.4f} users={len(report.users)} recall_mode={report.recall_mode}"
    )


if __name__ == "__main__":
    main()
