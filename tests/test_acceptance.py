"""Acceptance suite: one test per release criterion.

Each test records a verdict that the terminal summary prints as a single
PASS/FAIL line. Oracles are the same naive reimplementations the unit
suites compare against, so both layers agree on what "correct" means.
"""

import time

import numpy as np
from click.testing import CliRunner

from jobrec import features, pipeline, synth
from jobrec.candidates import CandidateGenerator
from jobrec.cli import main as cli_main
from jobrec.evaluation import score_user, total_score
from jobrec.gbdt import TrainConfig, grad_hess, logloss, sigmoid, train
from jobrec.split import build_ground_truth, temporal_split

from conftest import record_acceptance
from oracles import merged_oracle, total_score_oracle
from test_candidates import random_dataset
from test_gbdt import fd_grad_hess
from test_similarity import brute_jaccard_topk, random_forward, set_index

CRITERIA = {
    1: "metric oracle equivalence",
    2: "similarity oracle equivalence",
    3: "candidate generator equivalence",
    4: "gbdt numerical checks",
    5: "pipeline determinism",
    6: "end-to-end lift",
    7: "protocol fidelity",
}
for _num, _name in CRITERIA.items():
    record_acceptance(_num, _name, False, "did not run")


def conclude(num, ok, detail):
    record_acceptance(num, CRITERIA[num], ok, detail)
    assert ok, f"criterion {num} ({CRITERIA[num]}): {detail}"


class TestCriterion1:
    def test_metric_matches_bruteforce_oracle(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(1000):
            preds, truth = {}, {}
            for u in range(1, int(rng.integers(1, 10)) + 1):
                pool = rng.choice(500, size=80, replace=False)
                preds[u] = [int(i) for i in pool[: int(rng.integers(0, 31))]]
                b = int(rng.integers(1, 41))
                truth[u] = {int(i) for i in rng.choice(pool, size=b, replace=False)}
            for mode in ("corrected", "literal"):
                got = total_score(preds, truth, mode).total
                want = total_score_oracle(preds, truth, mode)
                worst = max(worst, abs(got - want))

        ranked_hit = [1] + list(range(100, 129))
        all30 = list(range(30))
        hands_ok = (
            round(score_user(ranked_hit, {1}, "corrected")[-1], 4) == 57.1667
            and score_user(all30, set(all30), "corrected")[-1] == 100
            and score_user(all30, set(all30), "literal")[-1] == 680
        )
        elapsed = time.perf_counter() - t0
        conclude(
            1,
            worst <= 1e-9 and hands_ok and elapsed < 5.0,
            f"1000 fixtures, max |diff| {worst:.1e}, hand values "
            f"{'ok' if hands_ok else 'WRONG'}, {elapsed:.1f}s",
        )


class TestCriterion2:
    def test_topk_matches_bruteforce(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2002)
        queries = 0
        mismatches = 0
        for trial in range(200):
            fwd = random_forward(rng, trial)
            idx = set_index(fwd)
            for qid in fwd:
                for k in (1, 5, 60):
                    queries += 1
                    ids, scores = idx.top_k_jaccard(qid, k)
                    if (ids.tolist(), scores.tolist()) != brute_jaccard_topk(fwd, qid, k):
                        mismatches += 1
        elapsed = time.perf_counter() - t0
        conclude(
            2,
            mismatches == 0 and elapsed < 10.0,
            f"200 fixtures, {queries} top-k queries, {mismatches} mismatches, {elapsed:.1f}s",
        )


class TestCriterion3:
    def test_generators_match_naive_and_respect_caps(self):
        rng = np.random.default_rng(3003)
        mismatched_users = 0
        users_compared = 0
        for n_users, n_items in ((100, 100), (50, 80), (30, 60), (20, 100)):
            ds = random_dataset(
                rng, n_users=n_users, n_items=n_items,
                n_events=4 * n_users, n_imps=4 * n_users,
            )
            lists = CandidateGenerator(ds, 60, 60).generate_all(sorted(ds.users))
            for u in sorted(ds.users):
                users_compared += 1
                if lists[u].ranks != merged_oracle(ds, u, 60, 60):
                    mismatched_users += 1

        lists_checked = 0
        violations = 0
        while lists_checked < 10000:
            ds = random_dataset(rng, n_users=40, n_items=70, n_events=300, n_imps=300)
            active = {i for i, it in ds.items.items() if it.active_during_test}
            for cl in CandidateGenerator(ds, 60, 60).generate_all(sorted(ds.users)).values():
                per_slot = {}
                for item, slots in cl.ranks.items():
                    if item not in active:
                        violations += 1
                    for slot in slots:
                        per_slot[slot] = per_slot.get(slot, 0) + 1
                lists_checked += len(per_slot)
                violations += sum(1 for c in per_slot.values() if c > 60)
        conclude(
            3,
            mismatched_users == 0 and violations == 0,
            f"{users_compared} users vs naive merge, {lists_checked} slot lists "
            f"swept, {violations} cap/active violations",
        )


class TestCriterion4:
    def test_gbdt_numerics(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(4004)

        margins = rng.uniform(-10, 10, size=1000)
        labels = rng.integers(0, 2, size=1000).astype(float)
        g, h = grad_hess(margins, labels)
        worst_rel = 0.0
        for j in range(1000):
            g_fd, h_fd = fd_grad_hess(margins[j], labels[j])
            worst_rel = max(worst_rel, abs(g[j] - g_fd) / max(1.0, abs(g_fd)))
            worst_rel = max(worst_rel, abs(h[j] - h_fd) / max(1.0, abs(h_fd)))
        fd_ok = worst_rel < 1e-6

        monotone_ok = True
        for _ in range(20):
            X = rng.normal(size=(500, 20))
            w = rng.normal(size=20)
            y = (X @ w + rng.normal(scale=0.5, size=500) > 0).astype(float)
            cfg = TrainConfig(num_round=15, eta=0.1, gamma=0.0, min_child_weight=1.0)
            model = train(X, y, cfg)
            seq = [logloss(np.full(500, model.base_margin), y)] + model.eval_history["train"]
            if any(b > a + 1e-12 for a, b in zip(seq[:-1], seq[1:])):
                monotone_ok = False

        leaf_cfg = TrainConfig(num_round=1, min_child_weight=10.0, base_margin=0.0, reg_lambda=1.0)
        leaf_model = train(np.arange(8, dtype=float).reshape(4, 2), np.ones(4), leaf_cfg)
        p = leaf_model.predict_proba(np.zeros((1, 2)))[0]
        leaf_ok = abs(p - sigmoid(0.1)) < 1e-6

        xr = np.random.default_rng(0)
        X = xr.uniform(0, 1, size=(400, 2))
        y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(float)
        xor_model = train(X, y, TrainConfig(num_round=50, max_depth=2, min_child_weight=1.0, gamma=0.0))
        xor_loss = xor_model.eval_history["train"][-1]
        xor_ok = xor_loss < 0.1 and len(xor_model.trees) <= 50

        elapsed = time.perf_counter() - t0
        conclude(
            4,
            fd_ok and monotone_ok and leaf_ok and xor_ok and elapsed < 60.0,
            f"fd rel err {worst_rel:.1e}, monotone {'ok' if monotone_ok else 'BROKEN'}, "
            f"leaf p {p:.6f}, xor loss {xor_loss:.3f}, {elapsed:.1f}s",
        )


def _cli_chain(root, seed):
    runner = CliRunner()
    data, sp = root / "data", root / "split"

    def run(*args):
        res = runner.invoke(cli_main, [str(a) for a in args], catch_exceptions=False)
        assert res.exit_code == 0, res.output
        return res

    run("synth", "--out", data, "--users", 60, "--items", 120, "--weeks", 5, "--seed", seed)
    run("split", "--data", data, "--out", sp, "--seed", seed)
    run("candidates", "--data", sp, "--out", sp / "cands.tsv", "--seed", seed)
    run("features", "--data", sp, "--candidates", sp / "cands.tsv",
        "--ground-truth", sp / "ground_truth.tsv", "--mode", "paper",
        "--out", sp / "train.npz", "--valid-out", sp / "valid.npz", "--seed", seed)
    run("train", "--train-matrix", sp / "train.npz", "--valid-matrix", sp / "valid.npz",
        "--out", sp / "model.json", "--rounds", 12, "--early-stopping", 5, "--seed", seed)
    run("features", "--data", sp, "--candidates", sp / "cands.tsv",
        "--out", sp / "full.npz", "--seed", seed)
    run("predict", "--data", sp, "--model", sp / "model.json",
        "--features", sp / "full.npz", "--out", sp / "preds.tsv", "--seed", seed)
    result = run("evaluate", "--predictions", sp / "preds.tsv",
                 "--ground-truth", sp / "ground_truth.tsv", "--seed", seed)
    return (sp / "preds.tsv").read_bytes(), result.output


class TestCriterion5:
    def test_two_runs_byte_identical(self, tmp_path):
        preds_a, score_a = _cli_chain(tmp_path / "a", 12345)
        preds_b, score_b = _cli_chain(tmp_path / "b", 12345)
        conclude(
            5,
            preds_a == preds_b and score_a == score_b,
            f"predictions {'identical' if preds_a == preds_b else 'DIFFER'}, "
            f"{score_a.strip()}",
        )


class TestCriterion7:
    def test_training_file_and_prediction_hygiene(self):
        ds = synth.generate(synth.SynthConfig(users=300, items=400, weeks=6, seed=77))
        train_ds, _ = temporal_split(ds, 1)
        inner_train, inner_holdout = temporal_split(train_ds, 1)
        inner_truth = build_ground_truth(inner_holdout, ds.target_users)
        lists = CandidateGenerator(inner_train, 60, 60).generate_all(sorted(inner_truth))
        tf = pipeline.build_training_file(lists, inner_truth, "paper", 5)

        eligible = [u for u in sorted(inner_truth) if u in lists and len(lists[u]) > 0]
        split_ok = (
            len(tf.train_users) == (len(eligible) + 1) // 2
            and len(tf.valid_users) == len(eligible) - len(tf.train_users)
            and not set(tf.train_users) & set(tf.valid_users)
            and set(tf.train_users) | set(tf.valid_users) == set(eligible)
        )
        rows_ok = True
        for users, rows in ((tf.train_users, tf.train_rows), (tf.valid_users, tf.valid_rows)):
            by_user = {u: {"pos": set(), "neg": set()} for u in users}
            for u, i, label in rows:
                by_user[u]["pos" if label else "neg"].add(i)
            for u in users:
                cands = set(lists[u].items())
                want_pos = cands & inner_truth[u]
                got = by_user[u]
                if got["pos"] != want_pos or len(got["neg"]) > 5:
                    rows_ok = False
                if got["neg"] & inner_truth[u] or not got["neg"] <= cands:
                    rows_ok = False

        tm = features.build_matrix(
            inner_train, lists, rows=[(u, i) for u, i, _ in tf.train_rows],
            ground_truth=inner_truth,
        )
        vm = features.build_matrix(
            inner_train, lists, rows=[(u, i) for u, i, _ in tf.valid_rows],
            ground_truth=inner_truth,
        )
        cfg = TrainConfig(num_round=30, eta=0.1, gamma=0.5, min_child_weight=2.0,
                          early_stopping_rounds=5)
        model = train(tm.values, tm.labels, cfg, feature_names=tm.schema.names,
                      valid=(vm.values, vm.labels))

        outer_lists = CandidateGenerator(train_ds, 60, 60).generate_all(ds.target_users)
        matrix = features.build_matrix(train_ds, outer_lists)
        deletes = {int(u): train_ds.events.del_items(int(u))
                   for u in set(matrix.user_ids.tolist())}
        preds = pipeline.score_and_select(model, matrix, deletes)
        clean_ok = all(
            ds.items[i].active_during_test and i not in deletes[p.user_id]
            for p in preds for i in p.items
        )

        blended = pipeline.blend([model], matrix, deletes)
        blend_ok = all(
            a.user_id == b.user_id and a.items == b.items and a.scores == b.scores
            for a, b in zip(preds, blended)
        ) and len(preds) == len(blended)

        conclude(
            7,
            split_ok and rows_ok and clean_ok and blend_ok,
            f"{len(eligible)} eligible users split "
            f"{len(tf.train_users)}/{len(tf.valid_users)}, rows "
            f"{'ok' if rows_ok else 'BAD'}, predictions "
            f"{'clean' if clean_ok else 'DIRTY'}, blend-of-one "
            f"{'bit-exact' if blend_ok else 'DIFFERS'}",
        )


class TestCriterion6:
    def _run_seed(self, seed):
        ds = synth.generate(synth.SynthConfig(users=2000, items=3000, weeks=12, seed=seed))
        train_ds, holdout = temporal_split(ds, 1)
        truth = build_ground_truth(holdout, ds.target_users)
        inner_train, inner_holdout = temporal_split(train_ds, 1)
        inner_truth = build_ground_truth(inner_holdout, ds.target_users)

        inner_lists = CandidateGenerator(inner_train, 60, 60).generate_all(sorted(inner_truth))
        cfg = TrainConfig(max_depth=5, min_child_weight=2.0, eta=0.05, gamma=0.5,
                          num_round=500, reg_lambda=1.0, early_stopping_rounds=30)
        models = []
        for k in range(6):
            tf = pipeline.build_training_file(inner_lists, inner_truth, "paper",
                                              seed * 100 + k)
            tm = features.build_matrix(
                inner_train, inner_lists, rows=[(u, i) for u, i, _ in tf.train_rows],
                ground_truth=inner_truth,
            )
            vm = features.build_matrix(
                inner_train, inner_lists, rows=[(u, i) for u, i, _ in tf.valid_rows],
                ground_truth=inner_truth,
            )
            models.append(train(tm.values, tm.labels, cfg,
                                feature_names=tm.schema.names,
                                valid=(vm.values, vm.labels)))

        outer_lists = CandidateGenerator(train_ds, 60, 60).generate_all(ds.target_users)
        matrix = features.build_matrix(train_ds, outer_lists)
        deletes = {int(u): train_ds.events.del_items(int(u))
                   for u in set(matrix.user_ids.tolist())}
        preds = pipeline.blend(models, matrix, deletes)

        def score(prediction_list):
            return total_score(
                {p.user_id: p.items for p in prediction_list}, truth, "corrected"
            ).total

        return (score(preds), score(pipeline.baseline_recency(train_ds)),
                score(pipeline.baseline_popular(train_ds)))

    def test_lift_over_both_baselines(self):
        t0 = time.perf_counter()
        lifts = []
        ok = True
        for seed in (0, 1, 2):
            model_score, recency, popular = self._run_seed(seed)
            lift = model_score / max(recency, popular) - 1.0
            lifts.append(lift)
            if model_score < 1.2 * recency or model_score < 1.2 * popular:
                ok = False
        elapsed = time.perf_counter() - t0
        conclude(
            6,
            ok and elapsed < 600.0,
            "lift vs best baseline " + ", ".join(f"{100 * l:.1f}%" for l in lifts)
            + f" (3 seeds, need >= 20%), {elapsed:.0f}s",
        )
