"""The benchmark's three workloads: input sizes and the pipeline each runs.

Why each workload exists is recorded in BENCHMARK.json. Sizes are chosen
so that one fresh-process run takes a few seconds on a 2-core machine,
which leaves room for several runs (and a median) inside one measured
interval.
"""

from __future__ import annotations

# Criterion-6 training configuration (tests/test_acceptance.py).
C6_TRAIN = dict(max_depth=5, min_child_weight=2.0, eta=0.05, gamma=0.5,
                num_round=500, reg_lambda=1.0, early_stopping_rounds=30)

WORKLOADS = {
    "c6-blend": {
        "kind": "inprocess",
        "synth": dict(users=200, items=300, weeks=12),
        "cap": 60,
        "neighbors": 60,
        "models": 6,
        # With 500 rounds early stopping ends each model after a number of
        # trees that varies by tens of percent from seed to seed; 20 rounds
        # under a patience of 30 grow exactly 20 trees per model.
        "train": dict(C6_TRAIN, num_round=20),
    },
    "wide-score": {
        "kind": "inprocess",
        "synth": dict(users=140, items=210, weeks=8, target_fraction=0.9,
                      events_per_week=4.0, impressions_per_week=14.0),
        "cap": 60,
        "neighbors": 60,
        "models": 1,
        "train": dict(C6_TRAIN, num_round=8, early_stopping_rounds=None),
    },
    "cli-files": {
        "kind": "cli",
        "synth": dict(users=160, items=240, weeks=8),
        "train_flags": ["--max-depth", "5", "--min-child-weight", "2", "--eta", "0.05",
                        "--gamma", "0.5", "--rounds", "20", "--early-stopping", "30"],
    },
}
