"""End-to-end CLI behaviour: chaining, determinism, provenance guards."""

import pytest
from click.testing import CliRunner

from jobrec.cli import main


def run(runner, *args):
    result = runner.invoke(main, [str(a) for a in args], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """One small synthetic pipeline run shared across this module."""
    root = tmp_path_factory.mktemp("chain")
    runner = CliRunner()
    data = root / "data"
    split = root / "split"
    run(runner, "synth", "--out", data, "--users", 60, "--items", 120,
        "--weeks", 5, "--seed", 7)
    run(runner, "split", "--data", data, "--out", split, "--seed", 7)
    run(runner, "candidates", "--data", split, "--out", split / "cands.tsv",
        "--seed", 7)
    run(runner, "features", "--data", split, "--candidates", split / "cands.tsv",
        "--ground-truth", split / "ground_truth.tsv", "--mode", "paper",
        "--out", split / "train.npz", "--valid-out", split / "valid.npz", "--seed", 7)
    run(runner, "train", "--train-matrix", split / "train.npz",
        "--valid-matrix", split / "valid.npz", "--out", split / "model.json",
        "--rounds", 12, "--early-stopping", 5, "--seed", 7,
        "--importance-out", split / "importance.tsv")
    run(runner, "features", "--data", split, "--candidates", split / "cands.tsv",
        "--out", split / "full.npz", "--seed", 7)
    run(runner, "predict", "--data", split, "--model", split / "model.json",
        "--features", split / "full.npz", "--out", split / "preds.tsv", "--seed", 7)
    run(runner, "baseline", "--data", split, "--out", split / "base.tsv",
        "--method", "recency", "--seed", 7)
    return runner, root, data, split


class TestFullChain:
    def test_predictions_scoreable(self, chain):
        runner, root, data, split = chain
        result = run(runner, "evaluate", "--predictions", split / "preds.tsv",
                     "--ground-truth", split / "ground_truth.tsv", "--seed", 7)
        assert "total_score=" in result.output
        total = float(result.output.split("total_score=")[1].split()[0])
        assert total >= 0.0

    def test_baseline_scoreable(self, chain):
        runner, root, data, split = chain
        result = run(runner, "evaluate", "--predictions", split / "base.tsv",
                     "--ground-truth", split / "ground_truth.tsv", "--seed", 7)
        assert "total_score=" in result.output

    def test_blend_of_one_matches_predict(self, chain):
        runner, root, data, split = chain
        run(runner, "blend", "--data", split, "--features", split / "full.npz",
            "--model", split / "model.json", "--out", split / "blend1.tsv", "--seed", 7)
        pred_lines = [
            l for l in (split / "preds.tsv").read_text().splitlines() if not l.startswith("#")
        ]
        blend_lines = [
            l for l in (split / "blend1.tsv").read_text().splitlines() if not l.startswith("#")
        ]
        assert pred_lines == blend_lines

    def test_importance_written(self, chain):
        _, _, _, split = chain
        lines = [
            l for l in (split / "importance.tsv").read_text().splitlines()
            if not l.startswith("#")
        ]
        assert lines[0].startswith("feature")
        assert len(lines) > 1


class TestDeterminism:
    def test_synth_rerun_byte_identical(self, tmp_path):
        runner = CliRunner()
        for name in ("one", "two"):
            run(runner, "synth", "--out", tmp_path / name, "--users", 30,
                "--items", 60, "--weeks", 4, "--seed", 3)
        for f in sorted((tmp_path / "one").iterdir()):
            assert f.read_bytes() == (tmp_path / "two" / f.name).read_bytes(), f.name


class TestProvenance:
    def test_mixed_provenance_refused_then_forced(self, chain, tmp_path):
        runner, root, data, split = chain
        other = tmp_path / "other"
        # same data, different semantic config -> different config hash
        run(runner, "split", "--data", data, "--out", other, "--seed", 8)
        bad = runner.invoke(main, [
            "evaluate", "--predictions", str(split / "preds.tsv"),
            "--ground-truth", str(other / "ground_truth.tsv"),
        ])
        assert bad.exit_code != 0
        assert "provenance mismatch" in bad.output
        forced = run(runner, "evaluate", "--predictions", split / "preds.tsv",
                     "--ground-truth", other / "ground_truth.tsv", "--force")
        assert "total_score=" in forced.output


class TestConfigPlumbing:
    def test_config_file_applies_and_flag_overrides(self, tmp_path):
        runner = CliRunner()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=11\n")
        run(runner, "synth", "--out", tmp_path / "from_file", "--users", 30,
            "--items", 60, "--weeks", 4, "--config", cfg)
        run(runner, "synth", "--out", tmp_path / "plain_seed", "--users", 30,
            "--items", 60, "--weeks", 4, "--seed", 11)
        run(runner, "synth", "--out", tmp_path / "overridden", "--users", 30,
            "--items", 60, "--weeks", 4, "--config", cfg, "--seed", 12)
        a = (tmp_path / "from_file" / "interactions.tsv").read_text()
        b = (tmp_path / "plain_seed" / "interactions.tsv").read_text()
        c = (tmp_path / "overridden" / "interactions.tsv").read_text()
        strip = lambda t: [l for l in t.splitlines() if not l.startswith("#")]
        assert strip(a) == strip(b)
        assert strip(a) != strip(c)


class TestFailures:
    def test_missing_input_nonzero_exit(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, [
            "candidates", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "c.tsv"),
        ])
        assert result.exit_code != 0

    def test_negative_neighbors_rejected(self, tmp_path):
        runner = CliRunner()
        run(runner, "synth", "--out", tmp_path / "d", "--users", 30, "--items", 60,
            "--weeks", 4, "--seed", 3)
        out = tmp_path / "c.tsv"
        result = runner.invoke(main, [
            "candidates", "--data", str(tmp_path / "d"), "--out", str(out), "--neighbors", "-1",
        ])
        assert result.exit_code != 0
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == "neighbor_count must be >= 0, got -1"
        assert not out.exists()

    @pytest.mark.parametrize("column, missing, table", [(0, 77, "user"), (1, 999, "item")],
                             ids=["user", "item"])
    def test_candidates_naming_a_missing_id_rejected(self, chain, tmp_path, column, missing,
                                                     table):
        """Synth users are 1..60 and synth items start above 100000."""
        runner, _, _, split = chain
        lines = (split / "cands.tsv").read_text().splitlines()
        cells = lines[-1].split("\t")
        cells[column] = str(missing)
        bad = tmp_path / "cands.tsv"
        bad.write_text("\n".join([*lines, "\t".join(cells)]) + "\n")
        out = tmp_path / "full.npz"
        result = runner.invoke(main, [
            "features", "--data", str(split), "--candidates", str(bad), "--out", str(out),
        ])
        assert result.exit_code != 0
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == f"{table} {missing} is not in the {table} table"
        assert not out.exists()

    def test_invalid_synth_sizes_nonzero_exit(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(main, [
            "synth", "--out", str(tmp_path / "d"), "--users", "3", "--items", "60",
            "--weeks", "4",
        ])
        assert result.exit_code != 0
