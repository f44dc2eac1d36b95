import io
import json
import os

import pytest

from questkg import cli
from questkg.cli import ConfigError, RunConfig, main, validate_config


def run_cli(argv, env=None, monkeypatch=None):
    out = io.StringIO()
    if env and monkeypatch:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    code = main(argv, out=out)
    return code, out.getvalue()


FAST_FLAGS = ["--budget", "6000", "--batch-size", "4", "--horizon", "25",
              "--patience", "200", "--learning-rate", "0.01",
              "--entropy-coef", "0.05"]


def test_run_config_round_trips_through_json():
    config = RunConfig(game="chainworld", strategy="go", seeds=(3, 4),
                       budget=123, alpha=0.5)
    clone = RunConfig.from_json(config.to_json())
    assert clone == config


def test_run_config_rejects_unknown_field():
    with pytest.raises(ConfigError):
        RunConfig.from_json(json.dumps({"strategy": "mc+im", "turbo": True}))


def test_run_config_with_default_alpha_round_trips_through_json():
    config = RunConfig(strategy="vanilla")
    assert RunConfig.from_json(config.to_json()) == config


def test_validate_config_rules():
    for strategy, alpha in (("vanilla", 0.0), ("mc", 0.0), ("mc+im", 1.0),
                            ("go", 1.0)):
        assert validate_config(RunConfig(strategy=strategy)).alpha == alpha
    validate_config(RunConfig(strategy="mc+im", alpha=1.0))
    validate_config(RunConfig(strategy="vanilla", alpha=0.0))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(strategy="vanilla", alpha=1.0))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(strategy="mc", alpha=1.0))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(strategy="mc+im", alpha=0.0))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(strategy="dreamer"))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(backend="bert"))
    with pytest.raises(ConfigError):
        validate_config(RunConfig(seeds=()))


def test_analyze_reports_quest_structure():
    code, text = run_cli(["analyze", "miniz"])
    assert code == 0
    assert "max score 50" in text
    assert "behind-house" in text
    assert "cellar" in text
    assert "walkthrough: 15 actions to score 50" in text


def test_analyze_missing_game_fails_with_run_error():
    code, _ = run_cli(["analyze", "/no/such/game.game"])
    assert code == 1


def test_analyze_game_without_dag_fails(tmp_path):
    text = """\
questgame 1
[meta]
name bare
start a
max-score 0
[room a]
name A
desc A.
[templates]
wait
"""
    path = tmp_path / "bare.game"
    path.write_text(text)
    code, _ = run_cli(["analyze", str(path)])
    assert code == 1


def test_config_error_exit_code():
    code, _ = run_cli(["run", "--strategy", "vanilla", "--alpha", "2.0"])
    assert code == 2
    code, _ = run_cli(["run", "--strategy", "mc", "--alpha", "1"])
    assert code == 2
    code, _ = run_cli(["run", "--strategy", "warp"])
    assert code == 2


@pytest.mark.parametrize("strategy", cli.STRATEGIES)
def test_every_strategy_runs_with_default_flags(strategy, tmp_path,
                                                 monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ROOT_VAR, str(tmp_path))
    code, _ = run_cli(["run", "--strategy", strategy, "--budget", "50",
                       "--seeds", "0"])
    assert code == 0
    root = tmp_path / f"{strategy.replace('+', '-')}-miniz"
    echoed = RunConfig.from_json((root / "config.json").read_text())
    assert echoed.alpha == cli.DEFAULT_ALPHA[strategy]
    assert (root / "seed0" / "steps.log").exists()


def test_run_writes_artifacts_and_summary(tmp_path, monkeypatch):
    outdir = tmp_path / "exp"
    code, text = run_cli(
        ["run", "--game", "chainworld", "--strategy", "mc+im",
         "--alpha", "2.0", "--seeds", "0,1", "--outdir", str(outdir)]
        + FAST_FLAGS)
    assert code == 0
    assert "median" in text
    assert (outdir / "config.json").exists()
    assert (outdir / "summary.txt").exists()
    for seed in (0, 1):
        seed_dir = outdir / f"seed{seed}"
        assert (seed_dir / "steps.log").exists()
        assert (seed_dir / "episodes.csv").exists()
        assert (seed_dir / "curve.csv").exists()
        assert (seed_dir / "chain.json").exists()
    header = (outdir / "seed0" / "episodes.csv").read_text().splitlines()[0]
    assert header == "episode,score,max_score_so_far"


def test_run_artifacts_are_byte_reproducible(tmp_path):
    outs = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        code, _ = run_cli(["run", "--game", "chainworld", "--strategy",
                           "mc+im", "--alpha", "2.0", "--seeds", "0",
                           "--outdir", str(outdir)] + FAST_FLAGS)
        assert code == 0
        outs.append(outdir)
    for rel in ("summary.txt", "seed0/steps.log", "seed0/episodes.csv",
                "seed0/curve.csv", "seed0/chain.json"):
        assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()


def test_summary_statistics_match_episode_csv(tmp_path):
    outdir = tmp_path / "exp"
    run_cli(["run", "--game", "chainworld", "--strategy", "mc+im",
             "--alpha", "2.0", "--seeds", "0,1,2", "--outdir", str(outdir)]
            + FAST_FLAGS)
    finals = []
    for seed in (0, 1, 2):
        rows = (outdir / f"seed{seed}" / "episodes.csv").read_text()
        finals.append(int(rows.splitlines()[-1].split(",")[2]))
    summary = (outdir / "summary.txt").read_text()
    assert f"finals {finals}" in summary
    assert f"max {max(finals)}" in summary


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ROOT_VAR, str(tmp_path))
    code, _ = run_cli(["run", "--game", "chainworld", "--strategy", "go",
                       "--seeds", "0"] + FAST_FLAGS)
    assert code == 0
    root = tmp_path / "go-chainworld"
    assert (root / "summary.txt").exists()
    assert (root / "seed0" / "archive.csv").exists()


def test_config_file_with_flag_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(RunConfig(
        game="chainworld", strategy="mc+im", seeds=(0,), budget=6000,
        batch_size=4, horizon=25, patience=200, alpha=2.0,
        learning_rate=0.01, entropy_coef=0.05,
        outdir=str(tmp_path / "from-file")).to_json())
    code, _ = run_cli(["run", "--config", str(cfg_path),
                       "--outdir", str(tmp_path / "override")])
    assert code == 0
    assert (tmp_path / "override" / "summary.txt").exists()
    assert not (tmp_path / "from-file").exists()
    echoed = RunConfig.from_json(
        (tmp_path / "override" / "config.json").read_text())
    assert echoed.budget == 6000
    assert echoed.outdir == str(tmp_path / "override")


def test_emit_dataset_and_reparse(tmp_path):
    from questkg.extraction import parse_qa_dataset
    out = tmp_path / "data.qa"
    code, text = run_cli(["emit-dataset", "miniz", "--budget", "100",
                          "--seed", "0", "--out", str(out)])
    assert code == 0
    content = out.read_text()
    parsed = parse_qa_dataset(content)
    assert len(parsed) == 100
    qa_lines = sum(len(qa) for _, qa in parsed)
    assert qa_lines >= 300


def test_emit_dataset_budget_zero_is_empty(tmp_path):
    out = tmp_path / "empty.qa"
    code, _ = run_cli(["emit-dataset", "miniz", "--budget", "0",
                       "--out", str(out)])
    assert code == 0
    assert out.read_text() == ""


def test_replay_chain_round_trip(tmp_path):
    outdir = tmp_path / "exp"
    run_cli(["run", "--game", "chainworld", "--strategy", "mc+im",
             "--alpha", "2.0", "--seeds", "0", "--outdir", str(outdir)]
            + FAST_FLAGS)
    chain_path = outdir / "seed0" / "chain.json"
    code, text = run_cli(["replay-chain", str(chain_path),
                          "--game", "chainworld"])
    assert code == 0
    assert "chain ok" in text
    assert "score 30" in text


def test_replay_chain_detects_tampering(tmp_path):
    outdir = tmp_path / "exp"
    run_cli(["run", "--game", "chainworld", "--strategy", "mc+im",
             "--alpha", "2.0", "--seeds", "0", "--outdir", str(outdir)]
            + FAST_FLAGS)
    chain_path = outdir / "seed0" / "chain.json"
    doc = json.loads(chain_path.read_text())
    doc["j_max"] += 1
    chain_path.write_text(json.dumps(doc))
    code, _ = run_cli(["replay-chain", str(chain_path),
                       "--game", "chainworld"])
    assert code == 1
