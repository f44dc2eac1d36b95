import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from questkg import cli, exploration, extraction
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


@pytest.mark.parametrize("field", ["turbo", "cell_step"])
def test_run_config_rejects_unknown_field(field):
    # cell_step was a field until go's explorers took their episode length
    # from horizon
    with pytest.raises(ConfigError, match="unknown config field"):
        RunConfig.from_json(json.dumps({"strategy": "go", field: 32}))


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


def test_analyze_missing_game_fails_with_run_error(capsys):
    for argv in (["analyze", "/no/such/game.game"],
                 ["run", "--game", "nowhere"]):
        code, _ = run_cli(argv)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: no game file or bundled game named {argv[-1]!r}\n")


def test_analyze_game_without_dag_fails(tmp_path):
    text = """\
questgame 1
[meta]
name bare
start hall
max-score 0
[room hall]
name Hall
desc A hall.
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


@pytest.mark.parametrize("flags", [
    ["--strategy", "vanilla", "--alpha", "-1"],
    ["--strategy", "go", "--alpha", "-1"],
    ["--eps", "-1"],
])
def test_negative_alpha_or_eps_is_a_config_error(flags, tmp_path):
    outdir = tmp_path / "out"
    code, _ = run_cli(["run", *flags, "--budget", "50", "--seeds", "0",
                       "--outdir", str(outdir)])
    assert code == 2
    assert not outdir.exists()


@pytest.mark.parametrize("seeds", ["-1", "0,-2"])
def test_a_negative_seed_is_a_config_error(seeds, tmp_path, capsys):
    # -1 used to write config.json, then exit 1 with numpy's "expected
    # non-negative integer"
    outdir = tmp_path / "out"
    code, _ = run_cli(["run", "--strategy", "vanilla", "--seeds", seeds,
                       "--budget", "50", "--outdir", str(outdir)])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "config error: seed must be non-negative, got -")
    assert not outdir.exists()
    with pytest.raises(ValueError, match="seed must be non-negative"):
        exploration.ExplorationConfig(seed=-1)


def test_emit_dataset_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "data.qa"
    code, _ = run_cli(["emit-dataset", "miniz", "--seed", "-1",
                       "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == \
        "config error: seed must be non-negative, got -1\n"
    assert not out.exists()


def test_a_seed_list_that_is_not_integers_names_the_seeds(tmp_path,
                                                          capsys):
    # it used to report "invalid literal for int() with base 10: ''"
    outdir = tmp_path / "out"
    code, _ = run_cli(["run", "--seeds", "0,,1", "--outdir", str(outdir)])
    assert code == 2
    assert capsys.readouterr().err == "config error: seeds must be " \
        "comma-separated integers, got '0,,1'\n"
    assert not outdir.exists()


@pytest.mark.parametrize("doc, kind", [([1, 2], "list"), ("x", "str"),
                                       (3, "int"), (None, "NoneType")])
def test_a_config_file_that_is_not_an_object_is_rejected(doc, kind,
                                                         tmp_path, capsys):
    # [1, 2] used to report "unknown config field 1", and "x" "unknown
    # config field 'x'"
    message = f"config file must hold a JSON object, got {kind}"
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_json(json.dumps(doc))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    code, _ = run_cli(["run", "--config", str(cfg_path)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("flags", [
    ["--strategy", "vanilla", "--batch-size", "0"],
    ["--strategy", "mc+im", "--batch-size", "0"],
    ["--strategy", "go", "--horizon", "0"],
    ["--buffer-size", "0"],
    ["--horizon", "0"],
    ["--horizon", "-3"],
])
def test_sizes_below_one_are_config_errors(flags):
    # through the parser rather than main: run with a batch or horizon of
    # 0, some strategies never return
    args = cli.build_parser().parse_args(["run", *flags, "--budget", "200"])
    with pytest.raises(ConfigError, match="at least 1"):
        cli._build_run_config(args)
    validate_config(RunConfig(batch_size=1, horizon=1, buffer_size=1))


@pytest.mark.parametrize("flags", [
    ["--strategy", "mc+im", "--backend", "noisy", "--p-drop", "1.5"],
    ["--strategy", "vanilla", "--p-swap", "-0.5"],
    ["--strategy", "go", "--p-drop", "nan"],
    ["--strategy", "mc+im", "--alpha", "nan"],
    ["--strategy", "mc+im", "--alpha", "inf"],
    ["--eps", "nan"],
    ["--strategy", "vanilla", "--learning-rate", "inf"],
    ["--gamma", "nan"],
    ["--entropy-coef=-inf"],
])
def test_non_finite_or_out_of_range_floats_are_config_errors(flags):
    # each of these used to fail mid-run, after config.json was written,
    # or to run and record the bad value
    args = cli.build_parser().parse_args(["run", *flags, "--budget", "200"])
    with pytest.raises(ConfigError, match="finite|in \\[0, 1\\]"):
        cli._build_run_config(args)
    validate_config(RunConfig(p_drop=0.0, p_swap=1.0))
    validate_config(RunConfig(backend="noisy", p_drop=1.0, p_swap=0.0))


@pytest.mark.parametrize("overrides", [
    dict(strategy="vanilla", gamma=5.0),
    dict(gamma=-0.5),
    dict(strategy="vanilla", learning_rate=-1.0),
    dict(strategy="go", entropy_coef=-5.0),
], ids=["gamma-above-1", "gamma-below-0", "negative-lr", "negative-entropy"])
def test_out_of_range_learner_settings_are_config_errors(overrides,
                                                          tmp_path):
    # each of these used to train and exit 0; a negative learning rate
    # climbs the loss
    with pytest.raises(ConfigError, match="in \\[0, 1\\]|non-negative"):
        validate_config(RunConfig(**overrides))
    outdir = tmp_path / "out"
    flags = [f"--{name.replace('_', '-')}={value}"
             for name, value in overrides.items()]
    code, _ = run_cli(["run", *flags, "--budget", "50", "--seeds", "0",
                       "--outdir", str(outdir)])
    assert code == 2
    assert not outdir.exists()
    validate_config(RunConfig(gamma=0.0, learning_rate=0.0, entropy_coef=0.0))
    validate_config(RunConfig(gamma=1.0))


@pytest.mark.parametrize("field, value", [
    ("batch_size", 2.5),
    ("patience", -1),
    ("patience", 0),
    ("budget", 150.5),
    ("horizon", True),
    ("seeds", [True]),
    ("seeds", [0, 1.5]),
    ("patience", None),
])
def test_non_integer_settings_are_config_errors(field, value, tmp_path):
    # batch_size 2.5 used to fail mid-run after writing
    # config.json, the others trained and exited 0, and seeds [true] ran
    # as seed 1
    outdir = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"strategy": "go", "budget": 150,
                                    "seeds": [0], "outdir": str(outdir),
                                    field: value}))
    code, _ = run_cli(["run", "--config", str(cfg_path)])
    assert code == 2
    assert not outdir.exists()


@pytest.mark.parametrize("fields, name", [
    ({"strategy": "mc+im", "alpha": "x"}, "alpha"),
    ({"gamma": "x"}, "gamma"),
    ({"gamma": True}, "gamma"),
    ({"eps": None}, "eps"),
    ({"learning_rate": "0.01"}, "learning_rate"),
    ({"entropy_coef": False}, "entropy_coef"),
    ({"strategy": "mc+im", "backend": "noisy", "p_drop": None}, "p_drop"),
    ({"p_swap": [0.1]}, "p_swap"),
])
def test_non_number_real_settings_are_config_errors(fields, name, tmp_path,
                                                     capsys):
    # alpha "x" used to fail with "'<=' not supported between instances of
    # 'str' and 'int'", gamma "x" with "must be real number, not str", and
    # gamma true trained with gamma = True
    outdir = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"budget": 150, "seeds": [0],
                                    "outdir": str(outdir), **fields}))
    code, _ = run_cli(["run", "--config", str(cfg_path)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {name} must be a " \
                                      f"number\n"
    assert not outdir.exists()
    # an integer is a number
    validate_config(RunConfig(strategy="mc+im", alpha=2, eps=1, gamma=1,
                              learning_rate=0, entropy_coef=0, p_drop=0,
                              p_swap=1))


def run_fields(field, value):
    """The RunConfig fields that carry an ExplorationConfig field's value."""
    return {"seed": {"seeds": (value,)},
            "total_steps": {"budget": value}}.get(field, {field: value})


@pytest.mark.parametrize("field, value", [
    ("gamma", 5.0), ("learning_rate", -1.0), ("learning_rate", float("inf")),
    ("entropy_coef", float("nan")), ("batch_size", True), ("horizon", 2.5),
    ("seed", 1.5), ("total_steps", -5), ("backend", "bogus"),
    ("p_drop", 2.0)])
def test_both_entry_points_reject_the_same_values(field, value, tmp_path,
                                                   capsys):
    # ExplorationConfig used to take each of these: an inf learning rate
    # ended mid-run in a bare KeyError, a NaN entropy_coef in
    # FloatingPointError after the first update, and gamma 5.0, learning
    # rate -1.0, batch size True and horizon 2.5 trained
    with pytest.raises(ValueError, match=f"^{field} ") as direct:
        exploration.ExplorationConfig(**{field: value})
    through = run_fields(field, value)
    with pytest.raises(ConfigError) as through_run:
        validate_config(RunConfig(**through))
    if field == "total_steps":      # the run calls it budget
        assert str(through_run.value) == "budget must be non-negative"
    else:
        assert str(through_run.value) == str(direct.value)
    outdir = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"budget": 50, "seeds": [0],
                                    "outdir": str(outdir), **through}))
    code, _ = run_cli(["run", "--config", str(cfg_path)])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {through_run.value}\n"
    assert not outdir.exists()


def test_the_run_config_file_format_is_pinned():
    """RunConfig's JSON keeps its bytes, and its keys and the run flags
    follow the config's fields, wherever a field is declared."""
    assert RunConfig().to_json() == """\
{
  "alpha": null,
  "backend": "oracle",
  "batch_size": 16,
  "budget": 100000,
  "buffer_size": 40,
  "entropy_coef": 0.01,
  "eps": 1.0,
  "game": "miniz",
  "gamma": 0.9,
  "horizon": 50,
  "learning_rate": 0.05,
  "outdir": "",
  "p_drop": 0.1,
  "p_swap": 0.05,
  "patience": 3000,
  "seeds": [
    0,
    1,
    2,
    3,
    4
  ],
  "strategy": "mc+im"
}
"""
    names = {f.name for f in dataclasses.fields(RunConfig)}
    assert set(json.loads(RunConfig().to_json())) == names
    run_p = cli.build_parser()._subparsers._group_actions[0].choices["run"]
    flags = {s for a in run_p._actions for s in a.option_strings}
    assert {f"--{name.replace('_', '-')}" for name in names} <= flags


@pytest.mark.parametrize("strategy", ["mc+im", "go"])
def test_a_learning_rate_that_overflows_the_params_names_the_update(
        strategy, tmp_path, capsys):
    # the second update's gradient was finite but left w_entity and the
    # other heads non-finite, and act_batch failed with "tuple index out of
    # range"
    code, _ = run_cli(["run", "--strategy", strategy, "--learning-rate",
                       "1e300", "--budget", "2000", "--seeds", "0",
                       "--outdir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: non-finite update of ")


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


def test_summary_lists_each_seeds_counts(tmp_path, monkeypatch):
    """summary.txt carries each seed's backtracks, give-up and mask
    fallbacks, as the seed's TrainResult holds them."""
    results = []
    real = exploration.mc_train

    def mc_train(game, config):
        results.append(real(game, config))
        return results[-1]

    monkeypatch.setattr(exploration, "mc_train", mc_train)
    outdir = tmp_path / "exp"
    code, _ = run_cli(["run", "--game", "miniz", "--strategy", "mc+im",
                       "--alpha", "2.0", "--seeds", "0,1", "--budget", "600",
                       "--batch-size", "4", "--horizon", "25",
                       "--patience", "50", "--outdir", str(outdir)])
    assert code == 0
    lines = (outdir / "summary.txt").read_text().splitlines()
    for name in ("backtracks", "gave_up", "fallbacks"):
        assert f"{name} {[getattr(r, name) for r in results]}" in lines
    assert sum(r.backtracks for r in results) > 0


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_ROOT_VAR, str(tmp_path))
    code, _ = run_cli(["run", "--game", "chainworld", "--strategy", "go",
                       "--seeds", "0"] + FAST_FLAGS)
    assert code == 0
    root = tmp_path / "go-chainworld"
    assert (root / "summary.txt").exists()
    assert (root / "seed0" / "archive.csv").exists()


def test_go_run_record_agrees_with_itself(tmp_path, monkeypatch):
    """Every finished explorer episode logs one steps.log row, and every
    cell visit begins an episode, so the visits outnumber the rows by the
    episodes still running at the end: at most one per explorer.  The batch
    size is how many explorers there are, so it shows in the log."""
    ended = []
    real_step = exploration.AgentEnv.step

    def step(self, action):
        out = real_step(self, action)
        ended[-1] += out[3] or out[4]       # done or truncated
        return out

    monkeypatch.setattr(exploration.AgentEnv, "step", step)
    logs = {}
    for batch in (4, 16):
        outdir = tmp_path / f"batch{batch}"
        ended.append(0)
        code, _ = run_cli(["run", "--game", "deceive", "--strategy", "go",
                           "--budget", "2000", "--batch-size", str(batch),
                           "--horizon", "40", "--seeds", "0,1,2,3",
                           "--outdir", str(outdir)])
        assert code == 0
        rows = 0
        for seed in range(4):
            seed_dir = outdir / f"seed{seed}"
            log = (seed_dir / "steps.log").read_text().splitlines()
            episodes = (seed_dir / "episodes.csv").read_text().splitlines()
            assert len(episodes) == len(log) + 1
            cells = (seed_dir / "archive.csv").read_text().splitlines()[1:]
            seed_visits = sum(int(line.split(",")[1]) for line in cells)
            assert 0 <= seed_visits - len(log) <= batch
            rows += len(log)
        assert rows == ended[-1] > 0
        logs[batch] = (outdir / "seed0" / "steps.log").read_bytes()
    assert logs[4] != logs[16]


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


def test_emit_dataset_returns_on_a_game_without_actions(tmp_path):
    """Random play from a start that admits no action records nothing, so
    the dataset holds the start state alone.  In a subprocess, so that a
    hang fails the test instead of stalling the suite."""
    path = tmp_path / "cell.game"
    path.write_text("questgame 1\n[meta]\nname cell\nstart cell\n"
                    "max-score 0\n[room cell]\nname Cell\ndesc Bare.\n"
                    "[templates]\nwait\n")
    out = tmp_path / "cell.qa"
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "questkg.cli", "emit-dataset", str(path),
         "--budget", "3", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert f"wrote 1 states to {out}" in done.stdout
    assert len(extraction.parse_qa_dataset(out.read_text())) == 1


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
