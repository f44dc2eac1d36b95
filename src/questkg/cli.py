"""Experiment runner: strategy runs, quest reports, dataset emission,
chain replay.

Subcommands:
  run           train a strategy on a game across seeds, write artifacts
  analyze       print a quest-DAG report for a game
  emit-dataset  serialize random + walkthrough states as a QA dataset
  replay-chain  deterministically re-execute a saved policy chain

Exit codes: 0 ok, 1 run failure, 2 configuration error.  The output root
defaults to the QUESTKG_OUTPUT_ROOT environment variable, then "runs".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import engine, exploration, extraction, games, questgraph, search

OUTPUT_ROOT_VAR = "QUESTKG_OUTPUT_ROOT"

STRATEGIES = ("vanilla", "mc", "mc+im", "go")
# alpha when the config leaves it unset: intrinsic motivation is what mc+im
# and go add, and vanilla and mc reject it
DEFAULT_ALPHA = {"vanilla": 0.0, "mc": 0.0, "mc+im": 1.0, "go": 1.0}
BACKENDS = ("oracle", "rule", "noisy")


class ConfigError(ValueError):
    """A run configuration field is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a `run` needs; round-trips through its JSON file form."""
    game: str = "miniz"              # bundled name or path to a .game file
    strategy: str = "mc+im"          # vanilla | mc | mc+im | go
    backend: str = "oracle"          # oracle | rule | noisy
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    budget: int = 100_000            # total env steps per seed
    batch_size: int = 16
    horizon: int = 50
    patience: int = 3000
    buffer_size: int = 40
    alpha: float | None = None       # None: DEFAULT_ALPHA[strategy]
    eps: float = 1.0
    gamma: float = 0.9
    learning_rate: float = 0.05
    entropy_coef: float = 0.01
    p_drop: float = 0.1
    p_swap: float = 0.05
    outdir: str = ""                 # empty: <output root>/<strategy>-<game>

    def to_json(self):
        doc = asdict(self)
        doc["seeds"] = list(self.seeds)
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config field {sorted(unknown)[0]!r}")
        if "seeds" in doc:
            doc["seeds"] = tuple(doc["seeds"])
        return cls(**doc)


def validate_config(config):
    """Check a RunConfig; returns it with an unset alpha filled in."""
    if config.strategy not in STRATEGIES:
        raise ConfigError(f"strategy must be one of {STRATEGIES}, "
                          f"got {config.strategy!r}")
    if config.alpha is None:
        config = replace(config, alpha=DEFAULT_ALPHA[config.strategy])
    for name in ("budget", "batch_size", "horizon", "patience",
                 "buffer_size"):
        if type(getattr(config, name)) is not int:      # a bool is not one
            raise ConfigError(f"{name} must be an integer")
    if any(type(seed) is not int for seed in config.seeds):
        raise ConfigError("every seed must be an integer")
    for name in ("alpha", "eps", "gamma", "learning_rate", "entropy_coef",
                 "p_drop", "p_swap"):
        if not math.isfinite(getattr(config, name)):
            raise ConfigError(f"{name} must be finite")
    if min(config.alpha, config.eps, config.learning_rate,
           config.entropy_coef) < 0:
        raise ConfigError("alpha, eps, learning_rate and entropy_coef must "
                          "be non-negative")
    if not 0 <= config.gamma <= 1:
        raise ConfigError("gamma must lie in [0, 1]")
    if not (0 <= config.p_drop <= 1 and 0 <= config.p_swap <= 1):
        raise ConfigError("p_drop and p_swap must lie in [0, 1]")
    if config.backend not in BACKENDS:
        raise ConfigError(f"backend must be one of {BACKENDS}, "
                          f"got {config.backend!r}")
    if config.strategy == "vanilla" and config.alpha > 0:
        raise ConfigError("alpha > 0 with strategy 'vanilla': intrinsic "
                          "motivation requires mc, mc+im, or go")
    if config.strategy == "mc" and config.alpha > 0:
        raise ConfigError("alpha > 0 with strategy 'mc': use mc+im")
    if config.strategy == "mc+im" and config.alpha <= 0:
        raise ConfigError("strategy 'mc+im' requires alpha > 0")
    if config.budget < 0:
        raise ConfigError("budget must be non-negative")
    try:    # the sizes' rules are ExplorationConfig's
        _exploration_config(config, 0)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not config.seeds:
        raise ConfigError("at least one seed is required")
    return config


# RunConfig fields that ExplorationConfig takes under the same name
SHARED_FIELDS = tuple(
    f.name for f in fields(exploration.ExplorationConfig)
    if f.name in {g.name for g in fields(RunConfig)})


def _exploration_config(config, seed):
    return exploration.ExplorationConfig(
        seed=seed, total_steps=config.budget,
        **{name: getattr(config, name) for name in SHARED_FIELDS})


def _episodes_csv(log):
    lines = ["episode,score,max_score_so_far"]
    best = 0
    for i, row in enumerate(log):
        best = max(best, row.score)
        lines.append(f"{i},{row.score},{best}")
    return "\n".join(lines) + "\n"


def _curve_csv(curve):
    lines = ["step,best_score"]
    for step, score in curve:
        lines.append(f"{step},{score}")
    return "\n".join(lines) + "\n"


def _write(path, data):
    mode = "wb" if isinstance(data, bytes) else "w"
    with open(path, mode) as fh:
        fh.write(data)


def run_experiment(config, out=sys.stdout):
    """Validate a RunConfig, execute every seed and write artifacts.

    Returns the output directory.  Artifacts per seed: episode log
    (steps.log), per-episode CSV, score curve CSV, and the chain or
    archive; plus the config echo and a cross-seed summary at the root,
    which also lists each seed's backtracks, give-up and mask fallbacks.
    """
    config = validate_config(config)
    game = games.load_path(config.game)
    root = config.outdir or os.path.join(
        os.environ.get(OUTPUT_ROOT_VAR, "runs"),
        f"{config.strategy.replace('+', '-')}-{game.name}")
    os.makedirs(root, exist_ok=True)
    _write(os.path.join(root, "config.json"), config.to_json())

    finals, backtracks, gave_up, fallbacks = [], [], [], []
    for seed in config.seeds:
        cfg = _exploration_config(config, seed)
        if config.strategy == "go":
            result, archive = exploration.go_train(game, cfg)
        elif config.strategy == "vanilla":
            result = exploration.vanilla_train(game, cfg)
        else:
            result = exploration.mc_train(game, cfg)
        seed_dir = os.path.join(root, f"seed{seed}")
        os.makedirs(seed_dir, exist_ok=True)
        _write(os.path.join(seed_dir, "steps.log"),
               "".join(row.line() + "\n" for row in result.log))
        _write(os.path.join(seed_dir, "episodes.csv"),
               _episodes_csv(result.log))
        _write(os.path.join(seed_dir, "curve.csv"), _curve_csv(result.curve))
        if result.chain is not None:
            _write(os.path.join(seed_dir, "chain.json"),
                   exploration.save_chain(result.chain))
        if config.strategy == "go":
            cells = sorted((c.state.score, archive.visits[k])
                           for k, c in archive.cells.items())
            _write(os.path.join(seed_dir, "archive.csv"),
                   "score,visits\n"
                   + "".join(f"{s},{v}\n" for s, v in cells))
        finals.append(result.j_max)
        backtracks.append(result.backtracks)
        gave_up.append(result.gave_up)
        fallbacks.append(result.fallbacks)
        print(f"seed {seed}: final best score {result.j_max} "
              f"({result.steps_used} steps)", file=out)

    summary = (f"game {game.name}\nstrategy {config.strategy}\n"
               f"seeds {list(config.seeds)}\nfinals {finals}\n"
               f"median {statistics.median(finals)}\nmax {max(finals)}\n"
               f"backtracks {backtracks}\ngave_up {gave_up}\n"
               f"fallbacks {fallbacks}\n")
    _write(os.path.join(root, "summary.txt"), summary)
    print(summary, end="", file=out)
    return root


def analyze_game(path, out=sys.stdout):
    """Print the quest report: levels, bottlenecks, max score, walkthrough."""
    game = games.load_path(path)
    if game.dag is None:
        raise ValueError(f"game {game.name!r} has no quest DAG section")
    levels = questgraph.topological_levels(game.dag)
    necks = questgraph.bottlenecks(game.dag)
    actions, score = search.walkthrough(game)
    print(f"game {game.name}", file=out)
    print(f"max score {game.max_score}", file=out)
    for i, level in enumerate(levels):
        print(f"level {i}: {' '.join(sorted(level))}", file=out)
    print(f"bottlenecks: {' '.join(sorted(necks))}", file=out)
    print(f"walkthrough: {len(actions)} actions to score {score}", file=out)


def collect_qa_states(game, budget, seed):
    """(QAContext, AnswerSet) pairs from the walkthrough plus random play,
    at most budget of them; fewer when the start admits no action."""
    if budget <= 0:
        return []
    records = []
    rng = np.random.default_rng(seed)

    def record(state, obs):
        ctx = extraction.build_context(obs, game.attr_vocab)
        records.append((ctx, extraction.oracle_answer(state, game)))

    state, obs, _ = engine.reset(game)
    record(state, obs)
    for action in search.walkthrough(game)[0]:
        if len(records) >= budget:
            return records
        state, obs, _, done, _ = engine.step_movement(state, action, game)
        record(state, obs)
        if done:
            break
    if not engine.admissible_actions(engine.reset(game)[0], game):
        return records      # random play would record nothing, forever
    while len(records) < budget:
        state, obs, _ = engine.reset(game)
        for _ in range(50):        # turns per random episode
            if len(records) >= budget:
                break
            actions = sorted(engine.admissible_actions(state, game),
                             key=lambda a: a.text)
            if not actions:
                break
            action = actions[rng.integers(len(actions))]
            state, obs, _, done, _ = engine.step_movement(state, action, game)
            record(state, obs)
            if done:
                break
    return records


def emit_dataset(path, budget, seed, out_path, out=sys.stdout):
    game = games.load_path(path)
    records = collect_qa_states(game, budget, seed)
    text = extraction.emit_qa_dataset(records)
    _write(out_path, text)
    print(f"wrote {len(records)} states to {out_path}", file=out)


def replay_chain(chain_path, game_path, out=sys.stdout):
    """Re-execute a saved chain twice; fail loudly on any divergence."""
    game = games.load_path(game_path)
    with open(chain_path, "rb") as fh:
        chain = exploration.load_chain(fh.read())
    first = exploration.execute_chain(chain, game)
    second = exploration.execute_chain(chain, game)
    if first != second:
        raise exploration.ChainExecutionError(
            "two replays of the same chain diverged")
    trajectory, score, digest = first
    if score != chain.j_max:
        raise exploration.ChainExecutionError(
            f"replay score {score} != recorded J_max {chain.j_max}")
    print(f"chain ok: {len(chain.modules)} modules, {len(trajectory)} "
          f"actions, score {score}, trajectory {digest}", file=out)


def _add_run_flags(sub):
    sub.add_argument("--config", help="JSON config file; flags override it")
    for f in fields(RunConfig):
        if f.name == "seeds":
            sub.add_argument("--seeds", help="comma-separated seed list")
        else:
            kind = float if f.name == "alpha" else type(f.default)
            sub.add_argument(f"--{f.name.replace('_', '-')}", type=kind)


def _build_run_config(args):
    if args.config:
        with open(args.config) as fh:
            config = RunConfig.from_json(fh.read())
    else:
        config = RunConfig()
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name)
        if value is None:
            continue
        if f.name == "seeds":
            value = tuple(int(s) for s in value.split(","))
        overrides[f.name] = value
    return validate_config(replace(config, **overrides))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="questkg", description="quest-game exploration experiments")
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="train a strategy across seeds")
    _add_run_flags(run_p)

    an_p = subs.add_parser("analyze", help="quest-DAG report for a game")
    an_p.add_argument("game", help="bundled game name or .game file path")

    em_p = subs.add_parser("emit-dataset", help="emit a QA dataset")
    em_p.add_argument("game")
    em_p.add_argument("--budget", type=int, default=100,
                      help="number of states to record")
    em_p.add_argument("--seed", type=int, default=0)
    em_p.add_argument("--out", default="dataset.qa")

    rc_p = subs.add_parser("replay-chain", help="re-execute a saved chain")
    rc_p.add_argument("chain", help="chain.json artifact from a run")
    rc_p.add_argument("--game", required=True)
    return parser


def main(argv=None, out=sys.stdout):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            try:
                config = _build_run_config(args)
            except (ConfigError, TypeError, ValueError, OSError) as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return 2
            run_experiment(config, out=out)
        elif args.command == "analyze":
            analyze_game(args.game, out=out)
        elif args.command == "emit-dataset":
            emit_dataset(args.game, args.budget, args.seed, args.out, out=out)
        elif args.command == "replay-chain":
            replay_chain(args.chain, args.game, out=out)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
