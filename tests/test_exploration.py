import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from questkg import (cli, engine, exploration, extraction, games, kg, policy,
                     search)
from questkg.gamedef import load_game
from questkg.exploration import (AgentEnv, CellArchive,
                                 ChainCloneError, ChainExecutionError,
                                 ExplorationConfig,
                                 Launch, build_chain, build_state_buffer,
                                 execute_chain,
                                 game_start_launch, go_train, load_chain,
                                 mc_train, save_chain, shorten_trajectory,
                                 vanilla_train)

FAST = ExplorationConfig(seed=0, total_steps=4000, batch_size=4, horizon=25,
                         patience=200, alpha=2.0, learning_rate=0.01,
                         entropy_coef=0.05)
ENCODER = policy.StateEncoder(FAST.encoder)


def make_env(game, config=FAST):
    encoder = policy.StateEncoder(config.encoder)
    backend = extraction.make_backend("oracle", game)
    return AgentEnv(game, encoder, backend, kg.GlobalEdgeSet(), config, 0)


def walkthrough_texts(game):
    actions, _ = search.walkthrough(game)
    return [a.text for a in actions]


@pytest.mark.parametrize("field, value", [
    ("batch_size", 0), ("batch_size", -1), ("horizon", 0), ("patience", 0),
    ("buffer_size", 0)])
def test_sizes_below_one_are_config_errors(field, value):
    # a batch of 0 kept vanilla_train looping forever, and crashed mc_train
    # and go_train; a buffer of 0 kept the whole path
    with pytest.raises(ValueError, match=f"^{field} must be at least 1$"):
        ExplorationConfig(**{field: value})
    assert ExplorationConfig(batch_size=1, horizon=1, buffer_size=1,
                             patience=None).patience is None


def test_env_begin_absorbs_initial_observation(miniz):
    env = make_env(miniz)
    env.begin(game_start_launch(miniz))
    assert len(env.graph) > 0
    assert len(env.global_edges) == len(env.graph)
    fallback, off = env.mask()
    assert not fallback and not off[miniz.entities.index("mailbox")]


def test_env_rejects_terminal_launch(miniz):
    env = make_env(miniz)
    state, _, _ = engine.reset(miniz)
    state.alive = False
    with pytest.raises(ValueError):
        env.begin(Launch(state, frozenset()))


def test_env_step_pays_im_only_for_new_triples(miniz):
    env = make_env(miniz)
    env.begin(game_start_launch(miniz))
    _, r_im_first, _, _, _ = env.step(engine.ground(miniz, "go south"))
    assert r_im_first > 0
    env.begin(game_start_launch(miniz))
    _, r_im_again, _, _, _ = env.step(engine.ground(miniz, "go south"))
    assert r_im_again == 0


def test_feats_are_kept_until_the_next_begin_or_step(miniz):
    env = make_env(miniz)
    launch = game_start_launch(miniz)
    env.begin(launch)
    first = env.feats()
    assert env.feats() is first
    for text in ("wait", "go south", "go south"):
        env.step(engine.ground(miniz, text))
        now = env.feats()
        assert now is not first and env.feats() is now
        obs = env.obs
        assert np.array_equal(now, np.concatenate(
            [env.tracker.summary()]
            + [env.encoder.text_vector(part) for part in (
                obs.desc, obs.feedback, obs.inv, obs.prev_action)]))
        first = now
    env.begin(launch)
    assert env.feats() is not first


def test_env_horizon_truncates(miniz):
    env = make_env(miniz)
    env.begin(game_start_launch(miniz))
    truncated = False
    for _ in range(FAST.horizon):
        _, _, _, done, truncated = env.step(engine.ground(miniz, "wait"))
        assert not done
    assert truncated and env.needs_reset


def test_env_counts_stagnant_steps_across_begins(miniz):
    env = make_env(miniz)
    launch = game_start_launch(miniz)
    env.begin(launch)
    assert env.stagnant == 0
    for count in (1, 2, 3):
        assert env.step(engine.ground(miniz, "wait"))[1] == 0
        assert env.stagnant == count
    env.begin(launch)
    assert env.stagnant == 3
    assert env.step(engine.ground(miniz, "go south"))[1] > 0
    assert env.stagnant == 0
    env.step(engine.ground(miniz, "wait"))
    assert env.stagnant == 1


def test_phase_stops_at_the_first_sweep_end_with_enough_stagnant_envs(
        miniz):
    config = replace(FAST, patience=6)
    start = game_start_launch(miniz)

    def run(budget, patience):
        """(stopped, used, share of stagnant envs) of a phase no episode
        can improve in."""
        trainer = exploration._Trainer(miniz, config)
        envs = trainer.make_envs(config.batch_size)
        stopped, used = exploration._phase(trainer, envs, lambda: start,
                                           budget, miniz.max_score,
                                           patience=patience)
        stuck = sum(env.stagnant >= config.patience for env in envs)
        return stopped, used, stuck / len(envs)

    stopped, used, share = run(2000, config.patience)
    assert stopped is None and 0 < used < 2000
    assert used % config.batch_size == 0
    assert share >= exploration.STUCK_FRACTION
    # the same run one sweep earlier, and without a patience to the end of
    # its budget
    before = run(used - config.batch_size, None)
    assert before[1] == used - config.batch_size
    assert before[2] < exploration.STUCK_FRACTION


def test_exhausted_backtrack_puts_the_policy_back(miniz):
    trainer = exploration._Trainer(miniz, replace(FAST, batch_size=2))
    main = trainer.params
    weights = main.w_template.copy()
    _, path, end = shorten_trajectory(miniz, walkthrough_texts(miniz)[:6],
                                      trainer.encoder)
    entries = build_state_buffer(path, end, 3)
    entry, params, improvement, used = exploration.backtrack(
        trainer, entries, miniz.max_score, per_snapshot_budget=40,
        max_total=100, tie_guard=lambda env: False,
        make_splice=lambda entry: None)
    assert (entry, params, improvement) == (None, None, None)
    assert used == 100
    assert trainer.params is main
    assert np.array_equal(main.w_template, weights)


def test_state_buffer_dedups_and_skips_death(miniz):
    texts = ["wait", "wait", "go south", "go west", "go south"]
    _, path, end = shorten_trajectory(miniz, texts, ENCODER)
    entries = build_state_buffer(path, end, 10)
    # the waits dedup; each move is a new (state, graph) pair because the
    # movement triples keep enriching the graph
    assert [len(e.actions) for e in entries] == [0, 1, 2, 3]
    death = ["go south", "go east", "open window", "go west", "go west",
             "open trapdoor", "go down"]
    _, path, end = shorten_trajectory(miniz, death, ENCODER)
    entries = build_state_buffer(path, end, 10)
    assert not end.alive
    assert entries == path[:-1]
    assert entries[-1].state.alive


def test_state_buffer_capacity_keeps_latest(miniz):
    texts = walkthrough_texts(miniz)
    entries = build_state_buffer(*shorten_trajectory(miniz, texts,
                                                     ENCODER)[1:], 4)
    assert len(entries) == 4
    assert len(entries[-1].actions) == len(texts)


def test_shorten_trajectory_removes_loops(miniz):
    texts = ["go south", "go north", "go south", "go east"]
    shortened = shorten_trajectory(miniz, texts, ENCODER)[0]
    assert shortened == ["go south", "go east"]
    # a loop that changes the graph only through revisits still collapses
    assert shorten_trajectory(miniz, ["wait", "wait"], ENCODER)[0] == []


def test_shorten_preserves_outcome(miniz):
    texts = ["open mailbox", "go south", "go north", "go south", "go east",
             "open window", "go west"]
    shortened = shorten_trajectory(miniz, texts, ENCODER)[0]
    state, _, _ = engine.reset(miniz)
    for text in shortened:
        state = engine.step_movement(state, engine.ground(miniz, text),
                                     miniz)[0]
    assert state.score == 10
    assert state.current_room == "kitchen"


def test_build_chain_segments_at_score_gains(miniz):
    chain = build_chain(miniz, policy.StateEncoder(FAST.encoder), FAST,
                        walkthrough_texts(miniz))
    assert chain.j_max == 50
    handoffs = [m.handoff_score for m in chain.modules]
    assert handoffs == sorted(handoffs)
    assert handoffs[-1] == 50


def test_execute_chain_replays_exactly(miniz):
    chain = build_chain(miniz, policy.StateEncoder(FAST.encoder), FAST,
                        walkthrough_texts(miniz))
    t1, s1, h1 = execute_chain(chain, miniz)
    t2, s2, h2 = execute_chain(chain, miniz)
    assert s1 == s2 == chain.j_max
    assert t1 == t2 and h1 == h2


def chain_digest(chain):
    """First 32 hex digits of the checkpoint's blake2b digest."""
    return hashlib.blake2b(save_chain(chain)).hexdigest()[:32]


# recorded before build_chain became one walk checked by execute_chain
WALKTHROUGH_CHAIN_PINS = {
    # game: (chain_digest, execute_chain score, execute_chain hash)
    "miniz": ("f45d2538e46fa69b8c05ef740642c24a", 50,
              "356d52d01bf50424b3f293c8dcca7add"),
    "chainworld": ("afaaf88b02034a72f38b31d9b1492639", 30,
                   "62675517e7bed6b568073f964c30bc55"),
    "deceive": ("cfbe7f5d5009ffa7b632b6db5cad2048", 90,
                "de512d5342ec022d82192b1ccc580076"),
}


@pytest.mark.parametrize("name", sorted(WALKTHROUGH_CHAIN_PINS))
def test_walkthrough_chain_bytes_and_replay_are_pinned(name):
    game = games.load_bundled(name)
    cfg = ExplorationConfig()
    chain = build_chain(game, policy.StateEncoder(cfg.encoder), cfg,
                        walkthrough_texts(game))
    digest, score, trajectory_hash = WALKTHROUGH_CHAIN_PINS[name]
    assert chain_digest(chain) == digest
    trajectory, got_score, got_hash = execute_chain(chain, game, cfg)
    assert trajectory == [text for m in chain.modules for text in m.actions]
    assert (got_score, got_hash) == (score, trajectory_hash)


def test_build_chain_rejects_a_module_that_does_not_replay(miniz,
                                                          monkeypatch):
    """The distilled chain must replay its recorded actions exactly."""
    real = exploration.clone_segment_policy

    def misfit(game, encoder, config, steps):
        # every step's features fitted to the segment's last action
        return real(game, encoder, config,
                    [(feats, steps[-1][1]) for feats, _ in steps])

    monkeypatch.setattr(exploration, "clone_segment_policy", misfit)
    with pytest.raises(ChainCloneError):
        build_chain(miniz, policy.StateEncoder(FAST.encoder), FAST,
                    walkthrough_texts(miniz))


def test_build_chain_rejects_a_replay_by_other_actions(miniz, monkeypatch):
    """Reaching every handoff score is not enough: the actions must match."""
    real = exploration.execute_chain

    def detour(chain, game, config=None):
        trajectory, score, digest = real(chain, game, config)
        return ["look"] + trajectory[1:], score, digest

    monkeypatch.setattr(exploration, "execute_chain", detour)
    with pytest.raises(ChainCloneError, match="decodes"):
        build_chain(miniz, policy.StateEncoder(FAST.encoder), FAST,
                    walkthrough_texts(miniz))


def test_execute_chain_detects_corruption(miniz):
    chain = build_chain(miniz, policy.StateEncoder(FAST.encoder), FAST,
                        walkthrough_texts(miniz))
    chain.modules[0].handoff_score += 1
    with pytest.raises(ChainExecutionError):
        execute_chain(chain, miniz)


def test_chain_save_load_byte_stable(chainworld):
    chain = build_chain(chainworld, policy.StateEncoder(FAST.encoder), FAST,
                        walkthrough_texts(chainworld))
    blob = save_chain(chain)
    clone = load_chain(blob)
    assert save_chain(clone) == blob
    assert execute_chain(clone, chainworld) == execute_chain(chain, chainworld)
    with pytest.raises(ValueError):
        load_chain(blob.replace(b'"v":1', b'"v":7', 1))


def test_vanilla_trains_deterministically(chainworld):
    a = vanilla_train(chainworld, FAST)
    b = vanilla_train(chainworld, FAST)
    assert a.trajectory_hash == b.trajectory_hash
    assert a.j_max == b.j_max
    assert a.chain is None


def test_mc_matches_vanilla_with_im_and_patience_off(chainworld, miniz):
    for game in (chainworld, miniz):
        for seed in range(3):
            cfg = ExplorationConfig(seed=seed, total_steps=2500, batch_size=4,
                                    horizon=25, patience=None, alpha=0.0)
            mc = mc_train(game, cfg)
            va = vanilla_train(game, cfg)
            assert mc.trajectory_hash == va.trajectory_hash
            assert mc.j_max == va.j_max


def test_mc_without_im_adopts_episodes_played_from_the_game_start(
        chainworld):
    """With alpha = 0 the launch stays at the game start, so each improving
    episode is adopted without the best trajectory's prefix."""
    cfg = ExplorationConfig(seed=0, total_steps=2500, batch_size=4,
                            horizon=25, patience=None, alpha=0.0)
    result = mc_train(chainworld, cfg)
    assert result.curve == [(97, 2), (98, 6), (99, 12), (197, 20), (200, 30)]
    assert list(result.best_actions) == [
        "take pebble", "drop pebble", "go east", "go east", "go east",
        "go east", "go west", "go east", "go east"]


@pytest.mark.parametrize("name", ["chainworld", "deceive", "miniz"])
def test_vanilla_best_actions_end_at_their_last_score_gain(name, request):
    game = request.getfixturevalue(name)
    result = vanilla_train(game, replace(FAST, total_steps=2000, alpha=0.0))
    state, _, score = engine.reset(game)
    scores, done = [score], False
    for text in result.best_actions:
        assert not done
        state, _, _, done, _ = engine.step_movement(
            state, engine.ground(game, text), game)
        scores.append(state.score)
    assert scores[-2] < scores[-1] == result.j_max


def test_mc_clears_chainworld_and_reports_chain(chainworld):
    result = mc_train(chainworld, FAST)
    assert result.j_max == 30
    assert result.chain is not None
    replayed, score, _ = execute_chain(result.chain, chainworld)
    assert score == 30
    assert result.steps_used <= FAST.total_steps


def test_mc_curve_is_monotone(chainworld):
    result = mc_train(chainworld, FAST)
    scores = [s for _, s in result.curve]
    assert scores == sorted(scores)


@pytest.mark.parametrize("train, batched", [
    (vanilla_train, True), (mc_train, True),
    (lambda game, cfg: go_train(game, cfg)[0], True)],
    ids=["vanilla", "mc", "go"])
def test_act_sees_features_of_the_current_state(chainworld, monkeypatch,
                                                train, batched):
    """Post-step features are reused as the next step's input, and _phase
    decides a run of envs before their turns: every decision, a row of
    act_batch or a lone act, must still have been taken on exactly what
    AgentEnv.feats() gives for the acting env at its turn, across episode
    starts, backtracks and cell restores."""
    decided = {}        # id(ActResult) -> (which call, result, its feats)
    stale, turns = [], {"act": 0, "act_batch": 0}
    real_act, real_batch = policy.act, policy.act_batch
    real_act_and_step = exploration._Trainer.act_and_step

    def act(params, feats, *args):
        # act decides through act_batch: relabel its one row as a lone act
        result = real_act(params, feats, *args)
        decided[id(result)] = "act", result, feats
        return result

    def act_batch(params, feats, *args):
        results = real_batch(params, feats, *args)
        for result, row in zip(results, feats):
            decided[id(result)] = "act_batch", result, row
        return results

    def act_and_step(self, env, result):
        # each decision is acted on once
        kind, _, feats = decided.pop(id(result))
        stale.append(not np.array_equal(feats, env.feats()))
        turns[kind] += 1
        return real_act_and_step(self, env, result)

    monkeypatch.setattr(exploration._Trainer, "act_and_step", act_and_step)
    monkeypatch.setattr(policy, "act", act)
    monkeypatch.setattr(policy, "act_batch", act_batch)
    train(chainworld, replace(FAST, total_steps=1500))
    assert stale and not any(stale)
    assert turns["act"] > 0
    assert (turns["act_batch"] > 0) == batched


def test_archive_insert_keeps_the_first_cell(chainworld):
    archive = CellArchive()
    launch = game_start_launch(chainworld)
    cell = Launch(launch.state, launch.graph_triples)
    assert archive.insert("k", cell) is cell
    higher = launch.state.copy()
    higher.score = 5
    assert archive.insert("k", Launch(higher, launch.graph_triples, ("x",))) \
        is cell
    assert archive.cells == {"k": cell} and cell.state.score == 0


def test_backends_mark_only_the_oracle_pure(miniz):
    pure = {name: getattr(extraction.make_backend(name, miniz), "pure", False)
            for name in ("oracle", "rule", "noisy")}
    assert pure == {"oracle": True, "rule": False, "noisy": False}


def test_untouched_steps_skip_the_backend_and_keep_the_graph(miniz):
    calls = []
    oracle = extraction.make_backend("oracle", miniz)

    def counted(state, obs):
        calls.append(obs.prev_action)
        return oracle(state, obs)
    counted.pure = True
    env = AgentEnv(miniz, policy.StateEncoder(FAST.encoder), counted,
                   kg.GlobalEdgeSet(), FAST, 0)
    env.begin(game_start_launch(miniz))
    texts = ["go up", "go south", "go up", "look", "wait", "open mailbox",
             "go east"]
    graphs = []
    for text in texts:
        env.step(engine.ground(miniz, text))
        graphs.append(set(env.graph.triples))
    # the first step from a restored launch runs in full; after the move
    # the failed "go up", look, wait and the out-of-reach mailbox change
    # nothing
    assert calls == ["", "go up", "go south", "go east"]
    assert graphs[1] == graphs[2] == graphs[3] == graphs[4] == graphs[5]
    assert graphs[6] != graphs[5]


def test_archive_sampling_is_score_weighted():
    archive = CellArchive()
    archive.insert("low", Launch(engine.WorldState("a", {}, {}), frozenset()))
    archive.insert("high", Launch(engine.WorldState("a", {}, {}, score=9),
                                  frozenset()))
    rng = np.random.default_rng(0)
    picks = [archive.sample(rng).state.score for _ in range(2000)]
    high = sum(1 for s in picks if s == 9)
    assert high / len(picks) == pytest.approx(0.9, abs=0.03)


def test_go_explore_clears_chainworld(chainworld):
    result, archive = go_train(chainworld, FAST)
    assert result.j_max == 30
    assert len(archive) > 1
    again, _ = go_train(chainworld, FAST)
    assert again.trajectory_hash == result.trajectory_hash


def assert_reached_by_its_actions(game, launch):
    """Replaying launch.actions from the game start reaches the state hash
    and score of launch's state."""
    state = engine.reset(game)[0]
    for text in launch.actions:
        state = engine.step_movement(state, engine.ground(game, text), game)[0]
    there = launch.state
    assert (engine.state_hash(state), state.score) == (
        engine.state_hash(there), there.score)


def test_mc_buffer_entries_are_reached_by_their_actions(miniz, monkeypatch):
    buffers = []
    build = exploration.build_state_buffer

    def recorded(*args):
        buffers.append(build(*args))
        return buffers[-1]
    monkeypatch.setattr(exploration, "build_state_buffer", recorded)
    result = mc_train(miniz, FAST)
    # the run rebuilds its buffer as it adopts, and backtracks
    assert result.backtracks > 0 and len(buffers) > 1
    for entry in (e for buffer in buffers for e in buffer):
        assert_reached_by_its_actions(miniz, entry)


def test_go_cells_are_reached_by_their_actions(miniz):
    _, archive = go_train(miniz, replace(FAST, total_steps=2000))
    # cells begun from cells: actions longer than one episode
    assert max(len(c.actions) for c in archive.cells.values()) > FAST.horizon
    for cell in archive.cells.values():
        assert_reached_by_its_actions(miniz, cell)


# --- outputs pinned before the replay helpers were rebuilt on replay() ------

BENCH = dict(batch_size=16, horizon=40, patience=1000, learning_rate=0.01,
             entropy_coef=0.05, backend="oracle")

MC_PINS = {
    # seed 3 stagnates, backtracks twice and tries detour splices
    3: dict(trajectory_hash="7d2d6dee1b410a23cfbfbf9db7541254", j_max=10,
            steps_used=20_000, backtracks=2,
            best_actions=[
                "open mailbox", "take leaflet", "go south", "drop leaflet",
                "take leaflet", "go east", "open window", "go west",
                "go east", "go east", "go west", "go west", "open sack",
                "take sack", "go east"],
            modules=[(0, 10, 8)],
            chain=("4694a5fb05b9651ba04d164741d2638d",
                   "1032e09fd6bbe0e5d58bb10a0ec4a112")),
    # seed 4 clears miniz and distills a 4-module chain
    4: dict(trajectory_hash="aeca3b4b729e13ddeb1f9fe4c5853ec8", j_max=50,
            steps_used=12_789, backtracks=0,
            best_actions=[
                "go north", "go east", "go east", "go south", "go up",
                "take egg", "go down", "go east", "go north", "go east",
                "drop egg", "open window", "go west", "take sack", "go east",
                "go south", "go east", "go west", "open sack", "go west",
                "go east", "go west", "take lamp", "light lamp", "drop sack",
                "open trapdoor", "go down", "go north", "take painting"],
            modules=[(0, 5, 6), (5, 15, 7), (15, 40, 14), (40, 50, 2)],
            chain=("76814043a24f8d6e2199ff5024a50f46",
                   "8e4f6983e18f43bd140c30aa30c203ea")),
}


@pytest.mark.parametrize("seed", sorted(MC_PINS))
def test_mc_train_outputs_are_pinned(miniz, seed):
    pin = MC_PINS[seed]
    config = ExplorationConfig(
        seed=seed, total_steps=20_000, **{**BENCH, "alpha": 2.0})
    result = mc_train(miniz, config)
    assert result.trajectory_hash == pin["trajectory_hash"]
    assert (result.j_max, result.steps_used, result.backtracks) == (
        pin["j_max"], pin["steps_used"], pin["backtracks"])
    assert list(result.best_actions) == pin["best_actions"]
    assert result.chain.j_max == pin["j_max"]
    modules, start = [], 0
    for launch, handoff, length in pin["modules"]:
        modules.append((launch, handoff,
                        tuple(pin["best_actions"][start:start + length])))
        start += length
    assert [(m.launch.state.score, m.handoff_score, m.actions)
            for m in result.chain.modules] == modules
    # (chain_digest, execute_chain hash), recorded before build_chain
    # became one walk
    digest, trajectory_hash = pin["chain"]
    assert chain_digest(result.chain) == digest
    assert execute_chain(result.chain, miniz, config) == (
        pin["best_actions"][:start], pin["j_max"], trajectory_hash)


def test_vanilla_train_best_actions_are_pinned(miniz):
    """Two improvements, each cut back to its last score gain."""
    result = vanilla_train(miniz, ExplorationConfig(
        seed=0, total_steps=4000, **{**BENCH, "alpha": 0.0}))
    assert result.j_max == 10
    assert result.curve == [(1274, 5), (2554, 10)]
    assert list(result.best_actions) == [
        "read north", "close south", "look", "put south in west",
        "light south", "wait", "close west", "extinguish north",
        "light mailbox", "look", "light south", "open north", "go north",
        "light east", "inventory", "drop south", "put south in south",
        "wait", "close mailbox", "go east", "go window", "close south",
        "read mailbox", "open mailbox", "wait", "light east", "drop north",
        "light west", "take mailbox", "inventory", "read south",
        "inventory", "open window", "go north", "take north", "go east",
        "look", "go west"]


# perfbench's workloads: strategy -> (train, game, total_steps, config
# overrides)
WORKLOAD_RUNS = {
    "mc": (mc_train, "miniz", 20_000, dict(alpha=2.0)),
    "vanilla": (vanilla_train, "miniz", 4000, dict(alpha=0.0, patience=None)),
    "go": (lambda game, cfg: go_train(game, cfg)[0], "deceive", 4000,
           dict(alpha=2.0, stop_at_max=False)),
}

# ROADMAP item 1: mc's graft joins an episode to the prefix of the launch
# that is current when the episode ends, not of the one it began from
GRAFT_BUG = pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: j_max 15, 15 and 35, but the replay and execute_chain "
    "reach only 5, 5 and 10"))


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("strategy", sorted(WORKLOAD_RUNS))
def test_best_actions_replay_to_j_max(request, strategy, seed):
    """The engine replay of result.best_actions reaches result.j_max, and
    so does execute_chain of mc's chain."""
    if strategy == "mc" and seed in (0, 1, 5):
        request.applymarker(GRAFT_BUG)
    train, name, total_steps, overrides = WORKLOAD_RUNS[strategy]
    game = request.getfixturevalue(name)
    config = ExplorationConfig(seed=seed, total_steps=total_steps,
                               **{**BENCH, **overrides})
    result = train(game, config)
    state = engine.reset(game)[0]
    for text in result.best_actions:
        state = engine.step_movement(state, engine.ground(game, text),
                                     game)[0]
    assert state.score == result.j_max
    if strategy == "mc":
        assert execute_chain(result.chain, game, config)[1] == result.j_max


# mc_train runs that leave the main phase, recorded before _phase handed
# over the improving env: at alpha 2 the run backtracks through three
# improving episodes and two splices; at alpha 0 it gives up at its first
# stagnation
BACKTRACK_PINS = {
    2.0: dict(trajectory_hash="dd11664b0a17590eae70d349508e6568", j_max=40,
              steps_used=20_000, backtracks=5, gave_up=False),
    0.0: dict(trajectory_hash="482170e81c8a12011a88e758a4b4414c", j_max=10,
              steps_used=4960, backtracks=0, gave_up=True),
}


@pytest.mark.parametrize("alpha", sorted(BACKTRACK_PINS))
def test_mc_train_backtracks_and_give_ups_are_pinned(miniz, alpha):
    result = mc_train(miniz, ExplorationConfig(
        seed=0, total_steps=20_000,
        **{**BENCH, "patience": 150, "alpha": alpha}))
    assert dict(trajectory_hash=result.trajectory_hash, j_max=result.j_max,
                steps_used=result.steps_used, backtracks=result.backtracks,
                gave_up=result.gave_up) == BACKTRACK_PINS[alpha]


def test_every_engine_step_of_mc_train_is_an_agent_env_step(miniz,
                                                            monkeypatch):
    """Training, splice checks, loop removal and chain building all step
    the engine through AgentEnv.step; the backtracking run above adopts
    two splices."""
    counts = {"engine": 0, "env": 0}
    real_engine, real_env = engine.step_movement, AgentEnv.step

    def engine_step(*args):
        counts["engine"] += 1
        return real_engine(*args)

    def env_step(self, action):
        counts["env"] += 1
        return real_env(self, action)

    monkeypatch.setattr(engine, "step_movement", engine_step)
    monkeypatch.setattr(AgentEnv, "step", env_step)
    mc_train(miniz, ExplorationConfig(
        seed=0, total_steps=20_000,
        **{**BENCH, "patience": 150, "alpha": 2.0}))
    assert counts["env"] >= 20_000
    assert counts["engine"] == counts["env"]


def test_phase_hands_over_the_improving_env(chainworld):
    """Without on_improvement the phase returns the env that improved, and
    its actions up to the last gain or discovery reach its score from the
    launch."""
    trainer = exploration._Trainer(chainworld, FAST)
    envs = trainer.make_envs(FAST.batch_size)
    launch = build_state_buffer(*shorten_trajectory(
        chainworld, ["go east"], trainer.encoder)[1:], 1)[-1]
    assert launch.state.score > 0
    env, used = exploration._phase(trainer, envs, lambda: launch, 2000,
                                   launch.state.score)
    assert 0 < used < 2000
    assert any(env is e for e in envs)
    assert env.state.score > launch.state.score
    from test_properties import replay
    *_, (_, end, _) = replay(chainworld, launch,
                             env.episode_actions[:env.last_useful])
    assert end.score == env.state.score


def random_params(game, seed):
    params = policy.init_params(game, FAST.encoder)
    rng = np.random.default_rng(seed)
    return params.from_vector(rng.normal(0, 1, params.to_vector().size))


@pytest.mark.parametrize("stop", ["budget", "new-params", "splice"])
def test_a_phase_that_stops_mid_run_leaves_the_generator_of_per_env_acting(
        chainworld, monkeypatch, stop):
    """_phase decides a run of envs at once and moves the uniform stream
    back when it stops before the run is used up: the budget ends
    mid-sweep, an improvement installs new params, or a splice returns.
    The reference decides one env at a time, which is per-env acting."""
    launch = build_state_buffer(*shorten_trajectory(
        chainworld, ["go east"], ENCODER)[1:], 1)[-1]
    real_decide = exploration._Trainer.decide

    def outcome(lone):
        trainer = exploration._Trainer(chainworld, FAST)
        trainer.params = random_params(chainworld, 2)
        improved = []

        def install(env):
            improved.append(env.index)
            trainer.params = random_params(chainworld, 2 + len(improved))

        kwargs = {"budget": dict(budget=6),
                  "new-params": dict(budget=400, on_improvement=install),
                  "splice": dict(budget=400, on_step=lambda env, key: (
                      env.index == 1 and trainer.steps > 4))}[stop]
        if lone:
            monkeypatch.setattr(exploration._Trainer, "decide",
                                lambda self, envs: real_decide(self, envs[:1]))
        try:
            stopped, used = exploration._phase(
                trainer, trainer.make_envs(4), lambda: launch,
                j_target=launch.state.score, **kwargs)
        finally:
            monkeypatch.undo()
        if isinstance(stopped, AgentEnv):
            stopped = stopped.index
        return (stopped, used, improved,
                trainer.hasher.hexdigest(), trainer.rng.position)

    batched = outcome(lone=False)
    assert batched == outcome(lone=True)
    stopped, used, improved = batched[:3]
    if stop == "budget":
        assert used == 6
    elif stop == "new-params":
        assert any(index < 3 for index in improved)
    else:
        assert (stopped, used) == ("splice", 6)


def test_mc_without_im_never_builds_a_state_buffer(chainworld, monkeypatch):
    """An alpha = 0 run launches from the game start and gives up at its
    first stagnation, so it has no use for a buffer."""
    calls = []
    real = exploration.build_state_buffer

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(exploration, "build_state_buffer", counted)
    assert mc_train(chainworld, FAST).curve and calls    # alpha 2 builds
    calls.clear()
    result = mc_train(chainworld, replace(FAST, alpha=0.0))
    assert result.curve
    assert calls == []


CHAIN_DIGEST = """\
import hashlib, sys
from questkg import exploration, games, policy, search
game = games.load_bundled("miniz")
cfg = exploration.ExplorationConfig()
texts = [a.text for a in search.walkthrough(game)[0]]
chain = exploration.build_chain(game, policy.StateEncoder(cfg.encoder), cfg,
                                texts)
print(hashlib.blake2b(exploration.save_chain(chain)).hexdigest())
"""


def test_chain_checkpoint_bytes_ignore_the_string_hash_seed():
    src = Path(exploration.__file__).resolve().parents[1]
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [str(src), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", CHAIN_DIGEST], env=env,
                              capture_output=True, text=True, timeout=300,
                              check=True)
        digests.add(done.stdout.strip())
    assert len(digests) == 1


def test_execute_chain_rejects_a_chain_of_another_game(chainworld, miniz):
    chain = build_chain(chainworld, policy.StateEncoder(FAST.encoder), FAST,
                        walkthrough_texts(chainworld))
    with pytest.raises(ChainExecutionError, match="module 0"):
        execute_chain(chain, miniz)


def test_execute_chain_rejects_params_that_do_not_fit_the_encoder(
        chainworld, tmp_path, capsys):
    chain = build_chain(chainworld, policy.StateEncoder(FAST.encoder), FAST,
                        walkthrough_texts(chainworld))
    fitted = chain.modules[0].params
    narrow = policy.EncoderConfig(d_graph=8)
    for module in chain.modules:
        module.params = policy.init_params(chainworld, narrow)
    with pytest.raises(ChainExecutionError,
                       match=r"module 0: w_template has shape \(\d+, 104\), "
                             r"the encoder needs \(\d+, 128\)"):
        execute_chain(chain, chainworld)
    path = tmp_path / "chain.json"
    path.write_bytes(save_chain(chain))
    assert cli.main(["replay-chain", str(path), "--game", "chainworld"]) == 1
    assert "module 0: w_template has shape" in capsys.readouterr().err
    # each module is checked when its turn comes
    chain.modules[0].params = fitted
    with pytest.raises(ChainExecutionError, match="module 1: w_template"):
        execute_chain(chain, chainworld)


MC_COLD_WARM = """\
import hashlib
from questkg import exploration, games
game = games.load_bundled("miniz")
config = exploration.ExplorationConfig(
    seed=4, total_steps=20_000, batch_size=16, horizon=40, patience=1000,
    learning_rate=0.01, entropy_coef=0.05, backend="oracle", alpha=2.0)
result = exploration.mc_train(game, config)
print(result.trajectory_hash,
      hashlib.blake2b(exploration.save_chain(result.chain)).hexdigest())
"""


def test_mc_train_gives_the_same_bits_cold_warm_and_in_a_fresh_process(
        capsys):
    """The encoder, Triple.make and triple_digest keep their values for the
    whole process; a run on cold caches, a run on the caches it left and a
    run in a fresh interpreter must agree on the trajectory and the chain
    bytes."""
    policy.shared_encoder.cache_clear()
    kg.Triple.make.cache_clear()
    kg.triple_digest.cache_clear()
    runs = []
    for _ in range(2):          # cold, then warm
        exec(MC_COLD_WARM, {})
        runs.append(capsys.readouterr().out)
    src = Path(exploration.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", MC_COLD_WARM], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    assert runs[0] == runs[1] == done.stdout
    assert runs[0].split()[0] == MC_PINS[4]["trajectory_hash"]


def test_a_second_replay_builds_no_encoder_and_seeds_nothing(deceive,
                                                             monkeypatch):
    """Every replay of a chain shares one encoder per config, so once a
    replay has run, the next derives no seeded weight or vector again."""
    chain = walkthrough_chain(deceive)
    first = execute_chain(chain, deceive, FAST)
    counts = {"encoders": 0, "seeded_rngs": 0}
    real_init, real_rng = policy.StateEncoder.__init__, policy._seeded_rng

    def init(self, *args, **kwargs):
        counts["encoders"] += 1
        real_init(self, *args, **kwargs)

    def seeded_rng(*parts):
        counts["seeded_rngs"] += 1
        return real_rng(*parts)

    monkeypatch.setattr(policy.StateEncoder, "__init__", init)
    monkeypatch.setattr(policy, "_seeded_rng", seeded_rng)
    assert execute_chain(chain, deceive, FAST) == first
    assert counts == {"encoders": 0, "seeded_rngs": 0}


@pytest.mark.parametrize("entry", [[1, 2, 3], ["", "x", "y"],
                                   [None, "x", "y"], "abc",
                                   ["x", "y"], ["x", "y", "z", "w"],
                                   ["Cellar", "has", "lamp"],
                                   ["cellar", "has", "the lamp"],
                                   ["cellar", "has", "lamp "]])
def test_load_chain_rejects_a_malformed_graph_entry(
        deceive, entry):
    doc = json.loads(save_chain(walkthrough_chain(deceive)))
    assert len(doc["modules"]) > 1
    doc["modules"][1]["graph"].append(entry)
    with pytest.raises(ValueError, match="module 1 graph entry"):
        load_chain(json.dumps(doc).encode())


@pytest.mark.parametrize("blob", [b"\xff\x00", b'{"v":1}', b"[1]",
                                  b'{"v":1,"j_max":0,"modules":[{}]}'])
def test_load_chain_rejects_malformed_checkpoints(blob):
    with pytest.raises(ValueError, match="chain checkpoint"):
        load_chain(blob)


# chainworld with a pebble whose text is the key of a decode vector
READER_TEXT = games.bundled_game_text("chainworld").replace(
    "attrs portable\n", "attrs portable readable\ntext ent:<none>\n").replace(
    "take ___\n", "take ___\nread ___\n")


def test_read_text_that_spells_a_decode_key_keeps_the_features_whole():
    game = load_game(READER_TEXT)
    blanks = {i: t.blanks for i, t in enumerate(game.templates)}
    params = policy.init_params(game, FAST.encoder)
    # a first-blank decode embeds "<none>" as the previous filler
    assert game.templates[0].blanks
    for read_first in (False, True):
        env = make_env(game)
        env.begin(game_start_launch(game))
        if read_first:
            env.step(engine.ground(game, "read pebble"))
        policy.greedy_action(params, env.feats(), env.mask(), env.encoder,
                             blanks)
        env.step(engine.ground(game, "read pebble"))
        assert env.obs.feedback == "ent:<none>"
        assert env.feats().shape == (FAST.encoder.feature_dim,)
        policy.greedy_action(params, env.feats(), env.mask(), env.encoder,
                             blanks)
    result = vanilla_train(game, replace(FAST, total_steps=1000,
                                         stop_at_max=False))
    assert result.steps_used == 1000


def walkthrough_chain(game):
    return build_chain(game, policy.StateEncoder(FAST.encoder), FAST,
                       walkthrough_texts(game))


def test_execute_chain_names_a_launch_room_the_game_lacks(chainworld,
                                                          tmp_path, capsys):
    chain = walkthrough_chain(chainworld)
    text = games.bundled_game_text("chainworld").replace("gate-two", "gate-2")
    message = "module 1: launch in room 'gate-two'"
    with pytest.raises(ChainExecutionError, match=message):
        execute_chain(chain, load_game(text))
    (tmp_path / "chain.json").write_bytes(save_chain(chain))
    (tmp_path / "renamed.game").write_text(text)
    assert cli.main(["replay-chain", str(tmp_path / "chain.json"), "--game",
                     str(tmp_path / "renamed.game")]) == 1
    assert message in capsys.readouterr().err


def test_execute_chain_names_a_launch_with_other_objects(chainworld):
    chain = walkthrough_chain(chainworld)
    extra = load_game(games.bundled_game_text("chainworld").replace(
        "[templates]", "[object stone]\nloc gate-three\n\n[templates]"))
    for module in chain.modules:    # policies that fit the extra entity
        module.params = policy.init_params(extra, FAST.encoder)
    with pytest.raises(ChainExecutionError,
                       match="module 0: launch in room 'gate-one'"):
        execute_chain(chain, extra)


@pytest.mark.parametrize("length", ["1", 2, 0, None])
def test_load_chain_rejects_a_length_other_than_the_action_count(
        chainworld, tmp_path, capsys, length):
    doc = json.loads(save_chain(walkthrough_chain(chainworld)))
    assert doc["modules"][0]["length"] == len(doc["modules"][0]["actions"])
    doc["modules"][0]["length"] = length
    blob = json.dumps(doc).encode()
    with pytest.raises(ValueError, match="module 0 length"):
        load_chain(blob)
    (tmp_path / "chain.json").write_bytes(blob)
    assert cli.main(["replay-chain", str(tmp_path / "chain.json"), "--game",
                     "chainworld"]) == 1
    assert "module 0 length" in capsys.readouterr().err


def test_load_chain_rejects_a_launch_score_other_than_the_restored_one(
        chainworld):
    doc = json.loads(save_chain(walkthrough_chain(chainworld)))
    doc["modules"][1]["launch_score"] += 1
    with pytest.raises(ValueError, match="module 1 launch_score is not its "
                                         "snapshot's score"):
        load_chain(json.dumps(doc).encode())


def test_execute_chain_names_a_terminal_launch(chainworld, tmp_path, capsys):
    chain = walkthrough_chain(chainworld)
    launch = chain.modules[1].launch
    state = launch.state.copy()
    state.alive = False
    chain.modules[1].launch = replace(launch, state=state)
    message = "module 1: launch is a terminal state"
    with pytest.raises(ChainExecutionError, match=message):
        execute_chain(chain, chainworld)
    (tmp_path / "chain.json").write_bytes(save_chain(chain))
    assert cli.main(["replay-chain", str(tmp_path / "chain.json"), "--game",
                     "chainworld"]) == 1
    assert message in capsys.readouterr().err
