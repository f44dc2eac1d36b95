from dataclasses import replace

import numpy as np
import pytest

from questkg import engine, exploration, extraction, kg, policy, search
from questkg.exploration import (AgentEnv, BottleneckMonitor, CellArchive,
                                 Cell, ChainExecutionError, ExplorationConfig,
                                 Launch, build_chain, build_state_buffer,
                                 detect_stagnation, execute_chain,
                                 game_start_launch, go_train, load_chain,
                                 mc_train, save_chain, shorten_trajectory,
                                 vanilla_train)

FAST = ExplorationConfig(seed=0, total_steps=4000, batch_size=4, horizon=25,
                         patience=200, alpha=2.0, learning_rate=0.01,
                         entropy_coef=0.05)


def make_env(game, config=FAST):
    encoder = policy.StateEncoder(config.encoder)
    backend = extraction.make_backend("oracle", game)
    return AgentEnv(game, encoder, backend, kg.GlobalEdgeSet(), config, 0)


def walkthrough_texts(game):
    actions, _ = search.walkthrough(game)
    return [a.text for a in actions]


def test_env_begin_absorbs_initial_observation(miniz):
    env = make_env(miniz)
    env.begin(game_start_launch(miniz))
    assert len(env.graph) > 0
    assert len(env.global_edges) == len(env.graph)
    assert "mailbox" in env.mask()


def test_env_rejects_terminal_launch(miniz):
    env = make_env(miniz)
    state, _, _ = engine.reset(miniz)
    state.alive = False
    with pytest.raises(ValueError):
        env.begin(Launch(engine.snapshot(state), frozenset(), 0))


def test_env_step_pays_im_only_for_new_triples(miniz):
    env = make_env(miniz)
    env.begin(game_start_launch(miniz))
    _, r_im_first, _, _, _ = env.step(engine.ground(miniz, "go south"))
    assert r_im_first > 0
    env.begin(game_start_launch(miniz))
    _, r_im_again, _, _, _ = env.step(engine.ground(miniz, "go south"))
    assert r_im_again == 0


def test_env_horizon_truncates(miniz):
    env = make_env(miniz)
    env.begin(game_start_launch(miniz))
    truncated = False
    for _ in range(FAST.horizon):
        _, _, _, done, truncated = env.step(engine.ground(miniz, "wait"))
        assert not done
    assert truncated and env.needs_reset


def test_stagnation_arithmetic():
    monitor = BottleneckMonitor(patience=10, patience_batch_factor=0.75,
                                batch_size=4)
    for i in range(4):
        for _ in range(10):
            monitor.step(i)
    assert detect_stagnation(monitor)
    monitor.reset_instance(0)
    monitor.reset_instance(1)
    assert not detect_stagnation(monitor)  # only 2/4 >= patience
    monitor.step(0)
    assert not detect_stagnation(monitor)
    monitor.new_highscore(5)
    assert monitor.p == [0, 0, 0, 0]
    assert BottleneckMonitor(None, 0.75, 4).patience is None
    assert not detect_stagnation(BottleneckMonitor(None, 0.75, 4))


def test_state_buffer_dedups_and_skips_death(miniz):
    backend = extraction.make_backend("oracle", miniz)
    texts = ["wait", "wait", "go south", "go west", "go south"]
    entries = build_state_buffer(miniz, backend, texts, capacity=10)
    # the waits dedup; each move is a new (state, graph) pair because the
    # movement triples keep enriching the graph
    assert len(entries) == 4
    assert [e.prefix_len for e in entries] == [0, 3, 4, 5]
    assert entries[0].prefix_len == 0
    death = ["go south", "go east", "open window", "go west", "go west",
             "open trapdoor", "go down"]
    entries = build_state_buffer(miniz, backend, death, capacity=10)
    final = engine.restore(entries[-1].snapshot)
    assert final.alive


def test_state_buffer_capacity_keeps_latest(miniz):
    backend = extraction.make_backend("oracle", miniz)
    texts = walkthrough_texts(miniz)
    entries = build_state_buffer(miniz, backend, texts, capacity=4)
    assert len(entries) == 4
    assert entries[-1].prefix_len == len(texts)


def test_shorten_trajectory_removes_loops(miniz):
    texts = ["go south", "go north", "go south", "go east"]
    shortened = shorten_trajectory(miniz, texts)
    assert shortened == ["go south", "go east"]
    # a loop that changes the graph only through revisits still collapses
    assert shorten_trajectory(miniz, ["wait", "wait"]) == []


def test_shorten_preserves_outcome(miniz):
    texts = ["open mailbox", "go south", "go north", "go south", "go east",
             "open window", "go west"]
    shortened = shorten_trajectory(miniz, texts)
    state, _, _ = engine.reset(miniz)
    for text in shortened:
        state, _, _, _ = engine.step(state, engine.ground(miniz, text), miniz)
    assert state.score == 10
    assert state.current_room == "kitchen"


def test_build_chain_segments_at_score_gains(miniz):
    chain = build_chain(miniz, policy.StateEncoder(FAST.encoder), FAST,
                        walkthrough_texts(miniz))
    assert chain.j_max == 50
    handoffs = [m.handoff_score for m in chain.modules]
    assert handoffs == sorted(handoffs)
    assert handoffs[-1] == 50
    manifest = chain.manifest()
    assert manifest["j_max"] == 50
    assert [m["handoff_score"] for m in manifest["modules"]] == handoffs


def test_execute_chain_replays_exactly(miniz):
    chain = build_chain(miniz, policy.StateEncoder(FAST.encoder), FAST,
                        walkthrough_texts(miniz))
    t1, s1, h1 = execute_chain(chain, miniz)
    t2, s2, h2 = execute_chain(chain, miniz)
    assert s1 == s2 == chain.j_max
    assert t1 == t2 and h1 == h2


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


@pytest.mark.parametrize("train", [
    vanilla_train, mc_train, lambda game, cfg: go_train(game, cfg)[0]],
    ids=["vanilla", "mc", "go"])
def test_act_sees_features_of_the_current_state(chainworld, monkeypatch,
                                                train):
    """Post-step features are reused as the next step's input; act must
    still always see exactly what AgentEnv.feats() gives for the acting
    env, across episode starts, backtracks and cell restores."""
    acting, stale = [], []
    real_act_and_step = exploration._Trainer.act_and_step
    real_act = policy.act

    def act_and_step(self, env, params=None):
        acting.append(env)
        return real_act_and_step(self, env, params)

    def act(params, feats, *args):
        stale.append(not np.array_equal(feats, acting[-1].feats()))
        return real_act(params, feats, *args)

    monkeypatch.setattr(exploration._Trainer, "act_and_step", act_and_step)
    monkeypatch.setattr(policy, "act", act)
    train(chainworld, replace(FAST, total_steps=1500))
    assert stale and not any(stale)


def test_archive_insert_keeps_best_score(chainworld):
    archive = CellArchive()
    launch = game_start_launch(chainworld)
    cell = Cell(launch, 0, 0, ())
    archive.insert("k", cell)
    archive.insert("k", Cell(launch, 5, 0, ("x",)))
    assert archive.cells["k"].score == 5
    archive.insert("k", Cell(launch, 3, 0, ()))
    assert archive.cells["k"].score == 5


def test_archive_sampling_is_score_weighted():
    archive = CellArchive()
    launch = None
    archive.insert("low", Cell(launch, 0, 0, ()))
    archive.insert("high", Cell(launch, 9, 0, ()))
    rng = np.random.default_rng(0)
    picks = [archive.sample(rng).score for _ in range(2000)]
    high = sum(1 for s in picks if s == 9)
    assert high / len(picks) == pytest.approx(0.9, abs=0.03)


def test_go_explore_clears_chainworld(chainworld):
    result, archive = go_train(chainworld, FAST)
    assert result.j_max == 30
    assert len(archive) > 1
    again, _ = go_train(chainworld, FAST)
    assert again.trajectory_hash == result.trajectory_hash
