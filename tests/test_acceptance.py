"""End-to-end acceptance suite.

The expensive behavioral runs (full-budget training on the bundled games)
are computed once in module-scoped fixtures and shared by the tests that
grade them; those tests are marked slow, so `pytest -m "not slow"` skips the
runs.
"""

import copy
import statistics
import time
import types

import numpy as np
import pytest

import per_row_actor
from questkg import engine, exploration, extraction, kg, policy, search
from questkg.exploration import ExplorationConfig, execute_chain
from questkg.gamedef import ActionTemplate
from questkg.questgraph import bottlenecks

from test_policy import (SMALL, random_params, random_transition, rollout_of,
                         small_encoder)
from test_questgraph import make_graph, naive_bottlenecks

SEEDS = (0, 1, 2, 3, 4)

BENCH = dict(total_steps=200_000, batch_size=16, horizon=40, patience=1000,
             learning_rate=0.01, entropy_coef=0.05)


def bench_config(seed, **overrides):
    return ExplorationConfig(seed=seed, **{**BENCH, "alpha": 2.0, **overrides})


@pytest.fixture(scope="module")
def miniz_bench(miniz):
    """Full-budget runs on miniz: MC+IM, vanilla, and MC without IM."""
    t0 = time.time()
    mc = [exploration.mc_train(miniz, bench_config(s)) for s in SEEDS]
    vanilla = [exploration.vanilla_train(
        miniz, bench_config(s, alpha=0.0, patience=None)) for s in SEEDS]
    noim = [exploration.mc_train(miniz, bench_config(s, alpha=0.0))
            for s in SEEDS]
    return {"mc": mc, "vanilla": vanilla, "noim": noim,
            "elapsed": time.time() - t0}


@pytest.fixture(scope="module")
def deceive_bench(deceive):
    mc = [exploration.mc_train(deceive, bench_config(s)) for s in SEEDS]
    go = [exploration.go_train(deceive, bench_config(s))[0] for s in SEEDS]
    return {"mc": mc, "go": go}


# --- bottleneck detection matches a naive oracle -----------------------------


def test_bottlenecks_match_naive_oracle_within_time_budget():
    t0 = time.time()
    rng = np.random.default_rng(20260823)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        order = rng.permutation(n)
        edges = [(int(order[i]), int(order[j]))
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.3]
        rewards = {i: int(r) for i, r in
                   enumerate(rng.choice([0, 0, 0, 5, 10], size=n))}
        graph = make_graph(n, edges, rewards)
        assert bottlenecks(graph) == naive_bottlenecks(graph)
    for n in range(0, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(2 ** len(pairs)):
            edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
            for rewards in ({}, {n - 1: 10}, {0: 5},
                            {i: 5 * (i % 2) for i in range(n)}):
                graph = make_graph(n, edges, rewards)
                assert bottlenecks(graph) == naive_bottlenecks(graph)
    assert time.time() - t0 < 10.0


# --- intrinsic reward bookkeeping is exact ------------------------------------


def _miniz_trajectory(miniz):
    texts = [a.text for a in search.walkthrough(miniz)[0]]
    # a few deliberate detours on top of the optimal path
    return ["open mailbox", "take leaflet", "go south", "go north"] + texts


def test_intrinsic_reward_sums_to_global_graph_size(miniz):
    """Oracle envs sharing one global edge set walk the same trajectory:
    the first pays every triple of the set once, the second pays nothing."""
    config = ExplorationConfig(horizon=10**6)
    encoder = policy.StateEncoder(config.encoder)
    backend = extraction.make_backend("oracle", miniz)
    shared = kg.GlobalEdgeSet()
    start = exploration.game_start_launch(miniz)

    def run_once():
        env = exploration.AgentEnv(miniz, encoder, backend, shared, config, 0)
        before = len(shared)
        env.begin(start)
        total = len(shared) - before   # begin absorbs the first answers
        for text in _miniz_trajectory(miniz):
            _, r_im, _, done, _ = env.step(engine.ground(miniz, text))
            total += r_im
            if done:
                break
        return total

    first = run_once()
    assert first == len(shared)
    assert first > 0
    assert run_once() == 0


def test_env_level_intrinsic_accounting_is_exact(miniz):
    config = bench_config(0, total_steps=2000, horizon=30)
    encoder = policy.StateEncoder(config.encoder)
    backend = extraction.make_backend("oracle", miniz)
    shared = kg.GlobalEdgeSet()
    env = exploration.AgentEnv(miniz, encoder, backend, shared, config, 0)
    start = exploration.game_start_launch(miniz)
    rng = np.random.default_rng(0)
    paid = 0
    for _ in range(3):
        before = len(shared)
        env.begin(start)
        paid += len(shared) - before   # discoveries absorbed at episode start
        for _ in range(30):
            actions = sorted(engine.admissible_actions(env.state, miniz),
                             key=lambda a: a.text)
            action = actions[rng.integers(len(actions))]
            _, r_im, _, done, truncated = env.step(action)
            paid += r_im
            if done or truncated:
                break
    assert paid == len(shared)


# --- reward shaping is neutral at alpha zero ----------------------------------


def test_alpha_zero_shaped_rewards_equal_raw():
    rng = np.random.default_rng(1)
    for _ in range(200):
        r_game = int(rng.integers(0, 30))
        shaped = kg.shaped_reward(r_game, int(rng.integers(0, 100)), 50,
                                  int(rng.integers(0, 9)), alpha=0.0,
                                  eps=float(rng.random()))
        assert shaped == r_game


def test_mc_with_patience_off_and_alpha_zero_equals_vanilla(miniz):
    for seed in SEEDS:
        cfg = ExplorationConfig(seed=seed, total_steps=5000, batch_size=4,
                                horizon=30, patience=None, alpha=0.0)
        mc = exploration.mc_train(miniz, cfg)
        vanilla = exploration.vanilla_train(miniz, cfg)
        assert mc.trajectory_hash == vanilla.trajectory_hash
        assert mc.j_max == vanilla.j_max
        assert mc.steps_used == vanilla.steps_used


# --- analytic gradients match finite differences -------------------------------


def test_gradients_match_finite_differences_within_time_budget(miniz):
    t0 = time.time()
    rng = np.random.default_rng(99)
    encoder = small_encoder()
    h = 1e-5
    worst = 0.0
    for _ in range(200):
        params = random_params(miniz, rng)
        rollout = rollout_of(random_transition(miniz, params, encoder, rng)
                             for _ in range(int(rng.integers(1, 4))))
        targets = policy.prepare_targets(params, rollout)
        _, grads = policy.a2c_loss_and_grads(params, rollout, targets,
                                             entropy_coef=0.01)
        vec = params.to_vector()
        flat = np.concatenate([grads[n].ravel() for n in params.ARRAYS])
        for k in rng.choice(vec.size, size=15, replace=False):
            probe = copy.deepcopy(params)
            bumped = vec.copy()
            bumped[k] += h
            probe.from_vector(bumped)
            up, _ = policy.a2c_loss_and_grads(probe, rollout, targets,
                                              entropy_coef=0.01)
            bumped[k] -= 2 * h
            probe.from_vector(bumped)
            down, _ = policy.a2c_loss_and_grads(probe, rollout, targets,
                                                entropy_coef=0.01)
            fd = (up - down) / (2 * h)
            an = flat[k]
            # below the FD noise floor (~eps * |loss| / h) only an
            # absolute comparison is meaningful
            if max(abs(fd), abs(an)) > 1e-3:
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an)))
            else:
                assert abs(fd - an) < 1e-8
    assert worst <= 1e-4
    assert time.time() - t0 < 30.0


# --- sampled actions respect the graph mask ------------------------------------


def test_sampled_actions_respect_graph_mask(miniz):
    rng = np.random.default_rng(77)
    params = random_params(miniz, rng)
    encoder = small_encoder()
    blanks = {i: t.blanks for i, t in enumerate(miniz.templates)}
    entities = params.entities
    feats = rng.normal(0, 1, SMALL.feature_dim)
    mask = set()
    mass_checks = 0
    fallbacks = 0
    for i in range(100_000):
        if i % 250 == 0:
            feats = rng.normal(0, 1, SMALL.feature_dim)
            size = int(rng.integers(0, 7))
            mask = set(rng.choice(entities, size=size, replace=False))
            mask_idx = np.array([j for j, e in enumerate(entities)
                                 if e in mask], dtype=int)
            act_mask = policy._mask_indices(entities, mask)
            if mask_idx.size:
                x = policy._entity_context(encoder, feats, 0,
                                           params.templates[0], "")
                logits = params.w_entity @ x + params.b_entity
                logits[act_mask[1]] = policy.NEG_INF
                probs = np.exp(per_row_actor._log_softmax(logits))
                assert np.all(np.delete(probs, mask_idx) == 0.0)
                mass_checks += 1
        result = per_row_actor.act(params, feats, act_mask, rng, encoder,
                                   blanks)
        if result.mask_fallback:
            fallbacks += 1
            assert not mask   # fallback is only allowed on an empty mask
            continue
        for f in result.filler_indices:
            assert entities[f] in mask
    assert mass_checks > 300


# --- behavioral replication on the bundled games -------------------------------


def _module_event_order(game, chain):
    """Map reward event ids to the chain module index that fired them."""
    state, _, _ = engine.reset(game)
    fired_at = {}
    seen = set(state.fired_events)
    for index, module in enumerate(chain.modules):
        for text in module.actions:
            state, _, _, done, _ = engine.step_movement(
                state, engine.ground(game, text), game)
            for event_id in state.fired_events - seen:
                fired_at[event_id] = index
                seen.add(event_id)
            if done:
                break
    return fired_at


@pytest.mark.slow
def test_vanilla_and_no_im_agents_stall_below_cellar(miniz_bench):
    for name in ("vanilla", "noim"):
        scores = sorted(r.j_max for r in miniz_bench[name])
        assert statistics.median(scores) <= 35, (name, scores)


@pytest.mark.slow
def test_mc_im_clears_bottlenecks_in_order(miniz, miniz_bench):
    scores = sorted(r.j_max for r in miniz_bench["mc"])
    assert statistics.median(scores) >= 40, scores
    checked = 0
    for result in miniz_bench["mc"]:
        if result.j_max < 40:
            continue
        assert result.chain is not None
        fired_at = _module_event_order(miniz, result.chain)
        assert {"egg-score", "kitchen-score", "cellar-score"} <= set(fired_at)
        assert fired_at["egg-score"] <= fired_at["cellar-score"]
        assert fired_at["kitchen-score"] <= fired_at["cellar-score"]
        checked += 1
    assert checked >= 3


@pytest.mark.slow
def test_deceptive_game_go_does_not_beat_mc_im(deceive_bench):
    mc = statistics.median(r.j_max for r in deceive_bench["mc"])
    go = statistics.median(r.j_max for r in deceive_bench["go"])
    assert go <= mc


@pytest.mark.slow
def test_benchmark_runs_fit_the_wall_clock_budget(miniz_bench):
    assert miniz_bench["elapsed"] < 1800.0


# --- every emitted chain replays exactly ----------------------------------------


@pytest.mark.slow
def test_every_emitted_chain_replays_to_its_logged_return(
        miniz, chainworld, miniz_bench):
    chains = [(miniz, r.chain) for r in miniz_bench["mc"]
              if r.chain is not None]
    assert chains
    for seed in SEEDS:
        cfg = ExplorationConfig(seed=seed, total_steps=30_000, batch_size=8,
                                horizon=30, patience=500, alpha=2.0,
                                learning_rate=0.01, entropy_coef=0.05)
        result = exploration.mc_train(chainworld, cfg)
        assert result.chain is not None
        chains.append((chainworld, result.chain))
    for game, chain in chains:
        t1, s1, h1 = execute_chain(chain, game)
        t2, s2, h2 = execute_chain(chain, game)
        assert s1 == s2 == chain.j_max
        assert h1 == h2
        assert t1 == t2


# --- grounded-action arithmetic ---------------------------------------------------


def test_grounded_action_count_at_reference_scale():
    fake = types.SimpleNamespace(templates=tuple(
        ActionTemplate((f"verb{i}", "___", "___")) for i in range(237)))
    entities = [f"e{i}" for i in range(697)]
    count, _ = engine.enumerate_grounded(fake, entities)
    assert count == 237 * 697 ** 2
    assert count == 115_136_733


def test_grounded_action_count_matches_brute_force_on_bundled(
        miniz, chainworld, deceive):
    for game in (miniz, chainworld, deceive):
        count, it = engine.enumerate_grounded(game, game.entities)
        texts = [a.text for a in it]
        assert count == len(texts)
        assert len(set(texts)) == count


# --- dataset format fidelity --------------------------------------------------------


def test_qa_format_markers_and_lossless_round_trip(miniz):
    from questkg.cli import collect_qa_states
    records = collect_qa_states(miniz, 1000, seed=0)
    assert len(records) == 1000
    text = extraction.emit_qa_dataset(records)
    blocks = [b for b in text.split("\n\n") if b.strip()]
    assert len(blocks) == 1000
    for (ctx, _), block in zip(records, blocks):
        lines = block.splitlines()
        assert lines[0] == "Context: "
        markers = [line.split()[0] for line in lines[1:5]]
        assert markers == ["[loc]", "[inv]", "[obs]", "[atr]"]
    parsed = extraction.parse_qa_dataset(text)
    assert len(parsed) == 1000
    rebuilt = "\n\n".join(
        "\n".join(["Context: ",
                   f"[loc] {c.loc}", f"[inv] {c.inv}",
                   f"[obs] {c.obs}", f"[atr] {c.atr}"]
                  + [f"Question: {q} Answer: {a}" for q, a in qa])
        for c, qa in parsed)
    assert rebuilt == text
