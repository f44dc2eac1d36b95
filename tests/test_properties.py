"""Property tests over random action sequences on the bundled games, and
over mutated game files and chain checkpoints.

A walk mostly takes admissible actions, sometimes an arbitrary grounding
(which usually fails but still spends a turn), and after a death keeps
going with arbitrary groundings, which every replay must ignore.
"""

import base64
import copy
import functools
import json
import os
import tempfile
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import per_row_actor
from questkg import (cli, engine, exploration, extraction, games, kg, policy,
                     search)
from questkg.gamedef import (GameDef, GameParseError, GameValidationError,
                             load_game)
from questkg.exploration import (AgentEnv, ExplorationConfig,
                                 build_state_buffer, game_start_launch,
                                 launch_at, mc_train, shorten_trajectory)
from test_engine import brute_force_admissible
from test_exploration import (BENCH, MC_PINS,
                              assert_reached_by_its_actions)

GAMES = {name: games.load_bundled(name) for name in games.BUNDLED}
# walks may start with a lead-in; this one ends beside miniz's open
# trapdoor, one step from the grue
LEADS = {"miniz": ((), ("go south", "go east", "open window", "go west",
                        "go west", "open trapdoor"))}

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
ENCODER = policy.StateEncoder(ExplorationConfig().encoder)


@st.composite
def walks(draw, max_len=40, names=tuple(sorted(GAMES))):
    """(game, action texts) from reset, on one of the named games."""
    name = draw(st.sampled_from(names))
    game = GAMES[name]
    state = engine.reset(game)[0]
    texts = list(draw(st.sampled_from(LEADS.get(name, ((),)))))
    for text in texts:
        engine.step_movement(state, engine.ground(game, text), game)
    for _ in range(draw(st.integers(0, max_len))):
        options = sorted(a.text for a in engine.admissible_actions(
            state, game)) if state.alive else []
        if options and draw(st.integers(0, 3)):
            text = draw(st.sampled_from(options))
        else:
            template = draw(st.sampled_from(game.templates))
            fillers = [draw(st.sampled_from(game.entities))
                       for _ in range(template.blanks)]
            text = template.ground_text(fillers)
        texts.append(text)
        if state.alive:
            engine.step_movement(state, engine.ground(game, text), game)
    return game, texts


def alive_prefix(game, texts):
    """The actions up to and including the one that ends the game."""
    state = engine.reset(game)[0]
    for i, text in enumerate(texts):
        if engine.step_movement(state, engine.ground(game, text), game)[3]:
            return texts[:i + 1]
    return texts


def restart_shorten(game, actions_from_reset):
    """Loop removal by restarting from reset after every splice: the
    reference that the one-pass shorten_trajectory must match."""
    backend = extraction.make_backend("oracle", game)
    actions = list(actions_from_reset)
    changed = True
    while changed:
        changed = False
        state, obs, _ = engine.reset(game)
        graph = kg.KnowledgeGraph()
        kg.apply_answers(graph, kg.answer_triples(backend(state, obs)))
        seen = {(engine.state_hash(state), kg.kg_hash(graph)): 0}
        for i, text in enumerate(actions):
            state, obs, _, done, movement = engine.step_movement(
                state, engine.ground(game, text), game)
            kg.apply_answers(graph, kg.answer_triples(backend(state, obs)),
                             movement=movement)
            key = (engine.state_hash(state), kg.kg_hash(graph))
            if key in seen:
                del actions[seen[key]:i + 1]
                changed = True
                break
            seen[key] = i + 1
            if done:
                break
    return actions


def replay(game, launch, action_texts, backend=None):
    """Replay action texts from a launch, yielding (i, state, graph) after
    each of the first i actions, from i = 0 (the launch itself) until the
    texts run out or a step ends the game.

    With a backend the graph starts as the launch graph plus the answers
    for the launch observation and takes the answers after every step;
    without one it is None.  state and graph are mutated in place.  The
    reference for the oracle env that exploration walks recorded actions
    in, which skips the backend after a step that changed nothing.
    """
    state = engine.restore(engine.snapshot(launch.state))
    graph = None
    if backend is not None:
        graph = kg.KnowledgeGraph(launch.graph_triples)
        kg.apply_answers(graph, kg.answer_triples(
            backend(state, engine.observe(state, game))))
    yield 0, state, graph
    for i, text in enumerate(action_texts, start=1):
        state, obs, _, done, movement = engine.step_movement(
            state, engine.ground(game, text), game)
        if graph is not None:
            kg.apply_answers(graph, kg.answer_triples(backend(state, obs)),
                             movement=movement)
        yield i, state, graph
        if done:
            return


def replay_buffer(game, actions_from_reset, capacity):
    """The state buffer as (snapshot, triples, score, prefix length) rows,
    built on the reference replay."""
    oracle = extraction.make_backend("oracle", game)
    rows, seen = [], set()
    for i, state, graph in replay(game, game_start_launch(game),
                                  actions_from_reset, oracle):
        key = (engine.state_hash(state), kg.kg_hash(graph))
        if state.alive and key not in seen:
            seen.add(key)
            rows.append((engine.snapshot(state), frozenset(graph.triples),
                         state.score, i))
    return rows[-capacity:]


@PROPERTY
@given(walks())
def test_step_movement_reports_each_room_change(walk):
    game, texts = walk
    state = engine.reset(game)[0]
    for text in alive_prefix(game, texts):
        action = engine.ground(game, text)
        origin = state.current_room
        movement = engine.step_movement(state, action, game)[4]
        if state.current_room == origin:
            assert movement is None
        else:
            assert movement == (origin, action.fillers[0], state.current_room)


@PROPERTY
@given(walks())
def test_snapshot_restore_round_trips(walk):
    game, texts = walk
    state = engine.reset(game)[0]
    for text in alive_prefix(game, texts):
        blob = engine.snapshot(state)
        copy = engine.restore(blob)
        assert engine.snapshot(copy) == blob
        assert engine.state_hash(copy) == engine.state_hash(state)
        action = engine.ground(game, text)
        got = engine.step_movement(copy, action, game)
        want = engine.step_movement(state, action, game)
        assert got[1:] == want[1:]
        assert engine.snapshot(copy) == engine.snapshot(state)


@PROPERTY
@given(walks(), st.integers(1, 1000))
def test_state_hash_ignores_the_turn_counter(walk, extra):
    game, texts = walk
    for _, state, _ in replay(game, game_start_launch(game), texts):
        later = engine.restore(engine.snapshot(state))
        later.turn += extra
        assert engine.state_hash(later) == engine.state_hash(state)
        assert engine.snapshot(later) != engine.snapshot(state)


def launch_on(game, texts, cut):
    """The launch at the cut-th state of the walk's replay, if it is alive,
    else the game start; and the texts after it."""
    oracle = extraction.make_backend("oracle", game)
    launch, rest = game_start_launch(game), texts
    for i, state, graph in replay(game, launch, texts, oracle):
        if i == min(cut, len(texts)) and state.alive:
            launch, rest = launch_at(state, graph), texts[i:]
    return launch, rest


def make_env(game, backend=None, memo=None):
    config = ExplorationConfig(alpha=0.0, horizon=10**9)
    return AgentEnv(game, policy.StateEncoder(config.encoder),
                    backend or extraction.make_backend("oracle", game),
                    kg.GlobalEdgeSet(), config, 0, memo)


@PROPERTY
@given(walks(), st.integers(0, 40))
def test_replay_graph_matches_an_agent_env(walk, cut):
    game, texts = walk
    oracle = extraction.make_backend("oracle", game)
    launch, rest = launch_on(game, texts, cut)
    env = make_env(game, oracle)
    env.begin(launch)
    for text in rest:
        if env.step(engine.ground(game, text))[3]:
            break
    for _, state, graph in replay(game, launch, rest, oracle):
        pass
    assert graph.triples == env.graph.triples
    assert engine.snapshot(state) == engine.snapshot(env.state)


def counted(backend):
    """A pure backend that records its calls, and the list of them."""
    calls = []

    def answer(state, obs):
        calls.append(state)
        return backend(state, obs)
    answer.pure = True
    return answer, calls


def begun(env):
    """Everything begin builds, in a form compared bit for bit."""
    fallback, off = env.mask()
    return (env.graph.triples, kg.kg_hash(env.graph),
            env.tracker.total.tobytes(), env.tracker.count,
            fallback, off.tobytes(),
            env.feats().tobytes())


def entity_counts(graph):
    return Counter(token for t in graph.triples
                   for token in (t.subject, t.object))


def assert_mask_is_fresh(env):
    fallback, off = env.mask()
    want_fallback, want_off = policy._mask_indices(env.game.entities,
                                                   entity_counts(env.graph))
    assert fallback == want_fallback and np.array_equal(off, want_off)


@PROPERTY
@given(walks(), st.integers(0, 40))
def test_a_second_begin_from_a_launch_equals_a_fresh_begin(walk, cut):
    """An env that shares the memo begins from a launch another env began
    from without asking the backend, and holds what a memo-free begin
    builds; the arrays the memo shares are read-only."""
    game, texts = walk
    launch, rest = launch_on(game, texts, cut)
    backend, calls = counted(extraction.make_backend("oracle", game))
    memo = exploration.RunMemo()
    env, second = make_env(game, backend, memo), make_env(game, backend, memo)
    env.begin(launch)
    for text in rest:
        if env.step(engine.ground(game, text))[3]:
            break
    asked = len(calls)
    second.begin(launch)
    env.begin(launch)
    assert len(calls) == asked      # neither begin asks the backend
    fresh_env = make_env(game)
    fresh_env.begin(launch)
    assert begun(second) == begun(env) == begun(fresh_env)
    assert not second.mask()[1].flags.writeable
    assert not second.tracker.summary().flags.writeable


@PROPERTY
@given(walks(), st.integers(0, 40))
def test_a_memoised_env_keeps_the_graph_and_mask_of_a_memo_free_one(walk,
                                                                    cut):
    """One env fills the memo along the walk, a second that shares it
    walks again on what the first stored, and both hold what a memo-free
    env holds after every step."""
    game, texts = walk
    launch, rest = launch_on(game, texts, cut)
    memo = exploration.RunMemo()
    for env in (make_env(game, memo=memo), make_env(game, memo=memo)):
        plain = make_env(game)
        env.begin(launch)
        plain.begin(launch)
        assert begun(env) == begun(plain)
        for text in rest:
            action = engine.ground(game, text)
            done = env.step(action)[3]
            assert plain.step(action)[3] == done
            assert begun(env) == begun(plain)
            if done:
                break


@PROPERTY
@given(walks(), st.integers(0, 40))
def test_the_cached_mask_is_the_mask_of_the_graph(walk, cut):
    game, texts = walk
    launch, rest = launch_on(game, texts, cut)
    env = make_env(game, memo=exploration.RunMemo())
    for _ in range(2):          # a fresh begin, then one from the memo
        env.begin(launch)
        assert_mask_is_fresh(env)
        for text in rest:
            done = env.step(engine.ground(game, text))[3]
            assert_mask_is_fresh(env)
            if done:
                break


@PROPERTY
@given(st.sampled_from(sorted(GAMES)), st.integers(0, 2**32 - 1), st.data())
@example("miniz", 0, None)
def test_act_records_the_entity_contexts_of_its_picks(name, seed, data):
    """The learner trains on act's recorded contexts and mask, so they must
    be the decode walk rebuilt along the picks, bit for bit, and the mask's
    complement (all of the vocabulary for an empty mask)."""
    game = GAMES[name]
    names = set() if data is None else data.draw(
        st.sets(st.sampled_from(game.entities)))
    rng = np.random.default_rng(seed)
    params = policy.init_params(game, ENCODER.config)
    for array in params.ARRAYS:
        getattr(params, array)[...] = rng.normal(
            0, 1, getattr(params, array).shape)
    blanks = {i: t.blanks for i, t in enumerate(game.templates)}
    fallback, off = mask = policy._mask_indices(params.entities, names)
    assert fallback == (not names)
    assert off.tolist() == [bool(names) and e not in names
                            for e in params.entities]
    uniforms = policy.Uniforms(rng)
    for _ in range(20):
        feats = rng.normal(0, 1, ENCODER.config.feature_dim)
        result = policy.act(params, feats, mask, uniforms, ENCODER, blanks)
        template = params.templates[result.template_index]
        assert len(result.contexts) == len(result.filler_indices) == \
            blanks[result.template_index]
        prev = ""
        for position, (x, e_idx) in enumerate(zip(result.contexts,
                                                  result.filler_indices)):
            assert not off[e_idx]
            assert x.tobytes() == policy._entity_context(
                ENCODER, feats, position, template, prev).tobytes()
            prev = params.entities[e_idx]


def act_fields(result):
    return (result.template_index, result.filler_indices,
            result.mask_fallback, tuple(x.tobytes() for x in result.contexts))


@PROPERTY
@given(st.sampled_from(sorted(GAMES)), st.integers(0, 2**32 - 1),
       st.sampled_from((0.1, 1.0, 10.0)), st.integers(1, 20), st.data())
@example("miniz", 0, 1.0, 64, None)
def test_act_batch_is_successive_act_calls_bit_for_bit(name, seed, scale,
                                                       rows, data):
    """act_batch decides its rows with stacked products and row-wise cdfs
    from a stream of uniforms, but must give each row the ActResult the
    per-row reference actor gives it from the stream's generator, context
    bytes included, and use exactly the uniforms the reference drew.  The
    rows are decided in calls of drawn sizes, one-row act calls among them,
    from a stream whose small block makes refills fall inside calls.  Masks
    vary by row; an empty one forces the fallback."""
    game = GAMES[name]
    rng = np.random.default_rng(seed)
    params = policy.init_params(game, ENCODER.config)
    params.from_vector(rng.normal(0, scale, params.to_vector().size))
    blanks = {i: t.blanks for i, t in enumerate(game.templates)}
    if data is None:
        names = [set() if i % 3 == 0 else set(rng.choice(game.entities, 6))
                 for i in range(rows)]
        sizes = [1, 1, 9, 1, rows]
    else:
        names = [data.draw(st.sets(st.sampled_from(game.entities)))
                 for _ in range(rows)]
        sizes = data.draw(st.lists(st.integers(1, rows), min_size=1))
    masks = [policy._mask_indices(params.entities, n) for n in names]
    feats = [rng.normal(0, 1, ENCODER.config.feature_dim)
             for _ in range(rows)]
    theirs = np.random.default_rng(seed + 1)
    ours = policy.Uniforms(np.random.default_rng(seed + 1))
    ours.block = 7
    expected = [per_row_actor.act(params, f, mask, theirs, ENCODER, blanks)
                for f, mask in zip(feats, masks)]
    got, start = [], 0
    for size in sizes + [rows]:
        end = min(start + size, rows)
        if end - start == 1:
            got.append(policy.act(params, feats[start], masks[start], ours,
                                  ENCODER, blanks))
        elif end > start:
            got += policy.act_batch(params, feats[start:end],
                                    masks[start:end], ours, ENCODER, blanks)
        start = end
    assert list(map(act_fields, got)) == list(map(act_fields, expected))
    assert ours.position == sum(1 + len(r.filler_indices) for r in expected)
    assert ours.window(1)[0] == theirs.random()
    # a pick rarely moves with the last bit of a logit, so the heads'
    # stacked products and cdf rows are held to the reference's one-row
    # ones directly
    C = np.array([x for r in expected for x in r.contexts]).reshape(
        -1, params.w_entity.shape[1])
    for w, X in ((params.w_template, np.array(feats)), (params.w_entity, C)):
        logits = policy._gemv_rows(w, X)
        assert logits.tobytes() == b"".join((w @ x).tobytes() for x in X)
        assert policy._cdf_rows(logits).tobytes() == b"".join(
            per_row_actor._cdf(row).tobytes() for row in logits)
    if data is None:    # the example decodes every blank count and mask
        assert {len(r.filler_indices) for r in got} == {0, 1, 2}
        assert {r.mask_fallback for r in got} == {False, True}


def encoder_calls(game, texts, data):
    """(method, arguments) of the encoder calls a walk makes: the messages
    of the triples and the vectors of the observation texts it holds, and
    some drawn context tails of the game's templates and entities."""
    calls = {}
    for env in exploration._walk(game, ENCODER, texts):
        for t in env.graph.triples:
            calls["message", (t,)] = None
        obs = env.obs
        for text in (obs.desc, obs.feedback, obs.inv, obs.prev_action):
            calls["text_vector", (text,)] = None
    tails = data.draw(st.lists(st.tuples(
        st.booleans(), st.sampled_from([t.pattern for t in game.templates]),
        st.sampled_from(("", *game.entities))), max_size=10))
    for key in tails:
        calls["context_tail", key] = None
    return list(calls)


@PROPERTY
@given(walks(), st.data())
def test_a_warm_encoder_returns_the_bits_of_a_fresh_one(walk, data):
    """Every cached vector is seeded from its own key alone, so an encoder
    that computed other keys first, in any order and on any game, returns
    what a fresh encoder computes: the one shared encoder per config gives
    every caller the bits it would get from its own."""
    game, texts = walk
    others = tuple(name for name in sorted(GAMES) if name != game.name)
    other_game, other_texts = data.draw(walks(names=others))
    calls = encoder_calls(game, texts, data)
    warm = policy.StateEncoder(ENCODER.config)
    for name, args in data.draw(st.permutations(
            calls + encoder_calls(other_game, other_texts, data))):
        getattr(warm, name)(*args)
    for name, args in calls:
        fresh = policy.StateEncoder(ENCODER.config)
        assert getattr(warm, name)(*args).tobytes() == \
            getattr(fresh, name)(*args).tobytes()
    fresh = policy.StateEncoder(ENCODER.config)
    for a, b in zip(exploration._walk(game, warm, texts),
                    exploration._walk(game, fresh, texts)):
        assert a.feats().tobytes() == b.feats().tobytes()


def generator_of(backend):
    """The numpy Generator a backend closes over."""
    return next(c.cell_contents for c in backend.__closure__
                if isinstance(c.cell_contents, np.random.Generator))


@PROPERTY
@given(walks(), st.integers(0, 40))
def test_an_impure_backend_is_asked_on_every_begin(walk, cut):
    game, texts = walk
    launch, _ = launch_on(game, texts, cut)
    noisy = extraction.make_backend("noisy", game, seed=5)
    twin = extraction.make_backend("noisy", game, seed=5)
    env = make_env(game, noisy)
    env.begin(launch)
    env.begin(launch)
    state = launch.state.copy()
    obs = engine.observe(state, game)
    twin(state, obs)
    twin(state, obs)
    assert generator_of(noisy).bit_generator.state == \
        generator_of(twin).bit_generator.state


class OneKey(dict):
    """A memo map that files every key under one: once anything is stored,
    every lookup hits."""

    def get(self, key, default=None):
        return super().get(None, default)

    def __setitem__(self, key, value):
        super().__setitem__(None, value)


def mc_hash_with_one_key(monkeypatch, name):
    """The pinned MC run's trajectory hash with the RunMemo map `name`
    keyed by one constant."""
    real_init = exploration.RunMemo.__init__

    def init(self):
        real_init(self)
        setattr(self, name, OneKey())

    monkeypatch.setattr(exploration.RunMemo, "__init__", init)
    config = ExplorationConfig(seed=3, total_steps=20_000,
                               **{**BENCH, "alpha": 2.0})
    return mc_train(GAMES["miniz"], config).trajectory_hash


def test_a_memo_that_hits_on_any_launch_moves_a_pinned_mc_hash(monkeypatch):
    """Mutation check: the begins map's key matters.  Keyed by a constant,
    every begin after the first is a hit on a stale graph."""
    assert mc_hash_with_one_key(monkeypatch, "begins") != \
        MC_PINS[3]["trajectory_hash"]


@pytest.mark.parametrize("name", ["answers", "masks"])
def test_a_memo_map_with_one_key_moves_a_pinned_mc_hash(monkeypatch, name):
    """Mutation check: the answers and masks maps' keys matter.  Keyed by a
    constant, every full step puts the first state's answers in the graph,
    or every env acts on the first graph's mask."""
    assert mc_hash_with_one_key(monkeypatch, name) != \
        MC_PINS[3]["trajectory_hash"]


def truncate_at_peak(game, launch, action_texts):
    """Drop the trailing actions after the last score gain.  Returns them
    with the final score, or the launch score when nothing was gained: the
    replay vanilla_train once ran on every improving episode, and the
    reference for AgentEnv.last_gain."""
    last_gain, score = 0, launch.state.score
    for i, state, _ in replay(game, launch, action_texts):
        if state.score > score:
            last_gain = i
        score = state.score
    return list(action_texts[:last_gain]), score if last_gain else \
        launch.state.score


@PROPERTY
@given(walks(), st.integers(0, 40))
def test_last_gain_is_where_a_replay_of_the_episode_peaks(walk, cut):
    game, texts = walk
    launch, rest = launch_on(game, texts, cut)
    env = make_env(game)
    env.begin(launch)
    for text in rest:
        done = env.step(engine.ground(game, text))[3]
        gained = env.episode_actions[:env.last_gain]
        final = env.state.score if env.last_gain else launch.state.score
        assert (gained, final) == truncate_at_peak(game, launch,
                                                   env.episode_actions)
        if done:
            break


def rows(entries):
    return [(engine.snapshot(e.state), e.graph_triples, e.state.score,
             len(e.actions))
            for e in entries]


@PROPERTY
@given(walks(max_len=60))
@example((GAMES["miniz"], [*LEADS["miniz"][1], "go down", "wait"]))
def test_one_pass_shorten_matches_restart_reference(walk):
    """The one walk gives what a walk of the restart reference's actions
    gives: its pairs, snapshot bytes included, and its end state."""
    game, texts = walk
    kept, path, end = shorten_trajectory(game, texts, ENCODER)
    reference = restart_shorten(game, texts)
    assert kept == reference
    alive = path if end.alive else path[:-1]
    assert rows(alive) == replay_buffer(game, reference, len(texts) + 1)
    assert [len(e.actions) for e in path] == list(range(len(path)))
    for launch in path:
        assert_reached_by_its_actions(game, launch)
    *_, (_, reference_end, _) = replay(game, game_start_launch(game),
                                       reference)
    assert engine.state_hash(end) == engine.state_hash(reference_end)


@PROPERTY
@given(walks(), st.sampled_from((1, 4, 40)))
@example((GAMES["miniz"], [*LEADS["miniz"][1], "go down", "wait"]), 40)
def test_state_buffer_matches_the_replay_reference(walk, capacity):
    game, texts = walk
    entries = build_state_buffer(*shorten_trajectory(game, texts,
                                                     ENCODER)[1:], capacity)
    assert rows(entries) == replay_buffer(game, restart_shorten(game, texts),
                                          capacity)


LOOPWORLD = """questgame 1

[meta]
name loopworld
start hall
max-score 1

[room hall]
name Hall
desc A hall whose east door opens back onto the hall.
exit east hall
exit north yard

[room yard]
name Yard
desc An open yard.
exit south hall

[templates]
go ___
wait

[event reach-yard]
when at yard
reward 1
"""


def test_self_loop_exit_reports_no_movement():
    game = load_game(LOOPWORLD)
    state = engine.reset(game)[0]
    *_, movement = engine.step_movement(state, engine.ground(game, "go east"),
                                        game)
    assert movement is None
    assert state.current_room == "hall" and state.turn == 1
    oracle = extraction.make_backend("oracle", game)
    *_, (_, _, graph) = replay(game, game_start_launch(game),
                               ["go east", "go north"], oracle)
    relations = {t.relation for t in graph.triples}
    assert "north of" in relations and "east of" not in relations


PITFALL = """questgame 1

[meta]
name pitfall
start pit
max-score 1

[room pit]
name Pit
desc A pit. Something breathes in the dark below.
exit up ledge

[room ledge]
name Ledge
desc A narrow ledge above the pit.
exit down pit

[templates]
go ___
wait

[event reach-ledge]
when at ledge
reward 1

[death pit]
when at pit
text Something in the pit eats you.
"""


def test_a_start_state_that_satisfies_a_death_rule_dies_on_its_first_step():
    """reset and restore leave states unsettled: the death loop runs on
    their first step even when the action touches nothing."""
    game = load_game(PITFALL)
    wait = engine.ground(game, "wait")
    state = engine.reset(game)[0]
    _, obs, reward, done, _ = engine.step_movement(state, wait, game)
    assert done and not state.alive and reward == 0
    assert obs.feedback.endswith("Something in the pit eats you.")
    oracle = extraction.make_backend("oracle", game)
    config = ExplorationConfig(alpha=0.0)
    env = AgentEnv(game, policy.StateEncoder(config.encoder), oracle,
                   kg.GlobalEdgeSet(), config, 0)
    env.begin(game_start_launch(game))
    assert env.step(wait)[3]
    assert env.needs_reset and not env.state.alive


@PROPERTY
@given(walks())
def test_admissible_actions_are_the_state_changing_groundings(walk):
    game, texts = walk
    for _, state, _ in replay(game, game_start_launch(game), texts):
        if state.alive:
            blob = engine.snapshot(state)
    state = engine.restore(blob)
    groundings = engine.enumerate_grounded(game, game.entities)[1]
    touched = {a.text for a in groundings
               if engine._apply_verb(engine.restore(blob), game, a)[2]}
    assert {a.text for a in engine.admissible_actions(state, game)} == \
        brute_force_admissible(state, game) == touched


@PROPERTY
@given(walks(), st.data())
def test_admissible_actions_of_some_templates_are_the_full_set_filtered(
        walk, data):
    game, texts = walk
    templates = data.draw(st.lists(st.sampled_from(game.templates),
                                   unique=True))
    for _, state, _ in replay(game, game_start_launch(game), texts):
        if state.alive:
            assert engine.admissible_actions(state, game, templates) == {
                a for a in engine.admissible_actions(state, game)
                if a.template in templates}


def fresh(state):
    """A copy of the state with nothing cached."""
    return engine.restore(engine.snapshot(state))


def walk_steps(game, texts):
    """(state, action, touched, result) for each step of the alive prefix
    of a walk from reset: the state before the step (a fresh copy), the
    engine's touched report, and step_movement's result."""
    state = engine.reset(game)[0]
    for text in alive_prefix(game, texts):
        action = engine.ground(game, text)
        before = fresh(state)
        touched = engine._apply_verb(fresh(state), game, action)[2]
        yield before, action, touched, engine.step_movement(state, action,
                                                            game)


@PROPERTY
@given(walks())
def test_an_untouched_step_keeps_the_state_hash_and_the_answers(walk):
    game, texts = walk
    for before, _, touched, (state, *_) in walk_steps(game, texts):
        if not touched:
            after = fresh(state)
            assert engine.state_hash(after) == engine.state_hash(before)
            assert extraction.oracle_answer(after, game) == \
                extraction.oracle_answer(before, game)


@PROPERTY
@given(walks())
def test_touched_is_membership_in_the_admissible_actions(walk):
    game, texts = walk
    for before, action, touched, _ in walk_steps(game, texts):
        assert touched == (action in engine.admissible_actions(before,
                                                               game))


@PROPERTY
@given(walks())
def test_a_step_reports_what_a_fresh_copy_renders_and_hashes(walk):
    game, texts = walk
    for before, action, _, (state, obs, reward, done, movement) in \
            walk_steps(game, texts):
        copy = fresh(state)
        assert obs.desc == engine.render_look(copy, game)
        assert obs.inv == engine.render_inventory(copy, game)
        assert engine.state_hash(state) == engine.state_hash(copy)
        # the full step from an unsettled copy of the state before agrees
        assert engine.step_movement(before, action, game)[1:] == \
            (obs, reward, done, movement)


def reference_visible_objects(state, game):
    """The visible objects as a list, built the way the engine once did."""
    if not engine.has_light(state, game):
        return []
    here = ("room", state.current_room)
    out = []
    for obj_id in game.object_ids:
        loc = state.object_locations[obj_id]
        if loc == here:
            out.append(obj_id)
        elif loc[0] == "in":
            container = loc[1]
            if (state.object_locations.get(container) == here
                    and engine._is_open(state, container)):
                out.append(obj_id)
    return out


def look_text(state, game, reward, done):
    """The feedback of a look or go step that ends in the state: the room
    description, then the score and death text the step adds."""
    text = engine.render_look(state, game)
    if reward:
        text += f" [Your score has just gone up by {reward} points.]"
    if done:
        text += "\n" + next(rule.text for rule in game.deaths
                            if rule.condition.holds(state))
    return text


@pytest.mark.parametrize("name", sorted(GAMES))
def test_every_searched_state_sees_and_looks_as_the_reference(name):
    """Over every state the search reaches (deterministic and exhaustive):
    the one-object visibility test is membership in the visible list, and
    a look or a go that passes an exit has the room description as its
    feedback, from an unsettled copy (full step) and from a copy that keeps
    the state's view (the fast path of an untouched step)."""
    game = GAMES[name]
    for _, state, _, _ in list(search._bfs(game)):
        visible = reference_visible_objects(state, game)
        assert engine.visible_objects(state, game) == visible
        for obj_id in game.object_ids:
            assert engine._is_visible(state, game, obj_id) == \
                (obj_id in visible)
        if not state.alive:
            continue
        room = game.rooms[state.current_room]
        texts = ["look", *(f"go {d}" for d, ex in sorted(room.exits.items())
                           if ex.condition is None or ex.condition.holds(state))]
        for text in texts:
            action = engine.ground(game, text)
            for view in {None, state.view}:
                probe = state.copy()
                probe.view = view
                after, obs, reward, done, _ = engine.step_movement(
                    probe, action, game)
                assert obs.desc == engine.render_look(after, game)
                assert obs.feedback == look_text(after, game, reward, done)


# tokens a mutation may put in place of a word of a game file
ODD_TOKENS = ("[", "]", "[]", "[ ]", "#", "=", "&", "!", "if", "else", "-1",
              "x", "___", "vertex", "edge", "exit", "when", "reward", "loc")


@st.composite
def mutated_game_files(draw):
    """The bytes of a bundled game file after a few line-level edits."""
    lines = games.bundled_game_text(
        draw(st.sampled_from(games.BUNDLED))).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("delete", "copy", "word", "text")))
        if edit == "delete":
            del lines[i]
        elif edit == "copy":
            lines.insert(i, lines[draw(st.integers(0, len(lines) - 1))])
        elif edit == "word" and lines[i].split():
            words = lines[i].split()
            j = draw(st.integers(0, len(words) - 1))
            pool = draw(st.sampled_from(lines)).split() or ["x"]
            words[j] = draw(st.sampled_from(ODD_TOKENS + tuple(pool)))
            lines[i] = " ".join(words)
        else:
            cut = draw(st.integers(0, len(lines[i])))
            lines[i] = (lines[i][:cut]
                        + draw(st.text("[]#=&! \nab0-_\xe9", max_size=8))
                        + lines[i][cut:])
        if not lines:
            break
    return "\n".join(lines).encode()


MINIZ_BYTES = games.bundled_game_text("miniz").encode()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated_game_files())
@example(b"# a file of comments\n\n   \n# and blank lines\n")
@example(MINIZ_BYTES + b"\n[]\n")
@example(MINIZ_BYTES + b"\n[ ]\nname x\n")
@example(MINIZ_BYTES.replace(b"West of House", b"West of H\xf6use", 1))
@example(MINIZ_BYTES + b"\nedge painting cellar\n")
def test_malformed_game_files_raise_typed_errors(blob):
    fd, path = tempfile.mkstemp(suffix=".game")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        game = games.load_path(path)
    except (GameParseError, GameValidationError):
        return
    finally:
        os.remove(path)
    assert isinstance(game, GameDef)


@functools.cache
def walkthrough_chain_doc(name):
    game = GAMES[name]
    texts = [a.text for a in search.walkthrough(game)[0]]
    chain = exploration.build_chain(game, ENCODER, ExplorationConfig(), texts)
    return json.loads(exploration.save_chain(chain))


def chain_with(name, module, field, value, key=None):
    """The bytes of a walkthrough chain whose module's snapshot has value in
    place of field, or of field[key] when a key (an index: an insertion) is
    given."""
    doc = copy.deepcopy(walkthrough_chain_doc(name))
    entry = doc["modules"][module]
    snap = json.loads(base64.b64decode(entry["snapshot"]))
    if key is None:
        snap[field] = value
    elif isinstance(snap[field], list):
        snap[field].insert(key, value)
    else:
        snap[field][key] = value
    entry["snapshot"] = base64.b64encode(json.dumps(snap).encode()).decode()
    return json.dumps(doc).encode()


# values a mutation may put in place of a snapshot field or of one part
ODD_VALUES = (None, True, False, 0, -1, 7, 1.5, "", "x", "inv", [], ["a"],
              [1.5], ["inv"], ["room"], ["room", 1], ["in", "x"],
              ["room", "x", "y"], {}, {"x": "y"}, {"x": True})
CHAIN_GAMES = ("chainworld", "deceive")


@st.composite
def mutated_chain_files(draw):
    """(game name, the bytes of its walkthrough chain) with one field of one
    module's snapshot, or one part of that field, replaced by an odd value."""
    name = draw(st.sampled_from(CHAIN_GAMES))
    modules = walkthrough_chain_doc(name)["modules"]
    module = draw(st.integers(0, len(modules) - 1))
    snap = json.loads(base64.b64decode(modules[module]["snapshot"]))
    field = draw(st.sampled_from(sorted(set(snap) - {"v"})))
    part, key = snap[field], None
    if isinstance(part, (dict, list)) and draw(st.booleans()):
        key = (draw(st.integers(0, len(part))) if isinstance(part, list)
               else draw(st.sampled_from(sorted(part) + ["x"])))
    return name, chain_with(name, module, field,
                            draw(st.sampled_from(ODD_VALUES)), key)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated_chain_files())
@example(("chainworld", chain_with("chainworld", 1, "objects",
                                   {"pebble": []})))
@example(("chainworld", chain_with("chainworld", 1, "room", ["a"])))
@example(("chainworld", chain_with("chainworld", 1, "turn", "x")))
@example(("chainworld", chain_with("chainworld", 1, "score", ["a"])))
@example(("chainworld", chain_with("chainworld", 1, "fired", [1.5])))
@example(("chainworld", chain_with("chainworld", 1, "flags", {"x": "y"})))
@example(("chainworld", chain_with("chainworld", 1, "alive", False)))
@example(("chainworld", chain_with("chainworld", 1, "fired", "x", 1)))
@example(("chainworld", chain_with("chainworld", 1, "flags", {"x": True})))
@example(("chainworld", chain_with("chainworld", 1, "objects", ["in", "x"],
                                   "pebble")))
@example(("chainworld", chain_with("chainworld", 1, "objects",
                                   ["room", "nowhere"], "pebble")))
def test_mutated_chain_files_raise_typed_errors(case):
    """load_chain raises only ValueError (a SnapshotError among them), and
    execute_chain on what it loads only ChainExecutionError."""
    name, blob = case
    try:
        chain = exploration.load_chain(blob)
    except ValueError:
        return
    try:
        exploration.execute_chain(chain, GAMES[name])
    except exploration.ChainExecutionError:
        pass


@pytest.mark.parametrize("field, value, key, named", [
    ("room", ["a"], None, "room"), ("score", "1", None, "score"),
    ("fired", [1.5], None, "fired"), ("flags", {"x": "y"}, None, "flags.x"),
    ("objects", [], "pebble", "objects.pebble")])
def test_load_chain_raises_the_snapshot_error_naming_the_field(field, value,
                                                               key, named):
    with pytest.raises(engine.SnapshotError) as raised:
        exploration.load_chain(chain_with("chainworld", 1, field, value, key))
    assert type(raised.value) is engine.SnapshotError
    assert str(raised.value).startswith(f"snapshot field {named}: ")


def test_execute_chain_names_what_the_game_lacks():
    """A well-typed launch naming an event, a flag or a place the game lacks
    is rejected by name; unchecked, each of these four (the last @examples
    above) replays to the recorded score along another trajectory."""
    for (field, value, key), named in [
            (("fired", "x", 1), "event 'x'"),
            (("flags", {"x": True}, None), "flag 'x'"),
            (("objects", ["in", "x"], "pebble"), "place ['in', 'x']"),
            (("objects", ["room", "nowhere"], "pebble"),
             "place ['room', 'nowhere']")]:
        chain = exploration.load_chain(
            chain_with("chainworld", 1, field, value, key))
        with pytest.raises(exploration.ChainExecutionError) as raised:
            exploration.execute_chain(chain, GAMES["chainworld"])
        assert str(raised.value) == (f"module 1: launch names {named}, "
                                     f"which game 'chainworld' lacks")


def test_replay_chain_names_the_snapshot_field(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_bytes(chain_with("chainworld", 1, "objects", {"pebble": []}))
    assert cli.main(["replay-chain", str(path), "--game", "chainworld"]) == 1
    assert "snapshot field objects.pebble" in capsys.readouterr().err
