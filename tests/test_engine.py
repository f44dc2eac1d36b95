import itertools

import pytest

from questkg import engine, search
from questkg.engine import (GroundedAction, admissible_actions,
                            enumerate_grounded, ground, reset, restore,
                            snapshot, state_hash, step, step_movement)
from questkg.gamedef import load_game


def play(game, texts):
    state, obs, _ = reset(game)
    rewards = []
    for text in texts:
        state, obs, reward, done = step(state, ground(game, text), game)
        rewards.append(reward)
        if done:
            break
    return state, obs, rewards


def test_reset_is_deterministic(miniz):
    a, obs_a, init_a = reset(miniz)
    b, obs_b, init_b = reset(miniz)
    assert snapshot(a) == snapshot(b)
    assert obs_a == obs_b
    assert init_a == init_b == 0


def test_step_sequence_is_deterministic(miniz):
    script = ["open mailbox", "take leaflet", "go south", "go east",
              "open window", "go west"]
    s1, o1, r1 = play(miniz, script)
    s2, o2, r2 = play(miniz, script)
    assert snapshot(s1) == snapshot(s2)
    assert o1 == o2
    assert r1 == r2


def test_snapshot_round_trip_is_bit_exact(miniz):
    state, _, _ = play(miniz, ["open mailbox", "take leaflet"])
    snap = snapshot(state)
    clone = restore(snap)
    assert snapshot(clone) == snap
    # the restored state is independent of the original
    step(clone, ground(miniz, "drop leaflet"), miniz)
    assert snapshot(restore(snap)) == snap


def test_restore_rejects_wrong_version(miniz):
    state, _, _ = reset(miniz)
    bad = snapshot(state).replace(b'"v":1', b'"v":2')
    with pytest.raises(engine.SnapshotError):
        restore(bad)


@pytest.mark.parametrize("blob", [
    b"\xff\x00", b"", b"not json", b"[1, 2]", b'{"v": 1}',
    b'{"v":1,"room":"hall","objects":3,"flags":{},"score":0,"turn":0,'
    b'"alive":true,"fired":[]}',
])
def test_restore_rejects_garbage(blob):
    with pytest.raises(engine.SnapshotError):
        restore(blob)


def test_state_hash_ignores_turn_counter(miniz):
    a, _, _ = play(miniz, ["wait"])
    b, _, _ = play(miniz, ["wait", "wait"])
    assert a.turn != b.turn
    assert state_hash(a) == state_hash(b)


def test_failed_actions_consume_a_turn_without_state_change(miniz):
    state, _, _ = reset(miniz)
    before = state_hash(state)
    state, obs, reward, done = step(state, ground(miniz, "go up"), miniz)
    assert state_hash(state) == before
    assert state.turn == 1
    assert reward == 0 and not done
    assert obs.feedback == "You can't go that way."


def test_blocked_conditional_exit(miniz):
    state, _, _ = play(miniz, ["go south", "go east"])
    assert state.current_room == "behind-house"
    state, obs, _, _, movement = step_movement(
        state, ground(miniz, "go west"), miniz)
    assert movement is None
    assert state.current_room == "behind-house"
    assert obs.feedback.startswith("The window is closed.")


def test_movement_reported_on_room_change(miniz):
    state, _, _ = reset(miniz)
    state, _, _, _, movement = step_movement(
        state, ground(miniz, "go south"), miniz)
    assert movement == ("west-of-house", "south", "south-of-house")


def test_container_hides_contents_until_opened(miniz):
    state, _, _ = reset(miniz)
    assert "leaflet" not in engine.visible_objects(state, miniz)
    state, _, _ = play(miniz, ["open mailbox"])
    assert "leaflet" in engine.visible_objects(state, miniz)


def test_dark_room_rendering_and_light(miniz):
    # kitchen -> attic is dark without a lit lamp
    script = ["go south", "go east", "open window", "go west", "go up"]
    state, obs, _ = play(miniz, script)
    assert state.current_room == "attic"
    assert engine.DARK_TEXT in obs.desc
    assert engine.visible_objects(state, miniz) == []


def test_drop_extinguishes_light(miniz):
    script = ["go south", "go east", "open window", "go west", "go west",
              "take lamp", "light lamp"]
    state, _, _ = play(miniz, script)
    assert state.flags["lamp-lit"]
    state, _, _, _ = step(state, ground(miniz, "drop lamp"), miniz)
    assert not state.flags["lamp-lit"]


def test_reward_events_fire_once(miniz):
    script = ["go south", "go east", "open window", "go west"]
    state, _, rewards = play(miniz, script)
    assert rewards[-1] == 10 and state.score == 10
    state, _, reward, _ = step(state, ground(miniz, "go east"), miniz)
    state, _, reward, _ = step(state, ground(miniz, "go west"), miniz)
    assert reward == 0 and state.score == 10


def test_grue_death_in_dark_cellar(miniz):
    script = ["go south", "go east", "open window", "go west", "go west",
              "open trapdoor", "go down"]
    state, obs, _ = play(miniz, script)
    assert not state.alive
    assert state.current_room == "cellar"
    assert state.score == 10  # no cellar points without a lit lamp
    assert "grue" in obs.feedback


def test_stepping_dead_state_raises(miniz):
    script = ["go south", "go east", "open window", "go west", "go west",
              "open trapdoor", "go down"]
    state, _, _ = play(miniz, script)
    with pytest.raises(RuntimeError):
        step(state, ground(miniz, "wait"), miniz)
    with pytest.raises(RuntimeError):
        admissible_actions(state, miniz)


def test_initially_satisfied_event_fires_at_reset():
    text = """\
questgame 1
[meta]
name instant
start here
max-score 3
[room here]
name Here
desc Nothing.
[templates]
wait
[event start-bonus]
when at here
reward 3
"""
    game = load_game(text)
    state, _, initial = reset(game)
    assert initial == 3 and state.score == 3


def test_ground_parses_and_rejects(miniz):
    action = ground(miniz, "put leaflet in mailbox")
    assert action.fillers == ("leaflet", "mailbox")
    assert action.text == "put leaflet in mailbox"
    with pytest.raises(Exception):
        ground(miniz, "xyzzy")


def test_enumerate_grounded_count_matches_iterator(miniz):
    entities = miniz.entities
    count, it = enumerate_grounded(miniz, entities)
    actions = list(it)
    assert count == len(actions)
    expected = sum(len(entities) ** t.blanks for t in miniz.templates)
    assert count == expected
    assert len(set(a.text for a in actions)) == count


def _brute_force_admissible(state, game):
    """Ground truth: every grounding that changes the state digest."""
    out = set()
    _, it = enumerate_grounded(game, game.entities)
    base = snapshot(state)
    for action in it:
        probe = restore(base)
        probe, _, _, _ = step(probe, action, game)
        if state_hash(probe) != state_hash(state):
            out.add(action.text)
    return out


def _sample_states(game, limit):
    states = [reset(game)[0]]
    seen = {state_hash(states[0])}
    frontier = [snapshot(states[0])]
    while frontier and len(states) < limit:
        snap = frontier.pop(0)
        base = restore(snap)
        if not base.alive:
            continue
        for action in sorted(admissible_actions(base, game),
                             key=lambda a: a.text):
            nxt = restore(snap)
            nxt, _, _, done = step(nxt, action, game)
            h = state_hash(nxt)
            if h in seen:
                continue
            seen.add(h)
            if nxt.alive:
                states.append(nxt)
                frontier.append(snapshot(nxt))
            if len(states) >= limit:
                break
    return states


@pytest.mark.parametrize("name", ["miniz", "chainworld", "deceive"])
def test_admissible_actions_match_brute_force(name, request):
    game = request.getfixturevalue(name)
    for state in _sample_states(game, 40):
        oracle = {a.text for a in admissible_actions(state, game)}
        assert oracle == _brute_force_admissible(state, game)


def test_walkthrough_reaches_max_score(miniz, chainworld, deceive):
    actions, score = search.walkthrough(miniz)
    assert score == 50 and len(actions) == 15
    actions, score = search.walkthrough(chainworld)
    assert score == 30
    actions, score = search.walkthrough(deceive)
    assert score == 90


def test_walkthrough_replays_to_its_score(miniz):
    actions, score = search.walkthrough(miniz)
    state, _, _ = play(miniz, [a.text for a in actions])
    assert state.score == score


def test_explore_is_deterministic(chainworld):
    a = search.explore(chainworld)
    b = search.explore(chainworld)
    assert a == b
    assert max(info.score for info in a) == 30
