import numpy as np
import pytest

from questkg import engine, extraction
from questkg.extraction import (Lexicon, build_context, emit_qa_dataset,
                                make_backend, noisy_answer, oracle_answer,
                                parse_qa_dataset, qa_record, rule_answer)


def state_after(game, texts):
    state, obs, _ = engine.reset(game)
    for text in texts:
        state, obs, _, done, _ = engine.step_movement(
            state, engine.ground(game, text), game)
        if done:
            break
    return state, obs


def test_oracle_answers_at_start(miniz):
    state, _ = state_after(miniz, [])
    answers = oracle_answer(state, miniz)
    assert answers.location == "west of house"
    assert "mailbox" in answers.surroundings
    assert "north" in answers.surroundings
    assert answers.inventory == ()
    assert "openable" in answers.attributes["mailbox"]


def test_oracle_sees_revealed_and_carried_objects(miniz):
    state, _ = state_after(miniz, ["open mailbox", "take leaflet"])
    answers = oracle_answer(state, miniz)
    assert answers.inventory == ("leaflet",)
    assert "open" in answers.attributes["mailbox"]
    assert "leaflet" in answers.attributes


def test_oracle_in_darkness_reports_nothing_visible(miniz):
    state, _ = state_after(miniz, ["go south", "go east", "open window",
                                   "go west", "go up"])
    answers = oracle_answer(state, miniz)
    assert answers.surroundings == ()
    assert answers.location == "attic"


def test_rule_backend_matches_oracle_essentials(miniz):
    lexicon = Lexicon.from_game(miniz)
    state, obs = state_after(miniz, ["open mailbox", "take leaflet",
                                     "go south"])
    ctx = build_context(obs, miniz.attr_vocab)
    got = rule_answer(ctx, lexicon)
    want = oracle_answer(state, miniz)
    assert got.location == want.location
    assert set(got.inventory) == set(want.inventory)


def test_rule_backend_empty_inventory(miniz):
    lexicon = Lexicon.from_game(miniz)
    _, obs = state_after(miniz, [])
    got = rule_answer(build_context(obs, miniz.attr_vocab), lexicon)
    assert got.inventory == ()


def test_noisy_identity_at_zero_noise(miniz):
    state, _ = state_after(miniz, ["open mailbox"])
    answers = oracle_answer(state, miniz)
    rng = np.random.default_rng(3)
    assert noisy_answer(answers, 0.0, 0.0, rng, ["mailbox"]) == answers


def test_noisy_drops_everything_at_p_one(miniz):
    state, _ = state_after(miniz, ["open mailbox", "take leaflet"])
    answers = oracle_answer(state, miniz)
    empty = noisy_answer(answers, 1.0, 0.0, np.random.default_rng(3),
                         ["mailbox"])
    assert empty.location == ""
    assert empty.surroundings == ()
    assert empty.inventory == ()
    assert empty.attributes == {}


def test_noisy_is_seed_reproducible(miniz):
    state, _ = state_after(miniz, ["open mailbox"])
    answers = oracle_answer(state, miniz)
    vocab = ["mailbox", "window"]
    a = noisy_answer(answers, 0.3, 0.2, np.random.default_rng(42), vocab)
    b = noisy_answer(answers, 0.3, 0.2, np.random.default_rng(42), vocab)
    assert a == b


def test_noisy_validates_probabilities(miniz):
    state, _ = state_after(miniz, [])
    answers = oracle_answer(state, miniz)
    with pytest.raises(ValueError):
        noisy_answer(answers, -0.1, 0.0, np.random.default_rng(3), [])
    with pytest.raises(ValueError):
        noisy_answer(answers, 0.0, 1.5, np.random.default_rng(3), [])


def test_make_backend_names(miniz):
    state, obs = state_after(miniz, [])
    for name in ("oracle", "rule", "noisy"):
        backend = make_backend(name, miniz, seed=1)
        answers = backend(state, obs)
        assert isinstance(answers, extraction.AnswerSet)
    with pytest.raises(ValueError):
        make_backend("bert", miniz)


def test_qa_record_layout(miniz):
    state, obs = state_after(miniz, ["open mailbox"])
    record = qa_record(build_context(obs, miniz.attr_vocab),
                       oracle_answer(state, miniz))
    lines = record.splitlines()
    assert lines[0] == "Context: "
    assert lines[1].startswith("[loc] ")
    markers = [line.split()[0] for line in lines[1:5]]
    assert markers == ["[loc]", "[inv]", "[obs]", "[atr]"]
    assert sum(1 for line in lines if line.startswith("Question: ")) >= 3


def test_qa_dataset_round_trip(miniz):
    records = []
    state, obs, _ = engine.reset(miniz)
    records.append((build_context(obs, miniz.attr_vocab),
                    oracle_answer(state, miniz)))
    state, obs = state_after(miniz, ["open mailbox", "take leaflet"])
    records.append((build_context(obs, miniz.attr_vocab),
                    oracle_answer(state, miniz)))
    text = emit_qa_dataset(records)
    parsed = parse_qa_dataset(text)
    assert len(parsed) == 2
    for (ctx, answers), (got_ctx, qa) in zip(records, parsed):
        assert got_ctx.loc == ctx.loc
        assert got_ctx.inv == ctx.inv
        assert qa[0][1] == answers.location
    # re-emission from parsed parts is byte-identical
    rebuilt = "\n\n".join(
        "\n".join(["Context: ",
                   f"[loc] {c.loc}", f"[inv] {c.inv}",
                   f"[obs] {c.obs}", f"[atr] {c.atr}"]
                  + [f"Question: {q} Answer: {a}" for q, a in qa])
        for c, qa in parsed)
    assert rebuilt == text


def test_parse_qa_dataset_rejects_garbage():
    with pytest.raises(ValueError):
        parse_qa_dataset("not a record")
