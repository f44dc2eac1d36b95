import math
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from questkg import kg
from questkg.extraction import AnswerSet
from questkg.kg import (EMPTY_DIGEST, GlobalEdgeSet, KnowledgeGraph, Triple,
                        answer_triples, apply_answers, kg_hash,
                        shaped_reward)


def test_triple_make_normalizes():
    t = Triple.make("The Brass Lamp", "IS", " lit ")
    assert t == Triple("brass lamp", "is", "lit")


def test_triple_make_rejects_empty_fields():
    for _ in range(3):      # lru_cache keeps no exception: raised every time
        with pytest.raises(ValueError):
            Triple.make("the", "is", "lit")


def test_triple_make_returns_one_object_per_raw_arguments():
    t = Triple.make("The Brass Lamp", "IS", " lit ")
    assert Triple.make("The Brass Lamp", "IS", " lit ") is t
    assert kg.triple_digest(t) == kg.triple_digest(
        Triple("brass lamp", "is", "lit"))


@dataclass(frozen=True)
class DataclassTriple:
    """Triple as it once was: a frozen dataclass, whose hash is that of
    the tuple of its fields."""
    subject: str
    relation: str
    object: str


def test_triple_hashes_and_iterates_in_sets_like_the_frozen_dataclass():
    fields = [(f"room {i}", rel, f"item {i * 7 % 13}")
              for i in range(100) for rel in ("has", "north of")]
    for f in fields:
        assert hash(Triple(*f)) == hash(f) == hash(DataclassTriple(*f))
    # equal hashes and insertion order give equal set iteration order, so
    # graph iteration (and everything that follows it) is unchanged
    assert [tuple(t) for t in set(Triple(*f) for f in fields)] == [
        (t.subject, t.relation, t.object)
        for t in set(DataclassTriple(*f) for f in fields)]


def test_kg_hash_is_order_independent():
    a = KnowledgeGraph([Triple("x", "is", "y"), Triple("p", "has", "q")])
    b = KnowledgeGraph([Triple("p", "has", "q"), Triple("x", "is", "y")])
    assert kg_hash(a) == kg_hash(b)
    assert kg_hash(KnowledgeGraph()) == EMPTY_DIGEST


def test_add_discard_restores_digest():
    graph = KnowledgeGraph([Triple("x", "is", "y")])
    before = kg_hash(graph)
    t = Triple("p", "has", "q")
    assert graph.add(t)
    assert not graph.add(t)          # idempotent
    assert kg_hash(graph) != before
    assert graph.discard(t)
    assert not graph.discard(t)
    assert kg_hash(graph) == before


def test_copy_is_independent():
    graph = KnowledgeGraph([Triple("x", "is", "y")])
    clone = graph.copy()
    clone.add(Triple("p", "has", "q"))
    assert len(graph) == 1 and len(clone) == 2
    assert graph == KnowledgeGraph([Triple("x", "is", "y")])


def test_apply_answers_update_rules():
    graph = KnowledgeGraph()
    answers = AnswerSet(location="West of House",
                        surroundings=("mailbox", "north"),
                        inventory=("leaflet",),
                        attributes={"mailbox": ("openable", "container")})
    added, removed = apply_answers(graph, answer_triples(answers))
    assert removed == []
    assert Triple("you", "in", "west of house") in graph
    assert Triple("west of house", "visited", "yes") in graph
    assert Triple("west of house", "has", "mailbox") in graph
    assert Triple("you", "have", "leaflet") in graph
    assert Triple("mailbox", "is", "openable") in graph
    assert added == list(answer_triples(answers)) == [
        Triple("you", "in", "west of house"),
        Triple("west of house", "visited", "yes"),
        Triple("west of house", "has", "mailbox"),
        Triple("west of house", "has", "north"),
        Triple("you", "have", "leaflet"),
        Triple("mailbox", "is", "openable"),
        Triple("mailbox", "is", "container")]
    assert len(added) == len(graph)


def test_you_in_is_replaced_and_visited_accumulates():
    graph = KnowledgeGraph()
    apply_answers(graph, answer_triples(AnswerSet(location="Hall")))
    added, removed = apply_answers(
        graph, answer_triples(AnswerSet(location="Closet")))
    assert removed == [Triple("you", "in", "hall")]
    assert Triple("you", "in", "closet") in graph
    assert Triple("hall", "visited", "yes") in graph
    assert Triple("closet", "visited", "yes") in graph


def scanned_locations(graph, here):
    """The <you, in, *> triples to replace, in the order the triple set
    iterates."""
    return [t for t in graph.triples
            if t.subject == "you" and t.relation == "in" and t != here]


@pytest.mark.parametrize("rooms", [(), ("hall",), ("hall", "cellar"),
                                   ("hall", "cellar", "attic", "yard")])
def test_location_slot_replaces_what_a_scan_finds(rooms):
    """Several <you, in, *> triples arise only in graphs built by hand,
    but are removed in the same order the scan gave."""
    noise = [Triple(f"room{i}", "has", f"item{i}") for i in range(30)]
    built = KnowledgeGraph(noise + [Triple("you", "in", r) for r in rooms])
    built.discard(noise[3])
    for graph in (built, built.copy()):
        want = scanned_locations(graph, Triple("you", "in", "kitchen"))
        added, removed = apply_answers(
            graph, answer_triples(AnswerSet(location="kitchen")))
        assert removed == want
        assert [t for t in graph.triples
                if t.subject == "you" and t.relation == "in"] == [
            Triple("you", "in", "kitchen")]


def test_movement_adds_directional_triple():
    graph = KnowledgeGraph()
    apply_answers(graph, answer_triples(AnswerSet(location="Closet")),
                  movement=("hall", "north", "closet"))
    assert Triple("hall", "north of", "closet") in graph


def test_absorb_pays_each_triple_exactly_once():
    graph = KnowledgeGraph([Triple("x", "is", "y"), Triple("p", "has", "q")])
    shared = GlobalEdgeSet()
    assert shared.absorb(graph.triples) == 2
    assert shared.absorb(graph.triples) == 0
    graph.add(Triple("new", "is", "thing"))
    assert shared.absorb(graph.triples) == 1
    assert len(shared) == 3


def test_shaped_reward_alpha_zero_is_raw():
    for r_game in (0, 5, 10):
        assert shaped_reward(r_game, 17, 50, 4, alpha=0.0) == r_game


def test_shaped_reward_scales_by_cumulative_score():
    shaped = shaped_reward(5, 20, 50, 2, alpha=1.0, eps=1.0)
    assert shaped == pytest.approx(5 + 2 * (20 + 1) / 50)


@given(score=st.integers(-10**6, 10**6),
       r_max=st.integers(1, 10**6),
       alpha=st.floats(0, 1e300) | st.integers(0, 10**6),
       eps=st.floats(0, 1e300) | st.integers(0, 10**6))
def test_shaped_reward_without_reward_is_positive_zero(score, r_max, alpha,
                                                       eps):
    """AgentEnv.step skips the call and uses 0.0 when both rewards are 0;
    the call gives that value for every input ExplorationConfig accepts."""
    shaped = shaped_reward(0, score, r_max, 0, alpha=alpha, eps=eps)
    assert shaped == 0.0 and math.copysign(1.0, shaped) == 1.0
    assert type(shaped) is float


def test_shaped_reward_validates_inputs():
    with pytest.raises(ValueError):
        shaped_reward(0, 0, 0, 1)
    with pytest.raises(ValueError):
        shaped_reward(0, 0, 50, 1, alpha=-1)
