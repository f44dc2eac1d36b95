"""Triple-store world model, intrinsic reward, and reward shaping.

The knowledge graph is a set of <subject, relation, object> triples with an
order-independent 64-bit digest maintained incrementally.  A GlobalEdgeSet
accumulates every triple ever held across a run; the intrinsic reward for a
step is GlobalEdgeSet.absorb's count of triples never seen before, so each
unique triple pays out exactly once per run.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import NamedTuple

from .gamedef import normalize

REL_HAS = "has"
REL_IS = "is"
REL_HAVE = "have"
REL_IN = "in"
REL_VISITED = "visited"

EMPTY_DIGEST = 0  # documented fixed digest of the empty graph


class Triple(NamedTuple):
    """A triple hashes as the tuple of its fields, in C.  make and
    triple_digest are memoised, so normalize and blake2b run once per
    distinct triple in a process."""

    subject: str
    relation: str
    object: str

    @staticmethod
    @lru_cache(maxsize=None)
    def make(subject, relation, object):
        """Normalized construction: lowercase, trimmed, article-stripped.
        Repeated raw arguments return the same object."""
        s, r, o = normalize(subject), normalize(relation), normalize(object)
        if not (s and r and o):
            raise ValueError(f"triple fields must be non-empty: {(s, r, o)!r}")
        return Triple(s, r, o)

    def line(self):
        return f"{self.subject}\t{self.relation}\t{self.object}"


@lru_cache(maxsize=None)
def triple_digest(triple):
    raw = hashlib.blake2b(triple.line().encode(), digest_size=8).digest()
    return int.from_bytes(raw, "big")


class KnowledgeGraph:
    """Mutable triple set with set semantics and an incremental XOR digest."""

    __slots__ = ("triples", "_digest")

    def __init__(self, triples=()):
        self.triples = set()
        self._digest = EMPTY_DIGEST
        for t in triples:
            self.add(t)

    def add(self, triple):
        if triple not in self.triples:
            self.triples.add(triple)
            self._digest ^= triple_digest(triple)
            return True
        return False

    def discard(self, triple):
        if triple in self.triples:
            self.triples.remove(triple)
            self._digest ^= triple_digest(triple)
            return True
        return False

    def copy(self):
        clone = KnowledgeGraph()
        clone.triples = set(self.triples)
        clone._digest = self._digest
        return clone

    def __len__(self):
        return len(self.triples)

    def __contains__(self, triple):
        return triple in self.triples

    def __eq__(self, other):
        return isinstance(other, KnowledgeGraph) and self.triples == other.triples


def kg_hash(graph):
    """Order-independent 64-bit digest; equal triple sets give equal digests."""
    return graph._digest


class GlobalEdgeSet:
    """Union of all triples ever held; monotonically non-decreasing."""

    __slots__ = ("triples",)

    def __init__(self):
        self.triples = set()

    def absorb(self, triples):
        """Add triples; returns the number never seen before."""
        new = 0
        for t in triples:
            if t not in self.triples:
                self.triples.add(t)
                new += 1
        return new

    def __len__(self):
        return len(self.triples)

    def __contains__(self, triple):
        return triple in self.triples


def answer_triples(answers):
    """The triples an AnswerSet puts in the graph, in put order.  Rules:
    room-has-item, object-is-attribute, you-have-item; the location gives
    <you, in, room> and <room, visited, yes> first."""
    make = Triple.make
    triples = []
    put = triples.append
    loc = normalize(answers.location) if answers.location else ""
    if loc:
        put(make("you", REL_IN, loc))
        put(make(loc, REL_VISITED, "yes"))
        for item in answers.surroundings:
            put(make(loc, REL_HAS, item))
    for item in answers.inventory:
        put(make("you", REL_HAVE, item))
    for obj, attrs in sorted(answers.attributes.items()):
        for attr in attrs:
            put(make(obj, REL_IS, attr))
    return tuple(triples)


def apply_answers(graph, triples, movement=None):
    """Put answer_triples' triples in the graph, then the room-direction-room
    triple of a movement.

    Returns (added, removed) triple lists.  A <you, in, room> triple
    replaces every other <you, in, *> triple, never accumulates; visited-room
    triples accumulate.
    """
    added, removed = [], []
    for triple in triples:
        if triple.subject == "you" and triple.relation == REL_IN:
            for t in [t for t in graph.triples if t.subject == "you"
                      and t.relation == REL_IN and t != triple]:
                graph.discard(t)
                removed.append(t)
        if graph.add(triple):
            added.append(triple)
    if movement is not None:
        origin, direction, target = movement
        triple = Triple.make(origin, f"{direction} of", target)
        if graph.add(triple):
            added.append(triple)
    return added, removed


def shaped_reward(r_game, episode_score, r_max, r_im, alpha=1.0, eps=1.0):
    """Game reward plus score-scaled intrinsic bonus.

    r = r_game + alpha * r_im * (episode_score + eps) / r_max, where
    episode_score is the cumulative score of the episode.
    """
    if r_max <= 0:
        raise ValueError("r_max must be positive")
    if alpha < 0 or eps < 0:
        raise ValueError("alpha and eps must be non-negative")
    return r_game + alpha * r_im * (episode_score + eps) / r_max
