"""Exhaustive search oracle over engine states.

Used for authoring-time checks and as the independent ground truth in tests:
reachability of quest vertices, the true optimal score, and a walkthrough
action sequence attaining it.  explore and walkthrough share one
breadth-first walk, which deduplicates on state digests and skips purely
regressive actions (drop/close/extinguish/put) that cannot unlock anything in
the supported rule set; this keeps the explored graph small without losing
reachability of score or dependencies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import engine

REGRESSIVE_VERBS = ("drop", "close", "extinguish", "put")
MAX_STATES = 200_000


@dataclass(frozen=True)
class ReachedState:
    room: str
    inventory: frozenset[str]
    score: int
    alive: bool
    depth: int


class SearchBudgetExceeded(RuntimeError):
    pass


def _frontier_actions(state, game):
    return sorted((a for a in engine.admissible_actions(state, game)
                   if a.template.verb not in REGRESSIVE_VERBS),
                  key=lambda a: a.text)


def _bfs(game):
    """Breadth-first walk over distinct state digests from the start state.

    Yields (digest, state, parent_digest, action) for every newly reached
    state, the start state first with parent and action None.  Terminal
    states are not expanded.  Raises SearchBudgetExceeded past MAX_STATES.
    """
    state, _, _ = engine.reset(game)
    digest = engine.state_hash(state)
    seen = {digest}
    queue = deque([(digest, engine.snapshot(state))])
    yield digest, state, None, None
    while queue:
        digest, snap = queue.popleft()
        base = engine.restore(snap)
        if not base.alive:
            continue
        for action in _frontier_actions(base, game):
            nxt = engine.step_movement(engine.restore(snap), action, game)[0]
            ndigest = engine.state_hash(nxt)
            if ndigest in seen:
                continue
            if len(seen) >= MAX_STATES:
                raise SearchBudgetExceeded(f"exceeded {MAX_STATES} states")
            seen.add(ndigest)
            queue.append((ndigest, engine.snapshot(nxt)))
            yield ndigest, nxt, digest, action


def explore(game):
    """Breadth-first enumeration of reachable states.

    Returns a list of ReachedState summaries (one per distinct state digest).
    Raises SearchBudgetExceeded when the cap is hit.
    """
    out = []
    depth = {}
    for digest, state, parent, _ in _bfs(game):
        depth[digest] = 0 if parent is None else depth[parent] + 1
        out.append(_summarize(state, depth[digest]))
    return out


def _summarize(state, depth):
    inv = frozenset(o for o, loc in state.object_locations.items()
                    if loc == engine.INVENTORY)
    return ReachedState(room=state.current_room, inventory=inv,
                        score=state.score, alive=state.alive, depth=depth)


def walkthrough(game):
    """Shortest action sequence reaching the game's maximum score.

    Returns (actions, score).  When max_score is unattainable, returns the
    shortest sequence reaching the best score found instead.
    """
    states = _bfs(game)
    best_digest, state, _, _ = next(states)
    best_score = state.score
    parents = {best_digest: None}   # digest -> (parent digest, action)
    for digest, state, parent, action in states:
        parents[digest] = (parent, action)
        if state.score > best_score:
            best_digest, best_score = digest, state.score
            if best_score >= game.max_score:
                break
    return _reconstruct(parents, best_digest), best_score


def _reconstruct(parents, digest):
    actions = []
    node = digest
    while parents[node] is not None:
        node, action = parents[node]
        actions.append(action)
    actions.reverse()
    return actions
