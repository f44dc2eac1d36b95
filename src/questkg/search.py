"""Exhaustive search oracle over engine states.

Used for authoring-time checks and as the independent ground truth in tests:
reachability of quest vertices, the true optimal score, and a walkthrough
action sequence attaining it.  explore and walkthrough share one
breadth-first walk, which deduplicates on state digests.  It skips the
regressive verbs (drop/close/extinguish/put) unless a condition lets them
help: they only falsify carrying and flag atoms, which opens an exit or
fires an event only through a negated atom and averts a death only through
a positive one.  This keeps the explored graph small without losing
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


def _expanded_templates(game):
    """The game's templates, less the regressive verbs' unless a condition
    lets them help (module docstring)."""
    # (condition, whether an atom that lets them help is negated in it)
    gates = [(ex.condition, True) for room in game.rooms.values()
             for ex in room.exits.values() if ex.condition is not None]
    gates += [(event.condition, True) for event in game.events]
    gates += [(rule.condition, False) for rule in game.deaths]
    if any(atom.kind != "at" and atom.negated == negated
           for condition, negated in gates for atom in condition.atoms):
        return game.templates
    return tuple(t for t in game.templates if t.verb not in REGRESSIVE_VERBS)


def _bfs(game):
    """Breadth-first walk over distinct state digests from the start state.

    Yields (digest, state, parent_digest, action) for every newly reached
    state, the start state first with parent and action None.  Each state
    is expanded later from copies of it, so the caller must not change it.
    Terminal states are not expanded.  Raises SearchBudgetExceeded past
    MAX_STATES.
    """
    templates = _expanded_templates(game)
    state, _, _ = engine.reset(game)
    digest = engine.state_hash(state)
    seen = {digest}
    queue = deque([(digest, state)])
    yield digest, state, None, None
    while queue:
        digest, base = queue.popleft()
        if not base.alive:
            continue
        for action in sorted(engine.admissible_actions(base, game, templates),
                             key=lambda a: a.text):
            nxt = engine.step_movement(base.copy(), action, game)[0]
            ndigest = engine.state_hash(nxt)
            if ndigest in seen:
                continue
            if len(seen) >= MAX_STATES:
                raise SearchBudgetExceeded(f"exceeded {MAX_STATES} states")
            seen.add(ndigest)
            queue.append((ndigest, nxt))
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
