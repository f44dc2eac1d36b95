"""Deterministic text-game engine: stepping, rendering, snapshots.

The engine is strictly deterministic: the same action sequence from reset
always produces the same (state, observation, reward) sequence.  Inapplicable
actions consume a turn and return failure feedback without touching world
state.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass

from .gamedef import BLANK, DIRECTIONS, INVENTORY, GameDef, GroundedActionError

SNAPSHOT_VERSION = 1

DARK_TEXT = "It is pitch black. You are likely to be eaten by a grue."


class SnapshotError(ValueError):
    """Raised when restoring an incompatible snapshot."""


class WorldState:
    """Mutable simulation state. step() mutates in place and returns it."""

    __slots__ = ("current_room", "object_locations", "flags", "score",
                 "turn", "alive", "fired_events")

    def __init__(self, current_room, object_locations, flags, score=0,
                 turn=0, alive=True, fired_events=None):
        self.current_room = current_room
        self.object_locations = object_locations
        self.flags = flags
        self.score = score
        self.turn = turn
        self.alive = alive
        self.fired_events = fired_events if fired_events is not None else set()

    def __eq__(self, other):
        return isinstance(other, WorldState) and snapshot(self) == snapshot(other)

    def __repr__(self):
        return (f"WorldState(room={self.current_room!r}, score={self.score}, "
                f"turn={self.turn}, alive={self.alive})")


@dataclass(frozen=True)
class Observation:
    desc: str
    feedback: str
    inv: str
    prev_action: str


@dataclass(frozen=True)
class GroundedAction:
    template: "ActionTemplate"
    fillers: tuple[str, ...]

    @property
    def text(self):
        return self.template.ground_text(self.fillers)

    def __str__(self):
        return self.text


def ground(game, text):
    """Parse an action string like "open mailbox" into a GroundedAction."""
    words = text.split()
    for template in game.templates:
        if len(template.words) != len(words):
            continue
        fillers = []
        for tw, w in zip(template.words, words):
            if tw == BLANK:
                fillers.append(w)
            elif tw != w:
                break
        else:
            return GroundedAction(template, tuple(fillers))
    raise GroundedActionError(f"no template matches {text!r}")


# --- snapshots ------------------------------------------------------------

def snapshot(state):
    """Serialize a WorldState to versioned, bit-exact bytes."""
    payload = {
        "v": SNAPSHOT_VERSION,
        "room": state.current_room,
        "objects": {k: list(v) for k, v in sorted(state.object_locations.items())},
        "flags": {k: v for k, v in sorted(state.flags.items()) if v},
        "score": state.score,
        "turn": state.turn,
        "alive": state.alive,
        "fired": sorted(state.fired_events),
    }
    return json.dumps(payload, separators=(",", ":")).encode()


def restore(snap):
    """Rebuild a WorldState from snapshot bytes. Round-trip is bit-exact.

    Raises SnapshotError for bytes that are not a snapshot of this version.
    """
    try:
        payload = json.loads(snap.decode())
    except ValueError as exc:   # UnicodeDecodeError, JSONDecodeError
        raise SnapshotError(f"snapshot is not UTF-8 JSON: {exc}") from None
    version = payload.get("v") if isinstance(payload, dict) else None
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"snapshot version {version!r}, "
                            f"expected {SNAPSHOT_VERSION}")
    try:
        return WorldState(
            current_room=payload["room"],
            object_locations={k: tuple(v)
                              for k, v in payload["objects"].items()},
            flags=dict(payload["flags"]),
            score=payload["score"],
            turn=payload["turn"],
            alive=payload["alive"],
            fired_events=set(payload["fired"]),
        )
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise SnapshotError(f"malformed snapshot field: {exc!r}") from None


def state_hash(state):
    """64-bit digest of the state, excluding the turn counter."""
    payload = (
        state.current_room,
        tuple(sorted(state.object_locations.items())),
        tuple(sorted(k for k, v in state.flags.items() if v)),
        state.score,
        state.alive,
        tuple(sorted(state.fired_events)),
    )
    digest = hashlib.blake2b(repr(payload).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


# --- visibility and rendering --------------------------------------------

def _is_open(state, obj_id):
    return state.flags.get(f"{obj_id}-open", False)


def _is_lit_obj(state, obj_id):
    return state.flags.get(f"{obj_id}-lit", False)


def has_light(state, game):
    """True when the current room is usable: not dark, or a lit source here."""
    room = game.rooms[state.current_room]
    if not room.dark:
        return True
    for obj_id, loc in state.object_locations.items():
        if _is_lit_obj(state, obj_id):
            if loc == INVENTORY or loc == ("room", state.current_room):
                return True
    return False


def visible_objects(state, game):
    """Object ids visible from the current room, in stable order."""
    if not has_light(state, game):
        return []
    here = ("room", state.current_room)
    out = []
    for obj_id in sorted(game.objects):
        loc = state.object_locations[obj_id]
        if loc == here:
            out.append(obj_id)
        elif loc[0] == "in":
            container = loc[1]
            if (state.object_locations.get(container) == here
                    and _is_open(state, container)):
                out.append(obj_id)
    return out


def render_look(state, game):
    room = game.rooms[state.current_room]
    if not has_light(state, game):
        return f"{room.name}\n{DARK_TEXT}"
    lines = [room.name, room.desc]
    here = ("room", state.current_room)
    for obj_id in sorted(game.objects):
        obj = game.objects[obj_id]
        loc = state.object_locations[obj_id]
        if loc == here and "scenery" not in obj.attrs:
            lines.append(f"There is a {obj.name} here.")
        if (loc == here and "container" in obj.attrs and _is_open(state, obj_id)):
            contents = [game.objects[i].name
                        for i in sorted(game.objects)
                        if state.object_locations[i] == ("in", obj_id)]
            if contents:
                listing = ", ".join(f"a {c}" for c in contents)
                lines.append(f"The {obj.name} contains {listing}.")
    return "\n".join(lines)


def render_inventory(state, game):
    carried = [game.objects[i].name for i in sorted(game.objects)
               if state.object_locations[i] == INVENTORY]
    if not carried:
        return "You are empty handed."
    return "You are carrying: " + ", ".join(f"a {c}" for c in carried)


def observe(state, game, feedback=None, prev_action=""):
    """Observation for a state outside of step(), e.g. after a restore."""
    if feedback is None:
        feedback = render_look(state, game)
    return _observe(state, game, feedback, prev_action)


def _observe(state, game, feedback, prev_action):
    return Observation(
        desc=render_look(state, game),
        feedback=feedback,
        inv=render_inventory(state, game),
        prev_action=prev_action,
    )


# --- reset / step ---------------------------------------------------------

def reset(game):
    """Fresh state at the authored start room.

    Reward events already satisfied by the initial state fire here and are
    reported as initial_score (typically 0).
    """
    state = WorldState(
        current_room=game.start,
        object_locations={o.id: o.location for o in game.objects.values()},
        flags={},
        )
    initial = 0
    for event in game.events:
        if event.condition.holds(state):
            state.fired_events.add(event.id)
            initial += event.points
    state.score = initial
    obs = _observe(state, game, render_look(state, game), "")
    return state, obs, initial


def _apply_verb(state, game, action):
    """Apply the action's effect. Returns (feedback, movement or None).

    World state is only touched when the action applies; otherwise the
    feedback explains the failure and the state is left unchanged.
    """
    template = action.template
    verb = template.verb
    words = template.words
    fillers = action.fillers
    room = game.rooms[state.current_room]
    lit = has_light(state, game)

    if verb == "go" and len(words) == 2:
        direction = fillers[0]
        ex = room.exits.get(direction)
        if ex is None:
            return "You can't go that way.", None
        if ex.condition is not None and not ex.condition.holds(state):
            return ex.blocked_text, None
        origin = state.current_room
        state.current_room = ex.target
        return render_look(state, game), (origin, direction, ex.target)

    if verb == "look" and len(words) == 1:
        return render_look(state, game), None
    if verb == "inventory" and len(words) == 1:
        return render_inventory(state, game), None
    if verb == "wait" and len(words) == 1:
        return "Time passes.", None

    if not fillers:
        return "Nothing happens.", None

    obj_id = fillers[0]
    obj = game.objects.get(obj_id)
    carried = obj is not None and state.object_locations.get(obj_id) == INVENTORY
    visible = obj is not None and (carried or (lit and obj_id in
                                               visible_objects(state, game)))

    if verb == "open":
        if not visible or "openable" not in obj.attrs:
            return "You can't open that.", None
        if _is_open(state, obj_id):
            return f"The {obj.name} is already open.", None
        state.flags[f"{obj_id}-open"] = True
        if obj.open_text:
            return obj.open_text, None
        if "container" in obj.attrs:
            contents = [game.objects[i].name for i in sorted(game.objects)
                        if state.object_locations[i] == ("in", obj_id)]
            if contents:
                listing = " and ".join(f"a {c}" for c in contents)
                return f"Opening the {obj.name} reveals {listing}.", None
        return f"You open the {obj.name}.", None

    if verb == "close":
        if not visible or "openable" not in obj.attrs:
            return "You can't close that.", None
        if not _is_open(state, obj_id):
            return f"The {obj.name} is already closed.", None
        state.flags[f"{obj_id}-open"] = False
        return f"You close the {obj.name}.", None

    if verb == "take":
        if carried:
            return "You already have that.", None
        if not visible or not obj.portable:
            return "You can't take that.", None
        state.object_locations[obj_id] = INVENTORY
        return "Taken.", None

    if verb == "drop":
        if not carried:
            return "You aren't carrying that.", None
        state.object_locations[obj_id] = ("room", state.current_room)
        if _is_lit_obj(state, obj_id):
            state.flags[f"{obj_id}-lit"] = False
        return "Dropped.", None

    if verb == "put" and template.blanks == 2:
        container_id = fillers[1]
        container = game.objects.get(container_id)
        if not carried:
            return "You aren't carrying that.", None
        if (container is None or "container" not in container.attrs
                or container_id not in visible_objects(state, game)
                or not _is_open(state, container_id)):
            return "You can't put it there.", None
        state.object_locations[obj_id] = ("in", container_id)
        return f"You put the {obj.name} in the {container.name}.", None

    if verb == "light":
        if not carried or "lightable" not in obj.attrs:
            return "You can't light that.", None
        if _is_lit_obj(state, obj_id):
            return f"The {obj.name} is already on.", None
        state.flags[f"{obj_id}-lit"] = True
        return f"The {obj.name} is now on.", None

    if verb == "extinguish":
        if not carried or not _is_lit_obj(state, obj_id):
            return "It isn't lit.", None
        state.flags[f"{obj_id}-lit"] = False
        return f"The {obj.name} is now off.", None

    if verb == "read":
        if not visible or "readable" not in obj.attrs:
            return "You can't read that.", None
        return obj.text or f"The {obj.name} has nothing written on it.", None

    return "Nothing happens.", None


def step(state, action, game):
    """Advance one turn. Returns (state, observation, step_reward, done).

    The state object is mutated in place. Stepping a dead or terminal state
    is a contract violation.
    """
    if not state.alive:
        raise RuntimeError("cannot step a dead/terminal state")

    feedback, movement = _apply_verb(state, game, action)
    state.turn += 1

    reward = 0
    for event in game.events:
        if event.id in state.fired_events:
            continue
        if event.condition.holds(state):
            state.fired_events.add(event.id)
            reward += event.points
    if reward:
        state.score += reward
        feedback += f" [Your score has just gone up by {reward} points.]"

    done = False
    for rule in game.deaths:
        if rule.condition.holds(state):
            state.alive = False
            done = True
            feedback += f"\n{rule.text}"
            break

    obs = _observe(state, game, feedback, action.text)
    return state, obs, reward, done


def step_movement(state, action, game):
    """Like step() but also reports movement as (from, direction, to) or None.

    Needed by agents that record directional knowledge-graph triples.
    """
    if not state.alive:
        raise RuntimeError("cannot step a dead/terminal state")
    before = state.current_room
    state_, obs, reward, done = step(state, action, game)
    movement = None
    if (action.template.verb == "go" and state_.current_room != before):
        movement = (before, action.fillers[0], state_.current_room)
    return state_, obs, reward, done, movement


# --- action space ---------------------------------------------------------

def enumerate_grounded(game, entity_set):
    """All groundings of the game's templates over entity_set.

    Returns (count, iterator).  count = sum over templates of
    |entity_set| ** blanks; the iterator yields GroundedAction lazily in a
    deterministic order (fillers are ordered tuples with repetition).
    """
    entities = tuple(sorted(entity_set))
    count = sum(len(entities) ** t.blanks for t in game.templates)

    def gen():
        for template in game.templates:
            if template.blanks == 0:
                yield GroundedAction(template, ())
            else:
                for combo in itertools.product(entities, repeat=template.blanks):
                    yield GroundedAction(template, combo)

    return count, gen()


def admissible_actions(state, game):
    """Grounded actions that change world state (test/oracle facility).

    Computed from the engine rules directly; equivalence with exhaustive
    step-and-compare is asserted in the test suite.
    """
    if not state.alive:
        raise RuntimeError("dead state has no admissible actions")
    out = set()
    room = game.rooms[state.current_room]
    lit = has_light(state, game)
    visible = set(visible_objects(state, game)) if lit else set()
    by_pattern = {t.pattern: t for t in game.templates}

    def add(pattern, *fillers):
        template = by_pattern.get(pattern)
        if template is not None:
            out.add(GroundedAction(template, fillers))

    for direction, ex in room.exits.items():
        if ex.condition is None or ex.condition.holds(state):
            if ex.target != state.current_room:
                add("go ___", direction)
    for obj_id in sorted(game.objects):
        obj = game.objects[obj_id]
        loc = state.object_locations[obj_id]
        carried = loc == INVENTORY
        seen = carried or obj_id in visible
        if not seen:
            continue
        if "openable" in obj.attrs:
            if _is_open(state, obj_id):
                add("close ___", obj_id)
            else:
                add("open ___", obj_id)
        if obj.portable and not carried:
            add("take ___", obj_id)
        if carried:
            add("drop ___", obj_id)
            for cid in sorted(game.objects):
                cobj = game.objects[cid]
                if (cid != obj_id and "container" in cobj.attrs
                        and cid in visible and _is_open(state, cid)):
                    add("put ___ in ___", obj_id, cid)
        if "lightable" in obj.attrs and carried:
            if _is_lit_obj(state, obj_id):
                add("extinguish ___", obj_id)
            else:
                add("light ___", obj_id)
    return out
