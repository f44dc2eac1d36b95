"""Deterministic text-game engine: stepping, rendering, snapshots.

The engine is strictly deterministic: the same action sequence from reset
always produces the same (state, observation, reward) sequence.  Inapplicable
actions consume a turn and return failure feedback without touching world
state.

A state is settled when the event and death loops have run on its
contents: every event that holds there has fired, and it is dead exactly
when a death rule holds.  Its rendered look and inventory text, and later
its state_hash, are cached in `state.view`.  Settled are the state after a
step, the state of a reset where no death rule holds (its event loop has
fired every event that holds, and events set no flags) and a copy of a
settled state, which gets a View of its own.  Not settled are the states
from restore, hand-built states and a reset where a death rule holds:
their state may satisfy a death rule or an unfired event, so their first
step runs in full.  A step from a settled state whose action touches
nothing (a failed action, a self-loop exit, look, inventory, wait or read)
takes a fast path: it counts the turn, skips both loops, reuses the cached
view and keeps the same View object, so a caller can tell the step changed
nothing by `state.view is view_before`.  This is exact because no condition
reads the turn counter.  Every write the engine makes runs the full step,
which replaces the view.  Any write to a WorldState outside step_movement
must drop its view (set it to None), as the probes of admissible_actions
start without one; the one write outside the engine, loop removal's
renumbering of the turn counter of its own walk, changes nothing a view or
digest reads.  Launches hold copies that nothing writes but the digest
cache of their view.

A touched step from a settled state whose view holds its digest takes the
memo path when the caller passes a memo: the outcome of the full step (the
events it fires, its reward and death, the successor's look, inventory
text and digest, and the feedback) is stored under (digest, action) on a
miss and applied on a hit to the state _apply_verb has moved, skipping
both renders, both loops and the successor's state_hash.  This is exact
because that outcome is a function of the state's contents and the
action, and the digest covers every content a condition, a render or
_apply_verb reads (room, object places, set flags, fired events, score
and alive; a flag set to False reads as an unset one) and leaves out only
the turn counter, which none of them reads.  _apply_verb still runs on
every step, so a hit writes the flags and places its verb writes.  The
key is the GroundedAction (template words and fillers), not its text, so
templates that read alike never share an entry.  Unsettled states and
settled ones whose digest nobody asked for step in full and store
nothing, and an untouched step makes no lookup.

Feedback None from _apply_verb means the room description: look and go
(a move or a self-loop exit) leave the rendering to step_movement, which
renders the look once per full step and uses it as both the observation's
desc and its feedback, before any score or death text; the fast path uses
the cached view's desc.  This is exact because events and deaths change
nothing that render_look reads.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .gamedef import BLANK, INVENTORY, GroundedActionError

SNAPSHOT_VERSION = 1

DARK_TEXT = "It is pitch black. You are likely to be eaten by a grue."


class SnapshotError(ValueError):
    """Raised when restoring an incompatible snapshot."""


class View:
    """What a settled state renders (its look and inventory text), and its
    state_hash once something asks for it."""

    __slots__ = ("desc", "inv", "digest")

    def __init__(self, desc, inv, digest=None):
        self.desc = desc
        self.inv = inv
        self.digest = digest


class WorldState:
    """Mutable simulation state; step_movement() mutates it in place.

    view is the View of a settled state, or None while the state is not
    settled (see the module docstring).
    """

    __slots__ = ("current_room", "object_locations", "flags", "score",
                 "turn", "alive", "fired_events", "view")

    def __init__(self, current_room, object_locations, flags, score=0,
                 turn=0, alive=True, fired_events=None):
        self.current_room = current_room
        self.object_locations = object_locations
        self.flags = flags
        self.score = score
        self.turn = turn
        self.alive = alive
        self.fired_events = fired_events if fired_events is not None else set()
        self.view = None

    def copy(self):
        """An independent copy of the world state.  A copy of a settled
        state is settled, with its own View of the same desc, inv and
        digest."""
        copy = WorldState(self.current_room, dict(self.object_locations),
                          dict(self.flags), self.score, self.turn, self.alive,
                          set(self.fired_events))
        view = self.view
        if view is not None:
            copy.view = View(view.desc, view.inv, view.digest)
        return copy

    def __repr__(self):
        return (f"WorldState(room={self.current_room!r}, score={self.score}, "
                f"turn={self.turn}, alive={self.alive})")


class Observation(NamedTuple):
    desc: str
    feedback: str
    inv: str
    prev_action: str


@dataclass(frozen=True)
class GroundedAction:
    template: "ActionTemplate"
    fillers: tuple[str, ...]

    @cached_property
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


# snapshot field -> (its JSON type, as an error names it); the check is
# exact, so JSON true is no integer
_FIELDS = {"room": (str, "a string"), "objects": (dict, "an object"),
           "flags": (dict, "an object"), "score": (int, "an integer"),
           "turn": (int, "an integer"), "alive": (bool, "a bool"),
           "fired": (list, "a list")}


def _wrong(field, value, what):
    return SnapshotError(f"snapshot field {field}: {value!r} is not {what}")


def restore(snap):
    """Rebuild a WorldState from snapshot bytes. Round-trip is bit-exact.

    Raises SnapshotError for bytes that are not a snapshot of this version,
    naming the field when one is missing or of the wrong type.
    """
    try:
        payload = json.loads(snap.decode())
    except ValueError as exc:   # UnicodeDecodeError, JSONDecodeError
        raise SnapshotError(f"snapshot is not UTF-8 JSON: {exc}") from None
    version = payload.get("v") if isinstance(payload, dict) else None
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(f"snapshot version {version!r}, "
                            f"expected {SNAPSHOT_VERSION}")
    for name, (kind, what) in _FIELDS.items():
        if name not in payload:
            raise SnapshotError(f"snapshot lacks field {name!r}")
        if type(payload[name]) is not kind:
            raise _wrong(name, payload[name], what)
    locations = {}
    for obj, where in payload["objects"].items():
        loc = tuple(where) if type(where) is list else ()
        if loc != INVENTORY and not (len(loc) == 2 and loc[0] in ("room", "in")
                                     and type(loc[1]) is str):
            raise _wrong(f"objects.{obj}", where,
                         '["inv"], ["room", str] or ["in", str]')
        locations[obj] = loc
    for name, value in payload["flags"].items():
        if type(value) is not bool:
            raise _wrong(f"flags.{name}", value, "a bool")
    for event in payload["fired"]:
        if type(event) is not str:
            raise _wrong("fired", event, "an event id string")
    return WorldState(payload["room"], locations, payload["flags"],
                      payload["score"], payload["turn"], payload["alive"],
                      set(payload["fired"]))


def state_hash(state):
    """64-bit digest of the state, excluding the turn counter.  A settled
    state computes it once and keeps it in its view."""
    view = state.view
    if view is not None and view.digest is not None:
        return view.digest
    payload = (
        state.current_room,
        tuple(sorted(state.object_locations.items())),
        tuple(sorted(k for k, v in state.flags.items() if v)),
        state.score,
        state.alive,
        tuple(sorted(state.fired_events)),
    )
    digest = hashlib.blake2b(repr(payload).encode(), digest_size=8).digest()
    digest = int.from_bytes(digest, "big")
    if view is not None:
        view.digest = digest
    return digest


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


def _is_visible(state, game, obj_id):
    """True when the object is in the current room, or in an open container
    that is, and the room has light."""
    here = ("room", state.current_room)
    loc = state.object_locations[obj_id]
    if loc != here:
        if loc[0] != "in":
            return False
        container = loc[1]
        if (state.object_locations.get(container) != here
                or not _is_open(state, container)):
            return False
    return has_light(state, game)


def visible_objects(state, game):
    """Object ids visible from the current room, in stable order."""
    return [o for o in game.object_ids if _is_visible(state, game, o)]


def render_look(state, game):
    room = game.rooms[state.current_room]
    if not has_light(state, game):
        return f"{room.name}\n{DARK_TEXT}"
    lines = [room.name, room.desc]
    here = ("room", state.current_room)
    for obj_id in game.object_ids:
        obj = game.objects[obj_id]
        loc = state.object_locations[obj_id]
        if loc == here and "scenery" not in obj.attrs:
            lines.append(f"There is a {obj.name} here.")
        if (loc == here and "container" in obj.attrs and _is_open(state, obj_id)):
            contents = [game.objects[i].name
                        for i in game.object_ids
                        if state.object_locations[i] == ("in", obj_id)]
            if contents:
                listing = ", ".join(f"a {c}" for c in contents)
                lines.append(f"The {obj.name} contains {listing}.")
    return "\n".join(lines)


def render_inventory(state, game):
    carried = [game.objects[i].name for i in game.object_ids
               if state.object_locations[i] == INVENTORY]
    if not carried:
        return "You are empty handed."
    return "You are carrying: " + ", ".join(f"a {c}" for c in carried)


def observe(state, game):
    """Observation of a state no step led to: the feedback is the room
    description and there is no previous action.  A settled state's is read
    from its view; any other state is rendered."""
    view = state.view
    if view is None:
        view = View(render_look(state, game), render_inventory(state, game))
    return Observation(view.desc, view.desc, view.inv, "")


# --- reset / step ---------------------------------------------------------

def reset(game):
    """Fresh state at the authored start room.

    Reward events already satisfied by the initial state fire here and are
    reported as initial_score (typically 0).  The state is settled unless a
    death rule holds there, so that its first step runs the death loop.
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
    if not any(rule.condition.holds(state) for rule in game.deaths):
        state.view = View(render_look(state, game),
                          render_inventory(state, game))
    return state, observe(state, game), initial


def _apply_verb(state, game, action):
    """Apply the action's effect. Returns (feedback, movement, touched):
    feedback None means the room description (look and go, whether it moves
    or takes a self-loop exit), which the caller renders once; movement is
    (from, direction, to) when the room changed, else None; and touched
    says whether the world state changed.

    World state is only touched when the action applies; otherwise the
    feedback explains the failure and the state is left unchanged.
    """
    template = action.template
    verb = template.verb
    words = template.words
    fillers = action.fillers
    room = game.rooms[state.current_room]

    if words == ("go", BLANK):
        direction = fillers[0]
        ex = room.exits.get(direction)
        if ex is None:
            return "You can't go that way.", None, False
        if ex.condition is not None and not ex.condition.holds(state):
            return ex.blocked_text, None, False
        origin = state.current_room
        if ex.target == origin:     # a self-loop exit moves nowhere
            return None, None, False
        state.current_room = ex.target
        return None, (origin, direction, ex.target), True

    if verb == "look" and len(words) == 1:
        return None, None, False
    if verb == "inventory" and len(words) == 1:
        view = state.view       # a probe of admissible_actions has none
        return (view.inv if view is not None
                else render_inventory(state, game)), None, False
    if verb == "wait" and len(words) == 1:
        return "Time passes.", None, False

    if not fillers:
        return "Nothing happens.", None, False

    obj_id = fillers[0]
    obj = game.objects.get(obj_id)
    carried = obj is not None and state.object_locations.get(obj_id) == INVENTORY
    # open, close, take and read need it; in the dark nothing is visible
    visible = verb in ("open", "close", "take", "read") and obj is not None \
        and (carried or _is_visible(state, game, obj_id))

    if verb == "open":
        if not visible or "openable" not in obj.attrs:
            return "You can't open that.", None, False
        if _is_open(state, obj_id):
            return f"The {obj.name} is already open.", None, False
        state.flags[f"{obj_id}-open"] = True
        if obj.open_text:
            return obj.open_text, None, True
        if "container" in obj.attrs:
            contents = [game.objects[i].name for i in game.object_ids
                        if state.object_locations[i] == ("in", obj_id)]
            if contents:
                listing = " and ".join(f"a {c}" for c in contents)
                return f"Opening the {obj.name} reveals {listing}.", None, True
        return f"You open the {obj.name}.", None, True

    if verb == "close":
        if not visible or "openable" not in obj.attrs:
            return "You can't close that.", None, False
        if not _is_open(state, obj_id):
            return f"The {obj.name} is already closed.", None, False
        state.flags[f"{obj_id}-open"] = False
        return f"You close the {obj.name}.", None, True

    if verb == "take":
        if carried:
            return "You already have that.", None, False
        if not visible or not obj.portable:
            return "You can't take that.", None, False
        state.object_locations[obj_id] = INVENTORY
        return "Taken.", None, True

    if verb == "drop":
        if not carried:
            return "You aren't carrying that.", None, False
        state.object_locations[obj_id] = ("room", state.current_room)
        if _is_lit_obj(state, obj_id):
            state.flags[f"{obj_id}-lit"] = False
        return "Dropped.", None, True

    if verb == "put" and template.blanks == 2:
        container_id = fillers[1]
        container = game.objects.get(container_id)
        if not carried:
            return "You aren't carrying that.", None, False
        if (container is None or "container" not in container.attrs
                or not _is_visible(state, game, container_id)
                or not _is_open(state, container_id)):
            return "You can't put it there.", None, False
        state.object_locations[obj_id] = ("in", container_id)
        return f"You put the {obj.name} in the {container.name}.", None, True

    if verb == "light":
        if not carried or "lightable" not in obj.attrs:
            return "You can't light that.", None, False
        if _is_lit_obj(state, obj_id):
            return f"The {obj.name} is already on.", None, False
        state.flags[f"{obj_id}-lit"] = True
        return f"The {obj.name} is now on.", None, True

    if verb == "extinguish":
        if not carried or not _is_lit_obj(state, obj_id):
            return "It isn't lit.", None, False
        state.flags[f"{obj_id}-lit"] = False
        return f"The {obj.name} is now off.", None, True

    if verb == "read":
        if not visible or "readable" not in obj.attrs:
            return "You can't read that.", None, False
        text = obj.text or f"The {obj.name} has nothing written on it."
        return text, None, False

    return "Nothing happens.", None, False


def step_movement(state, action, game, memo=None):
    """Advance one turn.  Returns (state, observation, step_reward, done,
    movement), movement (from, direction, to) or None when the room did not
    change.  The state is mutated in place; stepping a dead or terminal
    state is a contract violation.  The one step implementation, with the
    fast path for untouched steps from settled states and the memo path
    for touched ones (module docstring).

    memo is a dict that the caller keeps for one game, or None.  A touched
    step from a settled state whose view holds its digest looks up
    (digest, action) there: a hit applies the stored outcome (the events
    fired, the reward, the death, the successor's look, inventory text and
    digest, and the feedback) to the state _apply_verb has moved; a miss
    runs the full step, hashes the successor and stores its outcome.
    """
    if not state.alive:
        raise RuntimeError("cannot step a dead/terminal state")

    feedback, movement, touched = _apply_verb(state, game, action)
    state.turn += 1
    view = state.view
    key = None
    if view is not None:
        if not touched:
            if feedback is None:
                feedback = view.desc
            return (state, Observation(view.desc, feedback, view.inv,
                                       action.text), 0, False, None)
        if memo is not None and view.digest is not None:
            key = (view.digest, action)
            outcome = memo.get(key)
            if outcome is not None:
                fired, reward, done, desc, inv, feedback, digest = outcome
                state.fired_events.update(fired)
                state.score += reward
                state.alive = not done
                state.view = View(desc, inv, digest)
                return (state, Observation(desc, feedback, inv, action.text),
                        reward, done, movement)

    # events and deaths change nothing render_look reads
    desc = render_look(state, game)
    if feedback is None:
        feedback = desc
    reward = 0
    fired = []
    for event in game.events:
        if event.id in state.fired_events:
            continue
        if event.condition.holds(state):
            state.fired_events.add(event.id)
            fired.append(event.id)
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

    view = state.view = View(desc, render_inventory(state, game))
    if key is not None:
        memo[key] = (tuple(fired), reward, done, desc, view.inv, feedback,
                     state_hash(state))
    return (state, Observation(desc, feedback, view.inv, action.text),
            reward, done, movement)


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


def admissible_actions(state, game, templates=None):
    """Grounded actions that change world state (test/oracle facility): the
    groundings of templates (default: all the game's) whose _apply_verb
    touches a copy of the state.

    Every touching action names an exit of the room or an object carried or
    visible in its first blank, so only those fill it, and a template
    without blanks touches nothing; later blanks range over game.entities.
    A probe that does not apply writes nothing, so a copy is only renewed
    after a touching one.  _apply_verb writes outside step_movement, so the
    probes are copies without a view.
    """
    if not state.alive:
        raise RuntimeError("dead state has no admissible actions")
    firsts = [*game.rooms[state.current_room].exits,
              *(o for o in game.object_ids
                if state.object_locations[o] == INVENTORY),
              *visible_objects(state, game)]
    out = set()
    base = state.copy()
    base.view = None
    probe = base.copy()
    for template in game.templates if templates is None else templates:
        if not template.blanks:
            continue
        rest = (game.entities,) * (template.blanks - 1)
        for fillers in itertools.product(firsts, *rest):
            action = GroundedAction(template, fillers)
            if _apply_verb(probe, game, action)[2]:
                out.add(action)
                probe = base.copy()
    return out
