"""Game definition format: data model, parser, and structural validation.

A game file is a line-oriented text format with a versioned header::

    questgame 1

    [meta]
    name miniz
    start west-of-house
    max-score 50

    [room west-of-house]
    name West of House
    desc You are standing in an open field ...
    exit north north-of-house
    exit west kitchen if flag window-open else The window is closed.

    [object mailbox]
    name small mailbox
    loc west-of-house
    attrs openable container scenery

    [templates]
    go ___
    open ___

    [event egg-score]
    when carrying egg
    reward 5

    [death grue]
    when at cellar & !flag lamp-lit
    text Oh no! ...

    [dag]
    vertex egg loc=up-a-tree inv=egg reward=5
    edge west-of-house egg

Conditions are conjunctions of atoms separated by ``&``.  An atom is one of
``at <room>``, ``carrying <object>``, ``flag <flag>``, optionally negated
with a leading ``!``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

FORMAT_VERSION = 1

DIRECTIONS = (
    "north", "south", "east", "west", "up", "down",
    "northeast", "northwest", "southeast", "southwest", "in", "out",
)

BLANK = "___"

ARTICLES = {"a", "an", "the"}


class GameParseError(ValueError):
    """Raised for malformed game definition text."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GameValidationError(ValueError):
    """Raised when a structurally valid file violates a GameDef invariant."""


class GroundedActionError(ValueError):
    """Raised when action text cannot be matched against any template."""


def normalize(text):
    """Lowercase, trim, strip leading articles, collapse whitespace."""
    words = text.lower().split()
    while words and words[0] in ARTICLES:
        words = words[1:]
    return " ".join(words)


@dataclass(frozen=True)
class Atom:
    negated: bool
    kind: str  # 'at' | 'carrying' | 'flag'
    arg: str


@dataclass(frozen=True)
class Condition:
    atoms: tuple[Atom, ...]

    def holds(self, state):
        for a in self.atoms:
            if a.kind == "at":
                value = state.current_room == a.arg
            elif a.kind == "carrying":
                value = state.object_locations.get(a.arg) == INVENTORY
            else:  # flag
                value = state.flags.get(a.arg, False)
            if value == a.negated:
                return False
        return True

    def __str__(self):
        parts = []
        for a in self.atoms:
            prefix = "!" if a.negated else ""
            parts.append(f"{prefix}{a.kind} {a.arg}")
        return " & ".join(parts)


# Object location markers.  A location is either ("room", room_id),
# ("in", container_id) or INVENTORY.
INVENTORY = ("inv",)


@dataclass(frozen=True)
class Exit:
    target: str
    condition: Condition | None = None
    blocked_text: str = "You can't go that way."


@dataclass(frozen=True)
class Room:
    id: str
    name: str
    desc: str
    exits: dict[str, Exit] = field(default_factory=dict)
    dark: bool = False


@dataclass(frozen=True)
class GameObject:
    id: str
    name: str
    location: tuple
    attrs: frozenset[str] = frozenset()
    text: str = ""
    open_text: str = ""

    @property
    def portable(self):
        return "portable" in self.attrs


@dataclass(frozen=True)
class ActionTemplate:
    words: tuple[str, ...]

    @property
    def verb(self):
        return self.words[0]

    @property
    def blanks(self):
        return sum(1 for w in self.words if w == BLANK)

    @property
    def pattern(self):
        return " ".join(self.words)

    def ground_text(self, fillers):
        out = []
        it = iter(fillers)
        for w in self.words:
            out.append(next(it) if w == BLANK else w)
        return " ".join(out)


@dataclass(frozen=True)
class RewardEvent:
    id: str
    condition: Condition
    points: int
    once: bool = True


@dataclass(frozen=True)
class DeathRule:
    id: str
    condition: Condition
    text: str


@dataclass(frozen=True)
class GameDef:
    name: str
    start: str
    max_score: int
    rooms: dict[str, Room]
    objects: dict[str, GameObject]
    templates: tuple[ActionTemplate, ...]
    events: tuple[RewardEvent, ...]
    deaths: tuple[DeathRule, ...]
    dag: "DependencyGraph | None"
    vocabulary: frozenset[str]
    entities: tuple[str, ...]  # grounding vocabulary: object ids + directions
    attr_vocab: tuple[str, ...]
    name_to_id: dict[str, str]  # normalized room/object name -> id

    def room_of(self, state):
        return self.rooms[state.current_room]


def parse_condition(text, line=None):
    atoms = []
    for raw in text.split("&"):
        part = raw.strip()
        negated = part.startswith("!")
        if negated:
            part = part[1:].strip()
        words = part.split()
        if len(words) != 2 or words[0] not in ("at", "carrying", "flag"):
            raise GameParseError(f"bad condition atom {part!r}", line)
        atoms.append(Atom(negated, words[0], words[1]))
    if not atoms:
        raise GameParseError("empty condition", line)
    return Condition(tuple(atoms))


def _parse_exit(rest, line):
    # "<dir> <room> [if <condition> else <blocked text>]"
    words = rest.split()
    if len(words) < 2:
        raise GameParseError("exit needs a direction and a target room", line)
    direction, target = words[0], words[1]
    if direction not in DIRECTIONS:
        raise GameParseError(f"unknown direction {direction!r}", line)
    tail = rest.split(None, 2)[2] if len(words) > 2 else ""
    condition, blocked = None, "You can't go that way."
    if tail:
        if not tail.startswith("if "):
            raise GameParseError("exit tail must start with 'if'", line)
        tail = tail[3:]
        if " else " in tail:
            cond_text, blocked = tail.split(" else ", 1)
        else:
            cond_text = tail
        condition = parse_condition(cond_text.strip(), line)
    return direction, Exit(target, condition, blocked.strip())


def _parse_int(text, what, line):
    try:
        return int(text)
    except ValueError:
        raise GameParseError(f"{what} must be an integer, got {text!r}",
                             line) from None


def _section_lines(text):
    """Yield (line_number, kind, payload) with kind in header/section/field."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            yield i, "section", line[1:-1].strip()
        else:
            yield i, "field", line


def parse_game(def_text):
    """Parse game definition text into an unvalidated GameDef skeleton dict."""
    if not def_text.strip():
        raise GameParseError("empty game definition")
    lines = list(_section_lines(def_text))
    first_no, _, header = lines[0]
    words = header.split()
    if len(words) != 2 or words[0] != "questgame":
        raise GameParseError("missing 'questgame <version>' header", first_no)
    if _parse_int(words[1], "format version", first_no) != FORMAT_VERSION:
        raise GameParseError(f"unsupported format version {words[1]}", first_no)

    meta = {}
    rooms, objects, events, deaths = {}, {}, [], []
    templates, dag_vertices, dag_edges = [], [], []
    section = None  # (kind, id, body dict, line)

    def close(sec):
        if sec is None:
            return
        kind, sid, body, line = sec
        if kind == "meta":
            meta.update(body)
        elif kind == "room":
            exits = dict(body.get("exits", []))
            rooms[sid] = Room(
                id=sid,
                name=body.get("name", sid),
                desc=body.get("desc", ""),
                exits=exits,
                dark="dark" in body,
            )
        elif kind == "object":
            loc = body.get("loc")
            if loc is None:
                raise GameParseError(f"object {sid!r} has no loc", line)
            objects[sid] = GameObject(
                id=sid,
                name=body.get("name", sid),
                location=loc,
                attrs=frozenset(body.get("attrs", "").split()),
                text=body.get("text", ""),
                open_text=body.get("open-text", ""),
            )
        elif kind == "event":
            if "when" not in body or "reward" not in body:
                raise GameParseError(f"event {sid!r} needs when and reward", line)
            events.append(RewardEvent(sid, body["when"], body["reward"],
                                      once=True))
        elif kind == "death":
            if "when" not in body:
                raise GameParseError(f"death {sid!r} needs a when", line)
            deaths.append(DeathRule(sid, body["when"], body.get(
                "text", "You have died.")))

    for no, kind, payload in lines[1:]:
        if kind == "section":
            close(section)
            words = payload.split()
            name = words[0]
            if name in ("templates", "dag"):
                section = (name, None, {}, no)
            elif name in ("meta",):
                section = ("meta", None, {}, no)
            elif name in ("room", "object", "event", "death"):
                if len(words) != 2:
                    raise GameParseError(f"[{name}] needs an id", no)
                section = (name, words[1], {}, no)
            else:
                raise GameParseError(f"unknown section {name!r}", no)
            continue
        if section is None:
            raise GameParseError("field outside any section", no)
        skind, sid, body, _ = section
        if skind == "templates":
            words = tuple(payload.split())
            if sum(1 for w in words if w == BLANK) > 2:
                raise GameParseError("template has more than two blanks", no)
            templates.append(ActionTemplate(words))
        elif skind == "dag":
            words = payload.split()
            if words[0] == "vertex":
                if len(words) < 2:
                    raise GameParseError("vertex needs an id", no)
                spec = {"loc": "", "inv": "", "reward": "0"}
                for w in words[2:]:
                    if "=" not in w:
                        raise GameParseError(f"bad vertex field {w!r}", no)
                    k, v = w.split("=", 1)
                    if k not in spec:
                        raise GameParseError(f"unknown vertex field {k!r}", no)
                    spec[k] = v
                spec["reward"] = _parse_int(spec["reward"], "vertex reward", no)
                dag_vertices.append((words[1], spec, no))
            elif words[0] == "edge":
                if len(words) != 3:
                    raise GameParseError("edge needs two vertex ids", no)
                dag_edges.append((words[1], words[2], no))
            else:
                raise GameParseError(f"unknown dag line {words[0]!r}", no)
        else:
            key, _, rest = payload.partition(" ")
            rest = rest.strip()
            if skind == "room" and key == "exit":
                direction, ex = _parse_exit(rest, no)
                body.setdefault("exits", []).append((direction, ex))
            elif key == "when":
                body["when"] = parse_condition(rest, no)
            elif (skind, key) in (("meta", "max-score"), ("event", "reward")):
                body[key] = _parse_int(rest, key, no)
            elif skind == "object" and key == "loc":
                if rest == "inventory":
                    body["loc"] = INVENTORY
                elif rest.startswith("in "):
                    body["loc"] = ("in", rest.split()[1])
                else:
                    body["loc"] = ("room", rest)
            else:
                body[key] = rest
    close(section)

    return {
        "meta": meta,
        "rooms": rooms,
        "objects": objects,
        "templates": templates,
        "events": events,
        "deaths": deaths,
        "dag_vertices": dag_vertices,
        "dag_edges": dag_edges,
    }


def _build_dag(parsed):
    from .questgraph import DependencyGraph, DepVertex

    if not parsed["dag_vertices"]:
        return None
    vertices = {}
    for vid, spec, no in parsed["dag_vertices"]:
        if vid in vertices:
            raise GameParseError(f"duplicate dag vertex {vid!r}", no)
        vertices[vid] = DepVertex(
            id=vid,
            locations=frozenset(x for x in spec["loc"].split(",") if x),
            items=frozenset(x for x in spec["inv"].split(",") if x),
            reward=spec["reward"],
        )
    edges = set()
    for u, v, no in parsed["dag_edges"]:
        for end in (u, v):
            if end not in vertices:
                raise GameParseError(f"edge references unknown vertex {end!r}", no)
        edges.add((u, v))
    return DependencyGraph(vertices=vertices, edges=frozenset(edges))


def _derive_vocabulary(rooms, objects, templates):
    vocab = set(DIRECTIONS)
    for room in rooms.values():
        vocab.update(normalize(room.name).split())
    for obj in objects.values():
        vocab.add(obj.id)
        vocab.update(normalize(obj.name).split())
    for t in templates:
        vocab.update(w for w in t.words if w != BLANK)
    return frozenset(vocab)


def load_game(def_text):
    """Parse and validate a game definition, returning a GameDef.

    Raises GameParseError on malformed input and GameValidationError when a
    GameDef invariant is violated.  Reward reachability is an authoring-time
    concern checked separately by questgraph.validate_against_game.
    """
    parsed = parse_game(def_text)
    meta = parsed["meta"]
    for key in ("name", "start", "max-score"):
        if key not in meta:
            raise GameValidationError(f"[meta] missing required field {key!r}")
    rooms, objects = parsed["rooms"], parsed["objects"]
    if meta["start"] not in rooms:
        raise GameValidationError(f"start room {meta['start']!r} is not defined")
    for room in rooms.values():
        for direction, ex in room.exits.items():
            if ex.target not in rooms:
                raise GameValidationError(
                    f"room {room.id!r} exit {direction} targets undefined room "
                    f"{ex.target!r}")
    for obj in objects.values():
        kind = obj.location[0]
        if kind == "room" and obj.location[1] not in rooms:
            raise GameValidationError(
                f"object {obj.id!r} placed in undefined room {obj.location[1]!r}")
        if kind == "in":
            container = objects.get(obj.location[1])
            if container is None:
                raise GameValidationError(
                    f"object {obj.id!r} placed in undefined container "
                    f"{obj.location[1]!r}")
            if "container" not in container.attrs:
                raise GameValidationError(
                    f"object {obj.id!r} placed inside non-container "
                    f"{container.id!r}")
    max_score = meta["max-score"]
    total = sum(e.points for e in parsed["events"] if e.once)
    if total != max_score:
        raise GameValidationError(
            f"once-only reward points sum to {total}, expected max-score "
            f"{max_score}")
    for rule in parsed["events"] + parsed["deaths"]:
        for atom in rule.condition.atoms:
            if atom.kind == "at" and atom.arg not in rooms:
                raise GameValidationError(
                    f"{rule.id!r} refers to undefined room {atom.arg!r}")
            if atom.kind == "carrying" and atom.arg not in objects:
                raise GameValidationError(
                    f"{rule.id!r} refers to undefined object {atom.arg!r}")
    templates = tuple(parsed["templates"])
    if not templates:
        raise GameValidationError("game defines no action templates")

    dag = _build_dag(parsed)
    if dag is not None:
        from .questgraph import topological_levels
        topological_levels(dag)  # raises on cycles

    vocabulary = _derive_vocabulary(rooms, objects, templates)
    entities = tuple(sorted(objects)) + DIRECTIONS
    attr_vocab = sorted({a for o in objects.values() for a in o.attrs}
                        | {"open", "lit"})
    name_to_id = {}
    for room in rooms.values():
        name_to_id[normalize(room.name)] = room.id
    for obj in objects.values():
        name_to_id[normalize(obj.name)] = obj.id
        name_to_id.setdefault(obj.id, obj.id)

    return GameDef(
        name=meta["name"],
        start=meta["start"],
        max_score=max_score,
        rooms=rooms,
        objects=objects,
        templates=templates,
        events=tuple(parsed["events"]),
        deaths=tuple(parsed["deaths"]),
        dag=dag,
        vocabulary=vocabulary,
        entities=entities,
        attr_vocab=tuple(attr_vocab),
        name_to_id=name_to_id,
    )
