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

Keys by section: meta ``name start max-score``; room ``name desc exit
dark``; object ``name loc attrs text open-text``; event ``when reward``;
death ``when text``.  Only ``exit`` repeats.  ``[meta]``, ``[templates]``
and ``[dag]`` appear at most once, every other section once per id, and no
two templates can read as the same action text (a blank reads as any
object id or direction).  An event's ``reward`` is not negative.  Room
ids, object ids and attributes are their own ``normalize`` form (the graph
holds that form), and a room name does not normalize to ``''``.

Conditions are conjunctions of atoms separated by ``&``.  An atom is one of
``at <room>``, ``carrying <object>``, ``flag <flag>``, optionally negated
with a leading ``!``.  A flag is ``<object>-open`` or ``<object>-lit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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

    @cached_property
    def verb(self):
        return self.words[0]

    @cached_property
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
    entities: tuple[str, ...]  # grounding vocabulary: object ids + directions
    attr_vocab: tuple[str, ...]

    @cached_property
    def object_ids(self):
        """The object ids, sorted: computed once per game, not a field."""
        return tuple(sorted(self.objects))


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
    return Condition(tuple(atoms))


def _parse_exit(rest, line):
    # "<dir> <room> [if <condition> [else <blocked text>]]"
    words = rest.split(None, 2)
    if len(words) < 2:
        raise GameParseError("exit needs a direction and a target room", line)
    direction, target, *tail = words
    if direction not in DIRECTIONS:
        raise GameParseError(f"unknown direction {direction!r}", line)
    if not tail:
        return direction, Exit(target)
    if not tail[0].startswith("if "):
        raise GameParseError("exit tail must start with 'if'", line)
    cond_text, has_else, blocked = tail[0][3:].partition(" else ")
    condition = parse_condition(cond_text.strip(), line)
    if not has_else:
        return direction, Exit(target, condition)
    return direction, Exit(target, condition, blocked.strip())


def _check_normal(what, word, line):
    """Graph triples hold normalized words, so an id or attribute that
    normalize changes would never match the graph (or vanish)."""
    if normalize(word) != word:
        raise GameParseError(f"{what} {word!r} is not its normalized form "
                             f"{normalize(word)!r}", line)


def flag_names(objects):
    """Every flag the engine can set for the objects: <id>-open, <id>-lit."""
    return {f"{o}-{state}" for o in objects for state in ("open", "lit")}


def _parse_int(text, what, line):
    try:
        return int(text)
    except ValueError:
        raise GameParseError(f"{what} must be an integer, got {text!r}",
                             line) from None


# Each section kind: whether its header takes an id, and the keys of its
# "key value" lines ([templates] and [dag] lines have no keys).
SECTIONS = {
    "meta": (False, ("name", "start", "max-score")),
    "templates": (False, ()),
    "dag": (False, ()),
    "room": (True, ("name", "desc", "exit", "dark")),
    "object": (True, ("name", "loc", "attrs", "text", "open-text")),
    "event": (True, ("when", "reward")),
    "death": (True, ("when", "text")),
}


def _sections(text):
    """Check the 'questgame <version>' header and split the rest of the text
    into sections, in file order: {(kind, id or None): (header line,
    [(line, payload), ...])}."""
    lines = [(i, line) for i, line in enumerate(
        (raw.strip() for raw in text.splitlines()), start=1)
        if line and not line.startswith("#")]
    if not lines:
        raise GameParseError("empty game definition")
    no, header = lines[0]
    words = header.split()
    if len(words) != 2 or words[0] != "questgame":
        raise GameParseError("missing 'questgame <version>' header", no)
    if _parse_int(words[1], "format version", no) != FORMAT_VERSION:
        raise GameParseError(f"unsupported format version {words[1]}", no)
    sections, body = {}, None
    for no, line in lines[1:]:
        if not (line.startswith("[") and line.endswith("]")):
            if body is None:
                raise GameParseError("field outside any section", no)
            body.append((no, line))
            continue
        words = line[1:-1].split()
        if not words or words[0] not in SECTIONS:
            raise GameParseError(f"unknown section {line}", no)
        kind, ids = words[0], words[1:]
        takes_id = SECTIONS[kind][0]
        if len(ids) != takes_id:
            raise GameParseError(
                f"[{kind}] header takes {'an id' if takes_id else 'no id'}", no)
        key = (kind, ids[0] if ids else None)
        if key in sections:
            raise GameParseError(f"duplicate [{' '.join(words)}]", no)
        body = []
        sections[key] = (no, body)
    return sections


def _fields(kind, body):
    """The values of a section's 'key value' lines by key.  Only 'exit'
    repeats: a room's exits are collected as a direction -> Exit dict."""
    fields = {}
    for no, payload in body:
        key, _, rest = payload.partition(" ")
        rest = rest.strip()
        if key not in SECTIONS[kind][1]:
            raise GameParseError(f"unknown [{kind}] key {key!r}", no)
        if key in fields and key != "exit":
            raise GameParseError(f"repeated key {key!r}", no)
        if kind == "room" and key == "name" and not normalize(rest):
            raise GameParseError(f"room name {rest!r} normalizes to ''", no)
        if key == "attrs":
            for attr in rest.split():
                _check_normal("attribute", attr, no)
        if key == "exit":
            direction, ex = _parse_exit(rest, no)
            exits = fields.setdefault("exit", {})
            if direction in exits:
                raise GameParseError(f"duplicate exit {direction}", no)
            exits[direction] = ex
        elif key == "when":
            fields[key] = parse_condition(rest, no)
        elif key in ("max-score", "reward"):
            fields[key] = _parse_int(rest, key, no)
            # archives weight cells by score + 1, and max-score is the most
            # a game can give only when no reward takes points away
            if key == "reward" and fields[key] < 0:
                raise GameParseError(f"reward {rest} is negative", no)
        elif key == "loc" and rest == "inventory":
            fields[key] = INVENTORY
        elif key == "loc" and rest.startswith("in "):
            fields[key] = ("in", rest.split()[1])
        elif key == "loc":
            fields[key] = ("room", rest)
        else:
            fields[key] = rest
    return fields


def _build_dag(body):
    """The DependencyGraph of a [dag] section's lines, None if it has no
    vertices."""
    from .questgraph import DependencyGraph, DepVertex

    vertices, edges = {}, set()
    # Vertex lines first, so that an edge may name a vertex defined below it.
    for no, payload in sorted(body, key=lambda e: e[1].split()[0] != "vertex"):
        words = payload.split()
        if words[0] == "vertex":
            if len(words) < 2:
                raise GameParseError("vertex needs an id", no)
            if words[1] in vertices:
                raise GameParseError(f"duplicate dag vertex {words[1]!r}", no)
            spec = {"loc": "", "inv": "", "reward": "0"}
            for w in words[2:]:
                k, eq, v = w.partition("=")
                if not eq or k not in spec:
                    raise GameParseError(f"bad vertex field {w!r}", no)
                spec[k] = v
            vertices[words[1]] = DepVertex(
                id=words[1],
                locations=frozenset(x for x in spec["loc"].split(",") if x),
                items=frozenset(x for x in spec["inv"].split(",") if x),
                reward=_parse_int(spec["reward"], "vertex reward", no),
            )
        elif words[0] == "edge":
            if len(words) != 3:
                raise GameParseError("edge needs two vertex ids", no)
            for end in words[1:]:
                if end not in vertices:
                    raise GameParseError(
                        f"edge references unknown vertex {end!r}", no)
            edges.add((words[1], words[2]))
        else:
            raise GameParseError(f"unknown dag line {words[0]!r}", no)
    if not vertices:
        return None
    return DependencyGraph(vertices=vertices, edges=frozenset(edges))


def _check_unambiguous(templates, lines, vocabulary):
    """Reject a template that can read as the same text as an earlier one,
    at its line, so that ground finds the template that made any action:
    the two have the same length and at each position the same word, or a
    blank and a word of the vocabulary (a blank's fillers)."""
    def same(a, b):
        return (a == b or (a == BLANK and b in vocabulary)
                or (b == BLANK and a in vocabulary))

    for j, later in enumerate(templates):
        for earlier in templates[:j]:
            if (len(earlier.words) == len(later.words)
                    and all(map(same, earlier.words, later.words))):
                raise GameParseError(f"template {later.pattern!r} can read as "
                                     f"{earlier.pattern!r}", lines[j])


def load_game(def_text):
    """Parse and validate a game definition, returning a GameDef.

    Raises GameParseError on malformed input and GameValidationError when a
    GameDef invariant is violated.  Reward reachability is an authoring-time
    concern checked separately by questgraph.validate_against_game.
    """
    meta, rooms, objects, events, deaths = {}, {}, {}, [], []
    templates, template_lines, dag = [], [], None
    for (kind, sid), (no, body) in _sections(def_text).items():
        if kind == "templates":
            for line, payload in body:
                template = ActionTemplate(tuple(payload.split()))
                if template.blanks > 2:
                    raise GameParseError("template has more than two blanks",
                                         line)
                templates.append(template)
                template_lines.append(line)
            continue
        if kind == "dag":
            dag = _build_dag(body)
            continue
        if kind in ("room", "object"):
            _check_normal(f"{kind} id", sid, no)
        fields = _fields(kind, body)
        if kind == "meta":
            meta = fields
        elif kind == "room":
            rooms[sid] = Room(
                id=sid,
                name=fields.get("name", sid),
                desc=fields.get("desc", ""),
                exits=fields.get("exit", {}),
                dark="dark" in fields,
            )
        elif kind == "object":
            if "loc" not in fields:
                raise GameParseError(f"object {sid!r} has no loc", no)
            objects[sid] = GameObject(
                id=sid,
                name=fields.get("name", sid),
                location=fields["loc"],
                attrs=frozenset(fields.get("attrs", "").split()),
                text=fields.get("text", ""),
                open_text=fields.get("open-text", ""),
            )
        elif kind == "event":
            if "when" not in fields or "reward" not in fields:
                raise GameParseError(f"event {sid!r} needs when and reward", no)
            events.append(RewardEvent(sid, fields["when"], fields["reward"]))
        else:  # death
            if "when" not in fields:
                raise GameParseError(f"death {sid!r} needs a when", no)
            deaths.append(DeathRule(sid, fields["when"],
                                    fields.get("text", "You have died.")))

    entities = tuple(sorted(objects)) + DIRECTIONS
    _check_unambiguous(templates, template_lines, set(entities))

    for key in ("name", "start", "max-score"):
        if key not in meta:
            raise GameValidationError(f"[meta] missing required field {key!r}")
    if meta["start"] not in rooms:
        raise GameValidationError(f"start room {meta['start']!r} is not defined")
    conditions = [(repr(rule.id), rule.condition) for rule in events + deaths]
    for room in rooms.values():
        for direction, ex in room.exits.items():
            if ex.target not in rooms:
                raise GameValidationError(
                    f"room {room.id!r} exit {direction} targets undefined room "
                    f"{ex.target!r}")
            if ex.condition is not None:
                conditions.append((f"room {room.id!r} exit {direction}",
                                   ex.condition))
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
    total = sum(e.points for e in events)
    if total != max_score:
        raise GameValidationError(
            f"once-only reward points sum to {total}, expected max-score "
            f"{max_score}")
    known = {"at": ("room", rooms), "carrying": ("object", objects),
             "flag": ("flag", flag_names(objects))}
    for owner, condition in conditions:
        for atom in condition.atoms:
            what, names = known[atom.kind]
            if atom.arg not in names:
                raise GameValidationError(
                    f"{owner} refers to undefined {what} {atom.arg!r}")
    if not templates:
        raise GameValidationError("game defines no action templates")

    if dag is not None:
        from .questgraph import topological_levels
        topological_levels(dag)  # raises on cycles

    attr_vocab = sorted({a for o in objects.values() for a in o.attrs}
                        | {"open", "lit"})
    return GameDef(
        name=meta["name"],
        start=meta["start"],
        max_score=max_score,
        rooms=rooms,
        objects=objects,
        templates=tuple(templates),
        events=tuple(events),
        deaths=tuple(deaths),
        dag=dag,
        entities=entities,
        attr_vocab=tuple(attr_vocab),
    )
