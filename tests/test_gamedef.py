import dataclasses
import hashlib
import json

import pytest

from questkg import gamedef, games
from questkg.gamedef import (GameParseError, GameValidationError, load_game,
                             normalize, parse_condition)
from questkg.questgraph import CycleError

MINIMAL = """\
questgame 1

[meta]
name tiny
start hall
max-score 5

[room hall]
name Hall
desc A bare hall.
exit north closet

[room closet]
name Closet
desc A closet.
exit south hall

[object coin]
name gold coin
loc closet
attrs portable

[templates]
go ___
take ___

[event coin-score]
when carrying coin
reward 5
"""


def test_normalize_strips_articles_and_case():
    assert normalize("The Brass  Lamp ") == "brass lamp"
    assert normalize("a jewel-encrusted egg") == "jewel-encrusted egg"
    assert normalize("") == ""


def test_minimal_game_loads():
    game = load_game(MINIMAL)
    assert game.name == "tiny"
    assert game.start == "hall"
    assert game.max_score == 5
    assert set(game.rooms) == {"hall", "closet"}
    assert game.objects["coin"].portable
    assert len(game.templates) == 2
    assert game.events[0].points == 5


def test_entities_are_objects_plus_directions():
    game = load_game(MINIMAL)
    assert game.entities[:1] == ("coin",)
    assert set(gamedef.DIRECTIONS) <= set(game.entities)


def test_template_properties():
    game = load_game(MINIMAL)
    go = game.templates[0]
    assert go.verb == "go"
    assert go.blanks == 1
    assert go.pattern == "go ___"
    assert go.ground_text(("north",)) == "go north"


def test_condition_parse_and_negation():
    cond = parse_condition("at hall & !flag lamp-lit")
    assert len(cond.atoms) == 2
    assert cond.atoms[1].negated
    assert str(cond) == "at hall & !flag lamp-lit"


@pytest.mark.parametrize("mutation, error", [
    ("", GameParseError),
    (MINIMAL.replace("questgame 1", "questgame 9"), GameParseError),
    (MINIMAL.replace("[meta]", "[mystery]"), GameParseError),
    (MINIMAL.replace("name tiny\n", ""), GameValidationError),
    (MINIMAL.replace("start hall", "start nowhere"), GameValidationError),
    (MINIMAL.replace("exit north closet", "exit north void"),
     GameValidationError),
    (MINIMAL.replace("loc closet", "loc void"), GameValidationError),
    (MINIMAL.replace("max-score 5", "max-score 7"), GameValidationError),
    (MINIMAL.replace("when carrying coin", "when carrying sword"),
     GameValidationError),
    (MINIMAL.replace("go ___\ntake ___", ""), GameValidationError),
    (MINIMAL.replace("take ___", "put ___ in ___ on ___"), GameParseError),
    (MINIMAL.replace("exit north closet", "exit sideways closet"),
     GameParseError),
    # every condition names a room, an object or an object's flag
    (MINIMAL.replace("exit north closet", "exit north closet if carrying sword"),
     GameValidationError),
    (MINIMAL.replace("exit north closet", "exit north closet if at void"),
     GameValidationError),
    (MINIMAL.replace("when carrying coin", "when carrying coin & flag ghost-open"),
     GameValidationError),
    (MINIMAL.replace("when carrying coin", "when carrying coin & !flag coin"),
     GameValidationError),
])
def test_malformed_games_are_rejected(mutation, error):
    with pytest.raises(error):
        load_game(mutation)


@pytest.mark.parametrize("mutation, bad_line", [
    (MINIMAL.replace("questgame 1", "questgame x"), "questgame x"),
    (MINIMAL.replace("max-score 5", "max-score z"), "max-score z"),
    (MINIMAL.replace("reward 5", "reward five"), "reward five"),
    (MINIMAL + "[dag]\nvertex\n", "vertex"),
    (MINIMAL + "[dag]\nvertex coin reward=z\n", "vertex coin reward=z"),
    (MINIMAL.replace("[meta]", "[meta x]"), "[meta x]"),
    (MINIMAL.replace("[templates]", "[templates x]"), "[templates x]"),
    (MINIMAL.replace("[room closet]", "[room]"), "[room]"),
    (MINIMAL.replace("desc A bare hall.", "desk A bare hall."),
     "desk A bare hall."),
    (MINIMAL.replace("name Hall\n", "name Hall\nname Big Hall\n"),
     "name Big Hall"),
    (MINIMAL.replace("reward 5", "reward 5\nreward 3"), "reward 3"),
    (MINIMAL.replace("loc closet", "loc closet\nexit north hall"),
     "exit north hall"),
    # a penalty: archives weight cells by score + 1, and max-score would
    # sit below the reachable score
    (MINIMAL.replace("max-score 5", "max-score 3")
     + "\n[event trap]\nwhen at hall\nreward -2\n", "reward -2"),
], ids=["header", "max-score", "event-reward", "vertex-id", "vertex-reward",
        "meta-id", "templates-id", "room-id", "unknown-key", "repeated-key",
        "repeated-reward", "object-exit", "negative-reward"])
def test_malformed_fields_report_their_line(mutation, bad_line):
    with pytest.raises(GameParseError) as exc:
        load_game(mutation)
    assert exc.value.line == mutation.splitlines().index(bad_line) + 1


@pytest.mark.parametrize("old, new", [
    ("[object coin]", "[object a]"),
    ("[object coin]", "[object the]"),
    ("[object coin]", "[object Coin]"),
    ("[room closet]", "[room Closet]"),
    ("attrs portable", "attrs portable Shiny"),
    ("attrs portable", "attrs an portable"),
    ("name Closet", "name A"),
    ("name Closet", "name The"),
], ids=["object-article", "object-the", "object-case", "room-case",
        "attr-case", "attr-article", "room-name-article", "room-name-the"])
def test_words_that_normalize_breaks_are_rejected_at_their_line(old, new):
    """The graph holds normalized words: an id or attribute that normalize
    changes (or empties) would never reach the mask, and a room name that
    normalizes to '' would make the location empty."""
    text = MINIMAL.replace(old, new)
    with pytest.raises(GameParseError) as exc:
        load_game(text)
    assert exc.value.line == text.splitlines().index(new) + 1


DAG_TAIL = """
[dag]
vertex hall loc=hall
vertex coin loc=closet inv=coin reward=5
edge hall coin
"""


@pytest.mark.parametrize("text, bad_line", [
    (MINIMAL + "\n[room hall]\nname Hall again\n", "[room hall]"),
    (MINIMAL + "\n[object coin]\nloc hall\n", "[object coin]"),
    # two 'coin-score' events whose points add up to max-score
    (MINIMAL.replace("reward 5", "reward 3")
     + "\n[event coin-score]\nwhen at closet\nreward 2\n",
     "[event coin-score]"),
    (MINIMAL + "\n[death pit]\nwhen at closet\n\n[death pit]\nwhen at hall\n",
     "[death pit]"),
    (MINIMAL.replace("exit north closet", "exit north closet\nexit north hall"),
     "exit north hall"),
    (MINIMAL + "\n[meta]\nstart closet\n", "[meta]"),
    (MINIMAL + "\n[templates]\ngo ___\n", "[templates]"),
    (MINIMAL + DAG_TAIL + DAG_TAIL.replace("hall coin", "coin hall"), "[dag]"),
    # a repeated template line, compared on its words
    (MINIMAL.replace("take ___", "take ___\ngo ___"), "go ___"),
    (MINIMAL.replace("take ___", "take ___\ngo  ___"), "go  ___"),
], ids=["room", "object", "event", "death", "exit", "meta", "templates", "dag",
        "template-line", "template-words"])
def test_duplicate_ids_report_the_repeat_line(text, bad_line):
    with pytest.raises(GameParseError) as exc:
        load_game(text)
    lines = text.splitlines()
    assert exc.value.line == len(lines) - lines[::-1].index(bad_line)


@pytest.mark.parametrize("lines", [
    "go ___\ngo north",
    "go north\ngo ___",
    "take ___\ntake coin",
    "take ___ from ___\ntake coin from ___",
    "take ___ from ___\ntake ___ from coin",
    "put ___ in ___\nput coin in north",
    "put ___ in ___\nput ___ ___ coin",
], ids=["blank-then-direction", "direction-then-blank", "object",
        "first-blank", "second-blank", "both-blanks", "blank-for-in"])
def test_templates_that_read_as_one_text_are_rejected_at_the_later(lines):
    """ground takes the first template that matches a text, so a recorded
    action of the later template would replay as the earlier one."""
    text = MINIMAL.replace("go ___\ntake ___", lines)
    with pytest.raises(GameParseError) as exc:
        load_game(text)
    later = lines.splitlines()[1]
    assert exc.value.line == text.splitlines().index(later) + 1


@pytest.mark.parametrize("lines", [
    "go ___\ngo back",       # 'back' is no direction or object id
    "take ___\ntake ___ ___",
    "take ___ from ___\nopen ___ with ___",
    "put ___ in ___\nput coin on ___",
])
def test_templates_that_never_read_as_one_text_load(lines):
    load_game(MINIMAL.replace("go ___\ntake ___", lines))


def test_object_in_non_container_rejected():
    text = MINIMAL.replace("loc closet", "loc in coin")
    with pytest.raises(GameValidationError):
        load_game(text)


def test_dag_section_builds_graph():
    game = load_game(MINIMAL + DAG_TAIL)
    assert set(game.dag.vertices) == {"hall", "coin"}
    assert game.dag.vertices["coin"].reward == 5
    assert ("hall", "coin") in game.dag.edges


def test_cyclic_dag_rejected_with_witness():
    text = MINIMAL + DAG_TAIL + "edge coin hall\n"
    with pytest.raises(CycleError) as exc:
        load_game(text)
    assert set(exc.value.witness) >= {"hall", "coin"}


def test_duplicate_dag_vertex_rejected():
    text = MINIMAL + DAG_TAIL + "vertex coin loc=closet\n"
    with pytest.raises(GameParseError):
        load_game(text)


def test_dag_edge_unknown_vertex_rejected():
    text = MINIMAL + DAG_TAIL + "edge coin ghost\n"
    with pytest.raises(GameParseError):
        load_game(text)


def test_bundled_games_all_load(miniz, chainworld, deceive):
    for game in (miniz, chainworld, deceive):
        assert game.max_score > 0
        assert game.start in game.rooms
        assert game.templates


def test_conditional_exit_parses(miniz):
    ex = miniz.rooms["behind-house"].exits["west"]
    assert ex.target == "kitchen"
    assert ex.condition is not None
    assert ex.blocked_text == "The window is closed."


def canonical(value):
    """A JSON form of a GameDef: dataclasses as field maps, sets sorted,
    dicts as [key, value] pairs and tuples as lists, both in their order."""
    if dataclasses.is_dataclass(value):
        return {f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, frozenset):
        return sorted(canonical(v) for v in value)
    if isinstance(value, dict):
        return [[k, canonical(v)] for k, v in value.items()]
    if isinstance(value, tuple):
        return [canonical(v) for v in value]
    return value


@pytest.mark.parametrize("name, digest", [
    ("miniz", "42a554c96ea91fd3"),
    ("chainworld", "670a5816fbd403aa"),
    ("deceive", "f3d1f983a5c41e95"),
])
def test_bundled_games_parse_to_their_pinned_gamedef(name, digest):
    doc = json.dumps(canonical(games.load_bundled(name)), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest()[:16] == digest
