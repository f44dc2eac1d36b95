import pytest

from questkg import gamedef
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


def test_vocabulary_covers_names_and_verbs():
    game = load_game(MINIMAL)
    for word in ("coin", "gold", "go", "take", "north"):
        assert word in game.vocabulary


def test_name_to_id_maps_normalized_names():
    game = load_game(MINIMAL)
    assert game.name_to_id["gold coin"] == "coin"
    assert game.name_to_id["hall"] == "hall"


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
], ids=["header", "max-score", "event-reward", "vertex-id", "vertex-reward"])
def test_malformed_fields_report_their_line(mutation, bad_line):
    with pytest.raises(GameParseError) as exc:
        load_game(mutation)
    assert exc.value.line == mutation.splitlines().index(bad_line) + 1


def test_object_in_non_container_rejected():
    text = MINIMAL.replace("loc closet", "loc in coin")
    with pytest.raises(GameValidationError):
        load_game(text)


DAG_TAIL = """
[dag]
vertex hall loc=hall
vertex coin loc=closet inv=coin reward=5
edge hall coin
"""


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
