"""Question-answering seam between observations and the knowledge graph.

Answer backends are pluggable: a ground-truth oracle reading the simulator
state, a rule-based extractor over rendered text, and a seeded noise wrapper
simulating QA-model error.  Downstream code consumes AnswerSet values and
never inspects which backend produced them.  A QAContext is written and
read as text only in the QA dataset layout (qa_record, parse_qa_dataset).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import engine
from .gamedef import normalize

QUESTIONS = (
    "Where am I located?",
    "What is here?",
    "What do I have?",
    "What attributes does {x} have?",
)

SECTION_MARKERS = ("[loc]", "[inv]", "[obs]", "[atr]")


@dataclass(frozen=True)
class AnswerSet:
    location: str = ""
    surroundings: tuple[str, ...] = ()
    inventory: tuple[str, ...] = ()
    attributes: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class QAContext:
    loc: str
    inv: str
    obs: str
    atr: str


def _flatten(text):
    return " ".join(text.split())


def build_context(obs, attr_vocab):
    """Flatten an engine observation into a QAContext."""
    return QAContext(
        loc=_flatten(obs.desc),
        inv=_flatten(obs.inv),
        obs=_flatten(obs.feedback),
        atr=", ".join(attr_vocab),
    )


def oracle_answer(state, game):
    """Ground-truth answers read directly from the simulator state.

    Surroundings include visible co-located objects and the exit directions
    of the current room; attributes cover authored attributes plus the
    dynamic open/lit ones, for objects in surroundings or inventory.
    """
    room = game.rooms[state.current_room]
    objects = engine.visible_objects(state, game)
    dirs = list(room.exits) if engine.has_light(state, game) else []
    inventory = tuple(o for o in game.object_ids
                      if state.object_locations[o] == engine.INVENTORY)
    attributes = {}
    for obj_id in list(objects) + list(inventory):
        attrs = sorted(game.objects[obj_id].attrs)
        if state.flags.get(f"{obj_id}-open"):
            attrs.append("open")
        if state.flags.get(f"{obj_id}-lit"):
            attrs.append("lit")
        if attrs:
            attributes[obj_id] = tuple(attrs)
    return AnswerSet(
        location=normalize(room.name),
        surroundings=tuple(objects) + tuple(dirs),
        inventory=inventory,
        attributes=attributes,
    )


@dataclass(frozen=True)
class Lexicon:
    """Vocabulary tables the rule-based extractor matches against."""
    room_names: dict[str, str]       # normalized name -> id
    object_names: dict[str, str]     # normalized name or id -> id
    directions: tuple[str, ...]
    attr_vocab: tuple[str, ...]

    @staticmethod
    def from_game(game):
        from .gamedef import DIRECTIONS
        rooms = {normalize(r.name): r.id for r in game.rooms.values()}
        objs = {}
        for o in game.objects.values():
            objs[normalize(o.name)] = o.id
            objs[o.id] = o.id
        return Lexicon(rooms, objs, DIRECTIONS, tuple(game.attr_vocab))


def _match_entities(text, lexicon, with_directions):
    found = []
    lowered = " " + normalize(text) + " "
    for name, obj_id in sorted(lexicon.object_names.items()):
        if f" {name} " in lowered or f" {name}." in lowered or \
                f" {name}," in lowered:
            if obj_id not in found:
                found.append(obj_id)
    if with_directions:
        words = set(re.findall(r"[a-z]+", lowered))
        for d in lexicon.directions:
            if d in words and d not in found:
                found.append(d)
    return found


def rule_answer(ctx, lexicon):
    """Pattern rules over the context's text; no simulator access."""
    location = ""
    loc_norm = normalize(ctx.loc)
    for name in sorted(lexicon.room_names, key=len, reverse=True):
        if loc_norm.startswith(name):
            location = name
            break
    surroundings = tuple(_match_entities(ctx.loc, lexicon, with_directions=True))
    if normalize(ctx.inv) == normalize("You are empty handed."):
        inventory = ()
    else:
        inventory = tuple(_match_entities(ctx.inv, lexicon, with_directions=False))
    attributes = {}
    attr_words = {a.strip() for a in ctx.atr.split(",") if a.strip()}
    for obj_id in list(surroundings) + list(inventory):
        near = []
        # Only state-dependent attributes are recoverable from text.
        pattern = re.escape(obj_id)
        if re.search(rf"{pattern}[a-z ]* which is open", ctx.loc.lower()) or \
                re.search(rf"opening the [a-z ]*{pattern}", ctx.obs.lower()):
            near.append("open")
        hits = tuple(a for a in sorted(near) if a in attr_words)
        if hits:
            attributes[obj_id] = hits
    return AnswerSet(location=location, surroundings=surroundings,
                     inventory=inventory, attributes=attributes)


def noisy_answer(answers, p_drop, p_swap, rng, vocabulary):
    """Corrupt an AnswerSet: items dropped with p_drop, swapped with p_swap.

    rng is a numpy Generator; corruption is reproducible for a given seed.
    """
    if not 0 <= p_drop <= 1 or not 0 <= p_swap <= 1:
        raise ValueError("p_drop and p_swap must be probabilities")
    vocab = sorted(vocabulary)

    def corrupt_items(items):
        out = []
        for item in items:
            u = rng.random()
            if u < p_drop:
                continue
            if u < p_drop + p_swap and vocab:
                out.append(vocab[rng.integers(len(vocab))])
            else:
                out.append(item)
        return tuple(out)

    attributes = {}
    for obj, attrs in sorted(answers.attributes.items()):
        kept = corrupt_items(attrs)
        if kept:
            attributes[obj] = kept
    return AnswerSet(
        location="" if rng.random() < p_drop else answers.location,
        surroundings=corrupt_items(answers.surroundings),
        inventory=corrupt_items(answers.inventory),
        attributes=attributes,
    )


BACKENDS = ("oracle", "rule", "noisy")


def make_backend(name, game, seed=0, p_drop=0.1, p_swap=0.05):
    """Answer backend factory: (state, obs) -> AnswerSet.

    Names: "oracle", "rule", "noisy" (oracle wrapped in the noise model).
    The oracle's callable has `pure = True`: its answers are a function of
    the world state alone, so a step that changes nothing may skip it.  The
    rule backend reads the feedback text and the noisy one draws from its
    RNG on every call, so neither is pure.
    """
    if name == "oracle":
        def oracle(state, obs):
            return oracle_answer(state, game)
        oracle.pure = True
        return oracle
    if name == "rule":
        lexicon = Lexicon.from_game(game)
        return lambda state, obs: rule_answer(
            build_context(obs, game.attr_vocab), lexicon)
    if name == "noisy":
        rng = np.random.default_rng(seed)
        vocab = list(game.object_ids)
        return lambda state, obs: noisy_answer(
            oracle_answer(state, game), p_drop, p_swap, rng, vocab)
    raise ValueError(f"unknown extraction backend {name!r}")


# --- QA dataset emission ----------------------------------------------------

def _answer_list(items):
    return ", ".join(items) if items else "nothing"


def qa_record(ctx, answers):
    lines = ["Context: ",
             f"[loc] {ctx.loc}",
             f"[inv] {ctx.inv}",
             f"[obs] {ctx.obs}",
             f"[atr] {ctx.atr}",
             f"Question: {QUESTIONS[0]} Answer: {answers.location or 'nothing'}",
             f"Question: {QUESTIONS[1]} Answer: {_answer_list(answers.surroundings)}",
             f"Question: {QUESTIONS[2]} Answer: {_answer_list(answers.inventory)}"]
    for obj, attrs in sorted(answers.attributes.items()):
        lines.append(f"Question: {QUESTIONS[3].format(x=obj)} "
                     f"Answer: {_answer_list(attrs)}")
    return "\n".join(lines)


def emit_qa_dataset(records):
    """Serialize (QAContext, AnswerSet) pairs in the QA corpus layout."""
    return "\n\n".join(qa_record(ctx, ans) for ctx, ans in records)


_QA_LINE = re.compile(r"Question: (.*?) Answer: (.*)")


def parse_qa_dataset(text):
    """Inverse of emit_qa_dataset; returns a list of (QAContext, qa pairs)."""
    out = []
    for block in text.split("\n\n"):
        if not block.strip():
            continue
        lines = block.splitlines()
        if lines[0].rstrip() != "Context:":
            raise ValueError("record does not start with 'Context:'")
        sections = {}
        qa = []
        for line in lines[1:]:
            matched = _QA_LINE.fullmatch(line)
            if matched:
                qa.append((matched.group(1), matched.group(2)))
                continue
            for marker in SECTION_MARKERS:
                if line.startswith(marker + " ") or line == marker:
                    sections[marker] = line[len(marker):].strip()
                    break
            else:
                raise ValueError(f"unrecognized dataset line {line!r}")
        ctx = QAContext(loc=sections.get("[loc]", ""),
                        inv=sections.get("[inv]", ""),
                        obs=sections.get("[obs]", ""),
                        atr=sections.get("[atr]", ""))
        out.append((ctx, qa))
    return out
