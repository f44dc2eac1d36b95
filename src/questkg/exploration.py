"""Structured exploration: stagnation detection, backtracking, policy
chaining, the vanilla A2C baseline, and the Go-Explore-style cell archive.

All three strategies train in _phase, which steps a batch of independent
environment instances round-robin; they share policy parameters and a
run-level global edge set, and _phase decides the actions of the envs that
act next in one policy.act_batch call, with the picks of per-env acting.
The strategies differ in where episodes begin (the game start, a buffer
entry, a sampled cell: each a Launch with its world state and the actions
that reach it) and in the hooks that do their bookkeeping (buffers, chain,
archive) between steps; each AgentEnv counts its own stagnant steps and
keeps the launch it began from.  Recorded actions are replayed with a graph
in one kind of oracle AgentEnv (_replay_env), which loop removal and the
chain layer share; the walk that removes loops also yields the state
buffer and the frontier, and a detour splice is judged by the end state of
the walk it would adopt.  A best trajectory joins a launch's actions to an
episode's (mc_train removes its loops); vanilla_train and go_train read
theirs off the improving episode (up to AgentEnv.last_gain), without a
replay.  Action sampling reads a dedicated stream of uniforms
(policy.Uniforms) so that deterministic bookkeeping never perturbs
trajectories.  Engine snapshot bytes exist only where a chain meets a
file: save_chain writes them and load_chain restores them.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import engine, extraction, kg, policy
from .gamedef import flag_names, normalize

ROLLOUT = 8             # outer iterations between A2C updates
STUCK_FRACTION = 0.75   # share of the batch that must stagnate to backtrack


@dataclass(frozen=True)
class TrainingSettings:
    """The settings a training call shares with `questkg run`'s config."""
    backend: str = "oracle"          # one of extraction.BACKENDS
    batch_size: int = 16
    horizon: int = 50                # per-episode turn limit
    patience: int | None = 3000      # per-instance stagnant steps; None = off
    buffer_size: int = 40
    alpha: float = 1.0
    eps: float = 1.0
    gamma: float = 0.9
    learning_rate: float = 0.05
    entropy_coef: float = 0.01
    p_drop: float = 0.1
    p_swap: float = 0.05


@dataclass(frozen=True)
class ExplorationConfig(TrainingSettings):
    """A training call's settings; each field's rules are checked here."""
    seed: int = 0
    total_steps: int = 100_000       # summed over the instance batch
    stop_at_max: bool = True
    encoder: policy.EncoderConfig = field(default_factory=policy.EncoderConfig)

    def __post_init__(self):
        sizes = ("batch_size", "horizon", "patience", "buffer_size")
        for name in ("seed", "total_steps", *sizes):
            value = getattr(self, name)
            if value is None and name == "patience":
                continue
            if type(value) is not int:      # a bool is not one
                raise ValueError(f"{name} must be an integer")
            if value < 1 and name in sizes:
                raise ValueError(f"{name} must be at least 1")
            if value < 0:       # numpy's generators take no negative seed
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        # for alpha and eps, this makes a rewardless step's shaped reward 0.0
        for name in ("alpha", "eps", "gamma", "learning_rate",
                     "entropy_coef", "p_drop", "p_swap"):
            value = getattr(self, name)
            if type(value) not in (int, float):     # nor a bool
                raise ValueError(f"{name} must be a number")
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {value!r}")
            if name in ("gamma", "p_drop", "p_swap") and value > 1:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.backend not in extraction.BACKENDS:
            raise ValueError(f"backend must be one of {extraction.BACKENDS}, "
                             f"got {self.backend!r}")


@dataclass
class LogRow:
    step: int
    instance: int
    score: int
    r_im: int
    r_t: float
    global_size: int
    flags: str = ""

    def line(self):
        return (f"{self.step}\t{self.instance}\t{self.score}\t{self.r_im}\t"
                f"{self.r_t:.6f}\t{self.global_size}\t{self.flags}")


class TrajectoryHasher:
    """blake2b of one line per recorded step.  The lines reach the hash
    `block` at a time and the rest at hexdigest; blake2b is a stream, so
    the digest is that of one update per line."""

    block = 1024

    def __init__(self):
        self._h = hashlib.blake2b(digest_size=16)
        self._lines = []

    def record(self, instance, action_text, reward, score, shash, kghash):
        lines = self._lines
        lines.append(
            f"{instance}|{action_text}|{reward}|{score}|{shash}|{kghash}\n")
        if len(lines) >= self.block:
            self._feed()

    def _feed(self):
        self._h.update("".join(self._lines).encode())
        self._lines.clear()

    def hexdigest(self):
        self._feed()
        return self._h.hexdigest()


# --- per-instance environment wrapper ---------------------------------------


@dataclass(frozen=True, eq=False)
class Launch:
    """Episode start point: a private world state that nothing writes but
    the digest cache of its view (engine.state_hash), the agent's graph
    there and the actions from game reset that reach it (none for a chain
    module's launch).  Equal to itself alone, hashed by id."""
    state: engine.WorldState
    graph_triples: frozenset
    actions: tuple[str, ...] = ()


def game_start_launch(game):
    return launch_at(engine.reset(game)[0], kg.KnowledgeGraph())


def launch_at(state, graph, actions=()):
    """The Launch at state with graph, reached by actions.  Its private
    copy is hashed once, so a settled one's view holds the digest and so
    does every copy begin makes (the key of a step memo lookup)."""
    state = state.copy()
    engine.state_hash(state)
    return Launch(state, frozenset(graph.triples), tuple(actions))


class RunMemo:
    """What the envs of one training call with a pure backend build from
    its answers and the engine's steps, shared by them all: each map's
    value is a function of its key alone.

    begins: launch -> (graph, tracker, mask, obs) as the first begin from
        that launch built them.
    answers: state_hash -> kg.answer_triples of the backend's answers there.
    masks: kg_hash -> the entity mask of a graph with those triples.
    steps: (state_hash, GroundedAction) -> the outcome of a touched engine
        step from a settled state with that digest (engine.step_movement's
        memo).

    The arrays it hands out (mask and graph summary) are read-only."""

    __slots__ = ("begins", "answers", "masks", "steps")

    def __init__(self):
        self.begins = {}
        self.answers = {}
        self.masks = {}
        self.steps = {}


class AgentEnv:
    """One environment instance with its knowledge graph and feature cache.

    A RunMemo, which its trainer gives it only with a pure backend, lets
    begin() copy what an earlier begin from the same launch object built,
    and step() and mask() reuse the outcome of a touched engine step, the
    answers of a state and the mask of a graph that any env sharing the
    memo computed: copying a launch's state, stepping the engine, asking a
    pure backend and masking a graph give the same bits every time, and
    the global edge set already holds the triples the first begin
    absorbed.  Without a memo every begin asks the backend.
    """

    def __init__(self, game, encoder, backend, global_edges, config, index,
                 memo=None):
        self.game = game
        self.encoder = encoder
        self.backend = backend
        self.pure = getattr(backend, "pure", False)
        self.global_edges = global_edges
        self.config = config
        self.index = index
        self.memo = memo
        self.state = None
        self.graph = None
        self.obs = None
        self.tracker = None
        self.launch = None        # what the episode began from
        self.episode_actions = None
        self.needs_reset = True
        self.stagnant = 0         # steps since the last globally new triple
        self._feats = None        # feats(), until the next begin or step
        self._mask = None         # mask(), until the graph changes

    def begin(self, launch):
        """Start an episode at a copy of the launch's state, and put the
        backend's answers there in the launch's graph.  A copy of a settled
        state is settled (see engine), so the observation comes from its
        view and the episode's first step can take the engine's fast path
        or its memo path: the view keeps the digest launch_at computed."""
        self._feats = None
        self.state = launch.state.copy()
        if not self.state.alive:
            raise ValueError("cannot launch an episode from a terminal state")
        memo = self.memo
        built = memo.begins.get(launch) if memo is not None else None
        if built is not None:
            graph, tracker, self._mask, self.obs = built
            self.graph = graph.copy()
            self.tracker = tracker.copy()
        else:
            self._mask = None
            self.graph = kg.KnowledgeGraph(launch.graph_triples)
            self.obs = engine.observe(self.state, self.game)
            self.tracker = policy.PooledGraphTracker(self.encoder, self.graph)
            self._absorb_answers()
            if memo is not None:
                policy._frozen(self.tracker.summary())  # shared by every hit
                memo.begins[launch] = (self.graph.copy(), self.tracker.copy(),
                                       self.mask(), self.obs)
        self.launch = launch
        self.episode_actions = []
        self.episode_new = 0      # globally new triples found this episode
        self.last_useful = 0      # actions up to the last gain or discovery
        self.last_gain = 0        # actions up to the last score gain
        self.needs_reset = False

    def _absorb_answers(self, movement=None):
        """Put the answers at the state in the graph; returns how many of
        the triples it added are globally new."""
        added, removed = kg.apply_answers(
            self.graph, self._answer_triples(), movement=movement)
        self.tracker.apply(added, removed)
        if added or removed:
            self._mask = None
        return self.global_edges.absorb(added)

    def key(self):
        """The (state hash, graph hash) pair: where the env is."""
        return engine.state_hash(self.state), kg.kg_hash(self.graph)

    def feats(self):
        """The state features, shared until the next begin or step: do not
        write to them."""
        if self._feats is None:
            enc = self.encoder
            self._feats = np.concatenate([
                self.tracker.summary(),
                enc.text_vector(self.obs.desc),
                enc.text_vector(self.obs.feedback),
                enc.text_vector(self.obs.inv),
                enc.text_vector(self.obs.prev_action),
            ])
        return self._feats

    def mask(self):
        """The entity mask act and greedy_action take: _mask_indices of the
        tokens the graph's triples mention, kept until the graph changes."""
        if self._mask is None:
            memo = self.memo
            if memo is None:
                self._mask = self._entity_mask()
            else:
                key = kg.kg_hash(self.graph)
                mask = memo.masks.get(key)
                if mask is None:
                    mask = memo.masks[key] = self._entity_mask()
                    policy._frozen(mask[1])
                self._mask = mask
        return self._mask

    def _entity_mask(self):
        return policy._mask_indices(self.game.entities, {
            token for t in self.graph.triples
            for token in (t.subject, t.object)})

    def _answer_triples(self):
        """kg.answer_triples of the backend's answers at the state; from the
        memo, by state hash, when there is one."""
        memo = self.memo
        if memo is None:
            return kg.answer_triples(self.backend(self.state, self.obs))
        key = engine.state_hash(self.state)
        triples = memo.answers.get(key)
        if triples is None:
            triples = memo.answers[key] = kg.answer_triples(
                self.backend(self.state, self.obs))
        return triples

    def step(self, action):
        """Returns (r_game, r_im, r_shaped, done, truncated).

        When the engine keeps the state's view the step changed nothing, so
        a pure backend would give the answers the graph already holds (the
        last step or, on an episode's first step, begin put them there):
        the backend and the graph update are skipped and r_im is 0.  A step
        with r_game and r_im both 0 gets r_shaped 0.0 without a
        kg.shaped_reward call, which returns that for every config and game
        a trainer takes.
        """
        cfg = self.config
        self._feats = None
        view = self.state.view
        memo = self.memo
        self.state, self.obs, r_game, done, movement = engine.step_movement(
            self.state, action, self.game,
            None if memo is None else memo.steps)
        if self.pure and view is not None and self.state.view is view:
            r_im = 0
        else:
            r_im = self._absorb_answers(movement)
        if r_game or r_im:
            r_shaped = kg.shaped_reward(
                r_game, self.state.score, self.game.max_score, r_im,
                alpha=cfg.alpha, eps=cfg.eps)
        else:
            r_shaped = 0.0
        self.episode_actions.append(action.text)
        # every step is one turn
        truncated = not done and len(self.episode_actions) >= cfg.horizon
        if done or truncated:
            self.needs_reset = True
        self.episode_new += r_im
        self.stagnant = 0 if r_im > 0 else self.stagnant + 1
        if r_game > 0:
            self.last_gain = len(self.episode_actions)
        if r_game > 0 or r_im > 0:
            self.last_useful = len(self.episode_actions)
        return r_game, r_im, r_shaped, done, truncated


_REPLAY_CONFIG = ExplorationConfig(alpha=0.0, horizon=10**9)


def _replay_env(game, encoder):
    """An oracle AgentEnv that never truncates and pays no intrinsic
    reward, for walking recorded actions.  It keeps no RunMemo: no walk
    begins twice from one launch, so a fresh memo per walk would miss;
    sharing the training call's step memo with the walks is an open perf
    item."""
    return AgentEnv(game, encoder, extraction.make_backend("oracle", game),
                    kg.GlobalEdgeSet(), _REPLAY_CONFIG, 0)


def _walk(game, encoder, action_texts):
    """Yield a _replay_env env begun at the game start, then after each text
    it steps (its episode_actions) until they run out or one ends it."""
    env = _replay_env(game, encoder)
    env.begin(game_start_launch(game))
    yield env
    for text in action_texts:
        done = env.step(engine.ground(game, text))[3]
        yield env
        if done:
            return


# --- state buffer ------------------------------------------------------------


def build_state_buffer(path, end, capacity):
    """The latest `capacity` launches on a loop-free path and its end state,
    as shorten_trajectory returns them, without a terminal end."""
    if not end.alive:
        path = path[:-1]
    return path[-capacity:]


# --- policy chain ------------------------------------------------------------


class ChainExecutionError(RuntimeError):
    """A chain does not fit the game, or its replay diverged from the
    recorded handoff (which indicates nondeterminism)."""


class ChainCloneError(RuntimeError):
    """A segment could not be distilled into a greedy-exact policy module."""


@dataclass
class ChainModule:
    params: policy.PolicyParams
    launch: Launch
    handoff_score: int
    actions: tuple[str, ...]   # recorded segment: one step per action


@dataclass
class PolicyChain:
    modules: list[ChainModule] = field(default_factory=list)
    j_max: int = 0


CHAIN_VERSION = 1


def save_chain(chain):
    """Versioned, byte-deterministic chain checkpoint (JSON)."""
    doc = {
        "v": CHAIN_VERSION,
        "j_max": chain.j_max,
        "modules": [
            {"params": base64.b64encode(
                 policy.save_params(m.params)).decode(),
             "snapshot": base64.b64encode(
                 engine.snapshot(m.launch.state)).decode(),
             "graph": sorted([t.subject, t.relation, t.object]
                             for t in m.launch.graph_triples),
             "launch_score": m.launch.state.score,
             "handoff_score": m.handoff_score,
             "length": len(m.actions),
             "actions": list(m.actions)}
            for m in chain.modules
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def load_chain(blob):
    """Inverse of save_chain; raises SnapshotError or another ValueError."""
    try:
        doc = json.loads(blob.decode())
    except ValueError as exc:   # UnicodeDecodeError, JSONDecodeError
        raise ValueError(f"chain checkpoint not UTF-8 JSON: {exc}") from None
    version = doc.get("v") if isinstance(doc, dict) else None
    if version != CHAIN_VERSION:
        raise ValueError(f"chain checkpoint version {version!r}")
    try:
        if type(doc["j_max"]) is not int:     # a bool is not one
            raise ValueError(f"chain j_max {doc['j_max']!r} is not an "
                             f"integer")
        modules = []
        for i, m in enumerate(doc["modules"]):
            for name in ("launch_score", "handoff_score", "length"):
                if type(m[name]) is not int:
                    raise ValueError(f"module {i} {name} {m[name]!r} is not "
                                     f"an integer")
            actions = m["actions"]
            if type(actions) is not list or any(type(a) is not str
                                                for a in actions):
                raise ValueError(f"module {i} actions {actions!r} is not a "
                                 f"list of strings")
            actions = tuple(actions)
            if m["length"] != len(actions):
                raise ValueError(f"module {i} length {m['length']!r} is not "
                                 f"its {len(actions)} actions")
            for t in m["graph"]:    # as Triple.make leaves them
                if not (isinstance(t, list) and len(t) == 3 and all(
                        isinstance(x, str) and x and normalize(x) == x
                        for x in t)):
                    raise ValueError(f"module {i} graph entry {t!r} is not "
                                     f"three non-empty normalized strings")
            state = engine.restore(base64.b64decode(m["snapshot"]))
            if m["launch_score"] != state.score:
                raise ValueError(f"module {i} launch_score is not its "
                                 f"snapshot's score {state.score}")
            modules.append(ChainModule(
                params=policy.load_params(base64.b64decode(m["params"])),
                launch=Launch(state, frozenset(
                    kg.Triple(*t) for t in m["graph"])),
                handoff_score=m["handoff_score"],
                actions=actions))
        return PolicyChain(modules=modules, j_max=doc["j_max"])
    except engine.SnapshotError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise ValueError(f"malformed chain checkpoint: {exc!r}") from None


def _interpolate_head(feats, targets, n_classes):
    """Least-squares fit of a linear head so each target is the argmax.

    With fewer samples than feature dimensions the fit is exact: the target
    logit is 10 and every other class's is -10.
    """
    F = np.asarray(feats)
    A = np.hstack([F, np.ones((len(F), 1))])
    D = np.full((len(F), n_classes), -10.0)
    D[np.arange(len(F)), targets] = 10.0
    sol, *_ = np.linalg.lstsq(A, D, rcond=None)
    return sol[:-1].T.copy(), sol[-1].copy()


def shorten_trajectory(game, actions_from_reset, encoder):
    """Remove loops: whenever the replay revisits a (state, graph) pair the
    actions in between are spliced out.  Score-equivalent by construction
    (events depend only on world state) and leaves every visited pair unique,
    which keeps the per-step features of a segment distinct.

    One pass suffices: the state hash leaves out only the turn counter, which
    no rule reads, so a revisited pair evolves exactly like its first visit.
    Actions after a terminal step are kept as they are.

    Returns (kept actions, path, end state).  path holds a Launch per pair
    on the kept path, in order, whose actions are the kept actions before it
    and whose state's turn is their number, as in a replay of the kept
    actions; the walk stops at the end state.
    """
    actions = list(actions_from_reset)
    kept, path = [], []
    seen = {}       # pair on the kept path -> len(kept) at its visit
    for env in _walk(game, encoder, actions):
        i = len(env.episode_actions)
        if i:
            kept.append(actions[i - 1])
        at = seen.setdefault(env.key(), len(kept))
        if at < len(kept):
            del kept[at:], path[at + 1:]
            while len(seen) > at + 1:   # forget the pairs of the loop
                seen.popitem()
        else:
            env.state.turn = at
            path.append(launch_at(env.state, env.graph, kept))
    return kept + actions[i:], path, env.state


def clone_segment_policy(game, encoder, config, steps):
    """Fit a policy whose greedy decode picks each recorded action from the
    features it was taken at; steps holds (feats, action) pairs."""
    params = policy.init_params(game, config.encoder, gamma=config.gamma)
    entity_index = {e: i for i, e in enumerate(params.entities)}
    template_index = {t.pattern: i for i, t in enumerate(game.templates)}
    t_feats, t_targets = [], []
    e_feats, e_targets = [], []
    for feats, action in steps:
        t_idx = template_index[action.template.pattern]
        t_feats.append(feats)
        t_targets.append(t_idx)
        prev = ""
        for position, filler in enumerate(action.fillers):
            e_feats.append(policy._entity_context(
                encoder, feats, position, params.templates[t_idx], prev))
            e_targets.append(entity_index[filler])
            prev = filler

    params.w_template, params.b_template = _interpolate_head(
        t_feats, t_targets, len(params.templates))
    if e_targets:
        params.w_entity, params.b_entity = _interpolate_head(
            e_feats, e_targets, len(params.entities))
    return params


def build_chain(game, encoder, config, actions_from_reset):
    """Cut the best trajectory at score gains and distill one module each.

    The actions must be loop-free, as shorten_trajectory leaves them.  One
    walk: every segment starts with an env begun at its launch, so its
    features are those execute_chain sees.  The chain is accepted only if
    execute_chain replays every recorded action.
    """
    env = _replay_env(game, encoder)
    env.begin(game_start_launch(game))
    chain = PolicyChain(j_max=env.state.score)
    segment = []        # (feats, action) since the launch
    for text in actions_from_reset:
        if not segment:
            launch = launch_at(env.state, env.graph)
            env.begin(launch)
        action = engine.ground(game, text)
        segment.append((env.feats(), action))
        r_game, _, _, done, _ = env.step(action)
        if r_game > 0:
            chain.modules.append(ChainModule(
                params=clone_segment_policy(game, encoder, config, segment),
                launch=launch, handoff_score=env.state.score,
                actions=tuple(a.text for _, a in segment)))
            chain.j_max = env.state.score
            segment = []
        if done:
            break

    recorded = [text for m in chain.modules for text in m.actions]
    try:
        replayed = execute_chain(chain, game, config)[0]
    except ChainExecutionError as exc:
        raise ChainCloneError(f"distilled chain does not replay: {exc}") \
            from None
    if replayed != recorded:
        raise ChainCloneError(
            f"distilled chain decodes {replayed}, recorded {recorded}")
    return chain


def execute_chain(chain, game, config=None):
    """Greedy, deterministic replay of a chain. Returns (actions, score, hash).

    Raises ChainExecutionError if a module's policy was trained on other
    templates or entities than the game's, if its arrays do not have the
    shapes the config's encoder gives, if its launch is in a room the game
    lacks, holds other objects than the game's, names an event, a flag or an
    object's place the game lacks, or is terminal, or if any
    module fails to reproduce its recorded handoff score (which would
    indicate nondeterminism).  Each module steps once per recorded action
    at most.
    """
    config = config or ExplorationConfig()
    encoder = policy.shared_encoder(config.encoder)
    env = _replay_env(game, encoder)
    blanks = {j: t.blanks for j, t in enumerate(game.templates)}
    hasher = TrajectoryHasher()
    trajectory = []
    score = engine.reset(game)[2]

    want = policy.init_params(game, config.encoder)
    events = {e.id for e in game.events}
    flags = flag_names(game.objects)
    places = {engine.INVENTORY, *(("room", r) for r in game.rooms),
              *(("in", o) for o in game.objects)}
    for i, module in enumerate(chain.modules):
        params = module.params
        if (params.templates, params.entities) != (want.templates,
                                                   want.entities):
            raise ChainExecutionError(
                f"module {i}: policy templates or entities differ from "
                f"game {game.name!r}")
        for name in want.ARRAYS:
            have, need = getattr(params, name).shape, getattr(want, name).shape
            if have != need:
                raise ChainExecutionError(f"module {i}: {name} has shape "
                                          f"{have}, the encoder needs {need}")
        state = module.launch.state
        if state.current_room not in game.rooms or \
                state.object_locations.keys() != game.objects.keys():
            raise ChainExecutionError(
                f"module {i}: launch in room {state.current_room!r} does not "
                f"fit the rooms and objects of game {game.name!r}")
        lacks = ([f"event {e!r}" for e in sorted(state.fired_events - events)]
                 + [f"flag {f!r}" for f in
                    sorted(_state_capability(state)[1] - flags)]
                 + [f"place {list(p)}" for p in
                    sorted(set(state.object_locations.values()) - places)])
        if lacks:
            raise ChainExecutionError(
                f"module {i}: launch names {', '.join(lacks)}, which game "
                f"{game.name!r} lacks")
        if not state.alive:
            raise ChainExecutionError(
                f"module {i}: launch is a terminal state")
        env.begin(module.launch)
        for _ in module.actions:
            feats = env.feats()
            t_idx, fillers = policy.greedy_action(params, feats, env.mask(),
                                                  encoder, blanks)
            action = engine.GroundedAction(
                game.templates[t_idx],
                tuple(params.entities[f] for f in fillers))
            r_game, _, _, done, _ = env.step(action)
            trajectory.append(action.text)
            hasher.record(0, action.text, r_game, env.state.score,
                          *env.key())
            if done:
                break
        if env.state.score != module.handoff_score:
            raise ChainExecutionError(
                f"module {i}: reached score {env.state.score}, recorded "
                f"handoff {module.handoff_score}")
        score = env.state.score
    return trajectory, score, hasher.hexdigest()


# --- training loops ----------------------------------------------------------


@dataclass
class TrainResult:
    j_max: int
    best_actions: tuple[str, ...]
    chain: PolicyChain | None
    log: list[LogRow]
    curve: list[tuple[int, int]]         # (step, best score so far)
    trajectory_hash: str
    steps_used: int
    gave_up: bool = False
    backtracks: int = 0
    fallbacks: int = 0


def _state_capability(state):
    inv = {o for o, loc in state.object_locations.items()
           if loc == engine.INVENTORY}
    flags = {f for f, v in state.flags.items() if v}
    return inv, flags


class _Trainer:
    """Shared machinery for the vanilla / MC / GO loops."""

    def __init__(self, game, config):
        if game.max_score <= 0:     # kg.shaped_reward divides by it
            raise ValueError(f"game {game.name!r} has max_score "
                             f"{game.max_score}; training needs a positive "
                             f"one")
        self.game = game
        self.config = config
        self.encoder = policy.shared_encoder(config.encoder)
        self.backend = extraction.make_backend(
            config.backend, game, seed=config.seed,
            p_drop=config.p_drop, p_swap=config.p_swap)
        self.global_edges = kg.GlobalEdgeSet()
        # one memo for the call, shared by every env the trainer makes
        self.memo = RunMemo() if getattr(self.backend, "pure", False) \
            else None
        self.fresh_policy()
        self.blanks = {i: t.blanks for i, t in enumerate(game.templates)}
        # (template index, filler indices) -> GroundedAction, so that an
        # action's text is computed once; every policy the trainer installs
        # has the game's entities in init_params order
        self.actions = {}
        self.rng = policy.Uniforms(np.random.default_rng(config.seed))
        self.hasher = TrajectoryHasher()
        self.log = []
        self.curve = []
        self.steps = 0
        self.fallbacks = 0

    def fresh_policy(self):
        """Install a new zero-initialized acting policy, start an empty
        rollout in place of the steps the old one gathered, and return the
        new params."""
        self.params = policy.init_params(self.game, self.config.encoder,
                                         gamma=self.config.gamma)
        self.rollout = policy.Rollout()
        return self.params

    def at_max(self, score):
        """The stop rule: stop_at_max and score is the game's maximum."""
        return self.config.stop_at_max and score >= self.game.max_score

    def make_envs(self, count):
        return [AgentEnv(self.game, self.encoder, self.backend,
                         self.global_edges, self.config, i, self.memo)
                for i in range(count)]

    def decide(self, envs):
        """The ActResult of each env in envs on its current features and
        mask, from the trainer's uniform stream: policy.act for one env
        (the name perfbench's traced pass times), one policy.act_batch call
        for several, which picks what successive act calls would.  undecide
        gives back the uniforms of the results no env acts on."""
        if len(envs) == 1:
            env = envs[0]
            return [policy.act(self.params, env.feats(), env.mask(), self.rng,
                               self.encoder, self.blanks)]
        return policy.act_batch(
            self.params, [env.feats() for env in envs],
            [env.mask() for env in envs], self.rng, self.encoder, self.blanks)

    def undecide(self, unused):
        """Move the stream back over the uniforms of unused, the last
        results of the last decide call, as if they were never drawn."""
        self.rng.rewind(sum(1 + len(r.filler_indices) for r in unused))

    def act_and_step(self, env, result):
        """Take the action of result, env's decide result, and append the
        step to the rollout.  Returns env.step's tuple and the env's key()
        after the step."""
        params = self.params
        feats = env.feats()
        mask = env.mask()
        if result.mask_fallback:
            self.fallbacks += 1
        key = (result.template_index, result.filler_indices)
        action = self.actions.get(key)
        if action is None:
            action = self.actions[key] = engine.GroundedAction(
                self.game.templates[result.template_index],
                tuple(params.entities[f] for f in result.filler_indices))
        r_game, r_im, r_shaped, done, truncated = env.step(action)
        self.steps += 1
        self.rollout.append(feats, result.template_index,
                            result.filler_indices, result.contexts, mask[1],
                            r_shaped, None if done else env.feats())
        key = env.key()
        self.hasher.record(env.index, action.text, r_game, env.state.score,
                           *key)
        return r_game, r_im, r_shaped, done, truncated, key

    def flush_update(self):
        if not self.rollout:
            return
        policy.a2c_update(self.params, self.rollout,
                          learning_rate=self.config.learning_rate,
                          entropy_coef=self.config.entropy_coef)
        self.rollout = policy.Rollout()

    def log_row(self, env, r_im, r_t, flags=""):
        self.log.append(LogRow(self.steps, env.index, env.state.score,
                               r_im, r_t, len(self.global_edges), flags))

    def result(self, j_max, best_actions, chain=None, gave_up=False,
               backtracks=0):
        return TrainResult(
            j_max=j_max, best_actions=tuple(best_actions), chain=chain,
            log=self.log, curve=self.curve,
            trajectory_hash=self.hasher.hexdigest(), steps_used=self.steps,
            gave_up=gave_up, backtracks=backtracks, fallbacks=self.fallbacks)


def _phase(trainer, envs, get_launch, budget, j_target, patience=None,
           on_improvement=None, tie_guard=None, on_step=None):
    """Step the batch round-robin until the budget or an improvement.

    Returns (improving env or None, steps used).  An improvement is an
    episode whose final score strictly exceeds j_target, or one that matches
    it with globally new triples and tie_guard(env.state) (None refuses
    ties); the env that played it comes back unstepped, its launch,
    state, episode_actions, last_useful and last_gain those of the episode.
    When on_improvement is None the phase returns at the first improvement,
    otherwise on_improvement(env) consumes it, the episode's final score
    becomes the target, and the phase returns once trainer.at_max(target).
    Every finished episode logs one row.  get_launch is called whenever an
    instance starts an episode, so the caller may move the launch point
    mid-phase.  on_step(env, key) sees every step, an episode's last
    included, with the env's key() after it, before the episode is judged;
    when it returns True the phase returns ("splice", used).  With a
    patience the phase also returns (None, used) at the end of a sweep in
    which at least STUCK_FRACTION of the envs have gone patience steps
    without a globally new triple (AgentEnv.stagnant).

    Actions are decided for a run of envs at once (trainer.decide): at a
    sweep's start, and again at each env that begins an episode, for it and
    the envs after it in the sweep that need no reset, whose features stay
    as they are until their turn.  Each env still acts on its own features
    at its turn, with the draws of per-env acting: when the budget ends,
    the phase returns, or an improvement may have installed new params
    before the run is used up, trainer.undecide drops the rest of the run.
    """
    used = 0
    decided = []        # ActResults of the run's envs yet to act, last first
    for env in envs:
        env.needs_reset = True
    try:
        while used < budget:
            for i, env in enumerate(envs):
                if used >= budget:
                    break
                if not decided:
                    if env.needs_reset:
                        env.begin(get_launch())
                    decided = trainer.decide([env, *itertools.takewhile(
                        lambda e: not e.needs_reset, envs[i + 1:])])[::-1]
                _, r_im, r_t, done, truncated, key = trainer.act_and_step(
                    env, decided.pop())
                used += 1
                if on_step is not None and on_step(env, key):
                    return "splice", used
                if done or truncated:
                    final = env.state.score
                    improved = final > j_target or (
                        tie_guard is not None and final >= j_target
                        and env.episode_new > 0 and tie_guard(env.state))
                    trainer.log_row(env, r_im, r_t,
                                    "highscore" if improved else "")
                    if improved:
                        if on_improvement is None:
                            return env, used
                        on_improvement(env)
                        trainer.undecide(decided)
                        decided = []
                        j_target = final
                        if trainer.at_max(j_target):
                            return env, used
                if used % (ROLLOUT * len(envs)) == 0:
                    trainer.flush_update()
            if patience is not None:
                stuck = sum(env.stagnant >= patience for env in envs)
                if stuck / len(envs) >= STUCK_FRACTION:
                    return None, used
        return None, used
    finally:
        trainer.undecide(decided)


def backtrack(trainer, buffer_entries, j_target, per_snapshot_budget,
              max_total, tie_guard, make_splice):
    """Search backwards through the best-trajectory buffer for a better
    policy.  A fresh policy is trained from every entry, latest first,
    for at most per_snapshot_budget steps and max_total steps in all.

    Trains in trainer.params.  Returns (entry, params, improvement, steps
    used), where improvement is the improving env of _phase or "splice";
    on exhaustion the first three are None and trainer.params is put back
    as it was.
    """
    main = trainer.params
    total = 0
    for entry in reversed(buffer_entries):
        if total >= max_total:
            break
        fresh = trainer.fresh_policy()
        envs = trainer.make_envs(trainer.config.batch_size)
        improvement, used = _phase(
            trainer, envs, lambda: entry,
            min(per_snapshot_budget, max_total - total), j_target,
            tie_guard=tie_guard, on_step=make_splice(entry))
        total += used
        trainer.rollout = policy.Rollout()
        if improvement is not None:
            return entry, fresh, improvement, total
    trainer.params = main
    return None, None, None, total


def mc_train(game, config):
    """Structured exploration with stagnation-triggered backtracking and
    modular policy chaining.  With patience disabled and alpha = 0 this is
    step-for-step the vanilla baseline."""
    trainer = _Trainer(game, config)
    cfg = config
    envs = trainer.make_envs(cfg.batch_size)
    start = game_start_launch(game)
    j_max = start.state.score
    best_actions = []
    backtracks = 0
    gave_up = False
    # steps per backtrack entry: a batch of full episodes, or 2% of
    # the run's budget when that is larger
    n_backtrack = max(cfg.horizon * cfg.batch_size, cfg.total_steps // 50)
    buffer_entries = [start]    # episodes launch from the last entry

    frontier = _state_capability(start.state)

    def tie_guard(state):
        """Ties must keep every carried item and every set flag, so a
        discovery made while e.g. dropping the lamp cannot poison the
        launch frontier."""
        inv, flags = _state_capability(state)
        return inv >= frontier[0] and flags >= frontier[1]

    def adopt(walk, score):
        """Install a new best trajectory, whose score is at least j_max.

        walk is shorten_trajectory's, whose path and end state give the
        buffer and the frontier.  With intrinsic motivation the buffer is
        rebuilt, so new episodes start from the latest alive state on it
        (the end state can be terminal when a gain and a death coincide);
        an alpha = 0 run launches from the game start until its first
        stagnation, when it gives up without reading the buffer.
        """
        nonlocal j_max, best_actions, buffer_entries, frontier
        best_actions, path, end = walk
        j_max = score
        for env in envs:
            env.stagnant = 0
        if cfg.alpha > 0:
            buffer_entries = build_state_buffer(path, end, cfg.buffer_size)
            frontier = _state_capability(end)
            # modular chaining: a fresh policy takes over at the new frontier
            trainer.fresh_policy()
        trainer.curve.append((trainer.steps, j_max))

    def graft(entry, env):
        """Adopt the episode env played from entry after entry's actions."""
        adopt(shorten_trajectory(
            game, entry.actions + tuple(env.episode_actions[:env.last_useful]),
            trainer.encoder), env.state.score)

    def make_splice(entry):
        """Detour splicing for a backtrack entry.

        When an episode launched from the entry returns to the entry's room
        with more score than the entry, or strictly more items or flags,
        graft the detour into the best trajectory (prefix + detour + old
        suffix) and adopt it if the end of its loop-removal walk has a
        higher score, or an equal score with strictly more items or flags.
        This is how missed latent dependencies (the egg, the lamp) get
        inserted without ever beating the raw high score directly from an
        old entry.
        """
        suffix = tuple(best_actions[len(entry.actions):])
        entry_room = entry.state.current_room
        entry_inv, entry_flags = _state_capability(entry.state)
        tried = set()

        def try_splice(env, key):
            # a dead state ends its episode, so it needs a reset
            if env.needs_reset or env.state.current_room != entry_room:
                return False
            inv, flags = _state_capability(env.state)
            gained = (env.state.score > entry.state.score or inv > entry_inv
                      or flags > entry_flags)
            if not gained:
                return False
            if key[0] in tried:     # the state hash
                return False
            tried.add(key[0])
            walk = shorten_trajectory(
                game, entry.actions + tuple(env.episode_actions) + suffix,
                trainer.encoder)
            end = walk[2]
            if end.score < j_max or end.score == j_max and (
                    not tie_guard(end) or _state_capability(end) == frontier):
                return False
            adopt(walk, end.score)
            return True

        return try_splice

    while trainer.steps < cfg.total_steps and not trainer.at_max(j_max):
        stopped, _ = _phase(trainer, envs, lambda: buffer_entries[-1],
                            cfg.total_steps - trainer.steps, j_max,
                            patience=cfg.patience,
                            on_improvement=lambda env: graft(
                                buffer_entries[-1], env),
                            tie_guard=tie_guard if cfg.alpha > 0 else None)
        # the phase returns an improvement only when the stop rule holds
        if stopped is not None or trainer.steps >= cfg.total_steps:
            break
        # stagnation: search backwards along the best trajectory.  The
        # backtrack modules mark progress through graph novelty, so the
        # machinery needs the intrinsic signal; without it the agent has
        # no way to rank candidate episodes and gives up instead.
        if cfg.alpha == 0:
            gave_up = True
            break
        advanced = False
        while trainer.steps < cfg.total_steps:
            j_before = j_max
            entry, _, improvement, _ = backtrack(
                trainer, buffer_entries, j_max, n_backtrack,
                max_total=cfg.total_steps - trainer.steps,
                tie_guard=tie_guard, make_splice=make_splice)
            if improvement is None:
                break
            backtracks += 1
            advanced = True
            if improvement == "splice":
                # the splice callback already adopted the grafted
                # trajectory.  A tie graft moves the frontier without
                # raising the score, and the policy has just proven it is
                # stuck at this score, so keep backtracking over the
                # refreshed buffer instead of waiting out another
                # stagnation cycle in the main phase.
                if j_max > j_before:
                    break
                continue
            graft(entry, improvement)
            break
        if not advanced:
            gave_up = True      # exhausted every entry; give up
            break

    trainer.flush_update()
    chain = build_chain(game, trainer.encoder, cfg, best_actions)
    return trainer.result(j_max, best_actions, chain, gave_up, backtracks)


def _keep_best_episode(trainer, envs, get_launch, j_max, on_step=None):
    """Train in one phase over the whole budget; returns the TrainResult.
    The best trajectory is the actions that reach the improving episode's
    launch and the episode's own up to its last score gain."""
    best_actions = ()

    def on_improvement(env):
        nonlocal j_max, best_actions
        j_max = env.state.score
        best_actions = env.launch.actions + tuple(
            env.episode_actions[:env.last_gain])
        trainer.curve.append((trainer.steps, j_max))

    if not trainer.at_max(j_max):
        _phase(trainer, envs, get_launch, trainer.config.total_steps, j_max,
               on_improvement=on_improvement, on_step=on_step)
    trainer.flush_update()
    return trainer.result(j_max, best_actions)


def vanilla_train(game, config):
    """Plain batched A2C: no stagnation check, no buffers, no chaining.
    Every episode begins at the game start."""
    trainer = _Trainer(game, config)
    start = game_start_launch(game)
    return _keep_best_episode(trainer, trainer.make_envs(config.batch_size),
                              lambda: start, start.state.score)


# --- Go-Explore --------------------------------------------------------------


class CellArchive:
    """Map from (state digest, graph digest) to its cell, the first launch
    inserted under that key, and to the episodes begun there (visits).

    Beside the cells it keeps their keys and weights (score + 1) in
    insertion order, appended at insert, so that sample draws without
    rebuilding them.  insert checks what Generator.choice would check of
    the probabilities: every weight is finite and at least 1."""

    def __init__(self):
        self.cells = {}           # key -> Launch, insertion-ordered
        self.visits = Counter()   # key -> episodes begun at its cell
        self._keys = []
        self._weights = np.empty(64)

    def insert(self, key, cell):
        known = self.cells.get(key)
        if known is not None:
            return known
        weight = cell.state.score + 1.0
        if not 1.0 <= weight < math.inf:
            raise ValueError(f"cell {key!r} has score {cell.state.score!r}; "
                             f"a cell's score must be finite and "
                             f"non-negative")
        n = len(self._keys)
        if n == len(self._weights):     # room for n more
            self._weights = np.concatenate([self._weights, np.empty(n)])
        self._weights[n] = weight
        self._keys.append(key)
        self.cells[key] = cell
        return cell

    def sample(self, rng):
        """Score-weighted choice, weight = score + 1, counted as a visit: the
        pick, and the draw from rng, of rng.choice(n, p=w / w.sum()), the
        same steps without its checks of p."""
        keys = self._keys
        if not keys:
            raise ValueError("cannot sample an empty archive")
        w = self._weights[:len(keys)]
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        key = keys[int(cdf.searchsorted(rng.random(), side="right"))]
        self.visits[key] += 1
        return self.cells[key]

    def __len__(self):
        return len(self.cells)

    def __contains__(self, key):
        return key in self.cells


def go_train(game, config):
    """Go-Explore phase 1 with a concurrently trained policy.

    Cells are keyed by (world-state digest, knowledge-graph digest).  The
    batch_size explorers step through _phase: each episode begins at a cell
    sampled with probability proportional to score + 1 and lasts horizon
    steps at most, and every alive state it reaches that the archive lacks
    becomes a cell, reached by its cell's actions and the episode's.
    Returns (TrainResult, archive).
    """
    trainer = _Trainer(game, config)
    rng_cells = np.random.default_rng(config.seed + 0x9E3779B9)
    archive = CellArchive()
    envs = trainer.make_envs(config.batch_size)
    start = game_start_launch(game)
    envs[0].begin(start)
    archive.insert(envs[0].key(), start)

    def explore(env, key):
        # the key holds the score, so a known key's cell stays as is
        if env.state.alive and key not in archive:
            archive.insert(key, launch_at(
                env.state, env.graph,
                env.launch.actions + tuple(env.episode_actions)))

    return _keep_best_episode(trainer, envs, lambda: archive.sample(rng_cells),
                              start.state.score, explore), archive
