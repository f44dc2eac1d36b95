"""Structured exploration: stagnation detection, backtracking, policy
chaining, the vanilla A2C baseline, and the Go-Explore-style cell archive.

Training runs a synchronous batch of independent environment instances that
share policy parameters and a run-level global edge set.  Bookkeeping
(buffers, monitor, chain, archive) happens between steps by the coordinator;
action sampling draws from a dedicated RNG stream so that deterministic
bookkeeping never perturbs trajectories.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import engine, extraction, kg, policy


@dataclass(frozen=True)
class ExplorationConfig:
    seed: int = 0
    total_steps: int = 100_000       # summed over the instance batch
    batch_size: int = 16
    horizon: int = 50                # per-episode turn limit
    rollout: int = 8                 # outer iterations between A2C updates
    patience: int | None = 3000      # per-instance stagnant steps; None = off
    patience_batch_factor: float = 0.75
    buffer_size: int = 40
    backtrack_steps: int | None = None   # per-snapshot budget; None = M // 10
    alpha: float = 1.0
    eps: float = 1.0
    gamma: float = 0.9
    learning_rate: float = 0.05
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    backend: str = "oracle"
    p_drop: float = 0.1
    p_swap: float = 0.05
    score_term_mode: str = "cumulative"
    cell_step: int = 32
    stop_at_max: bool = True
    encoder: policy.EncoderConfig = field(default_factory=policy.EncoderConfig)


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
    def __init__(self):
        self._h = hashlib.blake2b(digest_size=16)

    def record(self, instance, action_text, reward, score, shash, kghash):
        self._h.update(
            f"{instance}|{action_text}|{reward}|{score}|{shash}|{kghash}\n"
            .encode())

    def hexdigest(self):
        return self._h.hexdigest()


# --- per-instance environment wrapper ---------------------------------------


@dataclass(frozen=True)
class Launch:
    """Episode start point: engine snapshot plus the agent's graph there."""
    snapshot: bytes
    graph_triples: frozenset
    score: int

    def make_graph(self):
        return kg.KnowledgeGraph(self.graph_triples)


def game_start_launch(game):
    state, _, initial = engine.reset(game)
    return Launch(engine.snapshot(state), frozenset(), initial)


class AgentEnv:
    """One environment instance with its knowledge graph and feature cache."""

    def __init__(self, game, encoder, backend, global_edges, config, index):
        self.game = game
        self.encoder = encoder
        self.backend = backend
        self.global_edges = global_edges
        self.config = config
        self.index = index
        self.state = None
        self.graph = None
        self.obs = None
        self.tracker = None
        self.entity_refs = None
        self.episode_actions = None
        self.needs_reset = True
        self.done = False
        self._start_turn = 0
        self.next_feats = None    # feats() of the current state, if known

    def begin(self, launch):
        self.next_feats = None
        self.state = engine.restore(launch.snapshot)
        if not self.state.alive:
            raise ValueError("cannot launch an episode from a terminal state")
        self.graph = launch.make_graph()
        self.obs = engine.observe(self.state, self.game)
        self.tracker = policy.PooledGraphTracker(self.encoder, self.graph)
        self.entity_refs = {}
        for t in self.graph.triples:
            self._ref(t.subject, +1)
            self._ref(t.object, +1)
        answers = self.backend(self.state, self.obs)
        added, removed = kg.apply_answers(self.graph, answers)
        self._absorb_diff(added, removed)
        self.global_edges.absorb(added)
        self.episode_actions = []
        self.episode_new = 0      # globally new triples found this episode
        self.last_useful = 0      # actions up to the last gain or discovery
        self.needs_reset = False
        self.done = False
        self._start_turn = self.state.turn

    def _ref(self, token, delta):
        count = self.entity_refs.get(token, 0) + delta
        if count <= 0:
            self.entity_refs.pop(token, None)
        else:
            self.entity_refs[token] = count

    def _absorb_diff(self, added, removed):
        self.tracker.apply(added, removed)
        for t in added:
            self._ref(t.subject, +1)
            self._ref(t.object, +1)
        for t in removed:
            self._ref(t.subject, -1)
            self._ref(t.object, -1)

    def feats(self):
        enc = self.encoder
        return np.concatenate([
            self.tracker.summary(),
            enc.text_vector(self.obs.desc),
            enc.text_vector(self.obs.feedback),
            enc.text_vector(self.obs.inv),
            enc.text_vector(self.obs.prev_action),
        ])

    def mask(self):
        return self.entity_refs

    def step(self, action):
        """Returns (r_game, r_im, r_shaped, done, truncated)."""
        cfg = self.config
        self.next_feats = None
        self.state, self.obs, r_game, done, movement = engine.step_movement(
            self.state, action, self.game)
        answers = self.backend(self.state, self.obs)
        added, removed = kg.apply_answers(self.graph, answers,
                                          prev_action=action.text,
                                          movement=movement)
        self._absorb_diff(added, removed)
        r_im = self.global_edges.absorb(added)
        r_shaped = kg.shaped_reward(
            r_game, self.state.score, self.game.max_score, r_im,
            alpha=cfg.alpha, eps=cfg.eps, score_term_mode=cfg.score_term_mode)
        truncated = False
        if not done and self.state.turn - self._start_turn >= cfg.horizon:
            self.done = True
            self.needs_reset = True
            truncated = True
        if done:
            self.done = True
            self.needs_reset = True
        self.episode_actions.append(action.text)
        self.episode_new += r_im
        if r_game > 0 or r_im > 0:
            self.last_useful = len(self.episode_actions)
        return r_game, r_im, r_shaped, done, truncated


# --- monitor -----------------------------------------------------------------


@dataclass
class BottleneckMonitor:
    patience: int | None
    patience_batch_factor: float
    batch_size: int
    j_max: float = 0.0
    p: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.p:
            self.p = [0] * self.batch_size

    def step(self, instance):
        self.p[instance] += 1

    def reset_instance(self, instance):
        self.p[instance] = 0

    def new_highscore(self, value):
        self.j_max = value
        self.p = [0] * self.batch_size


def detect_stagnation(monitor):
    """True when enough of the batch has been stagnant for `patience` steps."""
    if monitor.patience is None:
        return False
    stuck = sum(1 for v in monitor.p if v >= monitor.patience)
    return stuck / len(monitor.p) >= monitor.patience_batch_factor


# --- state buffer ------------------------------------------------------------


@dataclass(frozen=True)
class BufferEntry:
    snapshot: bytes
    graph_triples: frozenset
    score: int
    prefix_len: int     # actions from game reset to this state

    def as_launch(self):
        return Launch(self.snapshot, self.graph_triples, self.score)


def build_state_buffer(game, backend, actions_from_reset, capacity):
    """Distinct (state, graph) pairs along a replayed trajectory.

    Replays deterministically from reset, deduplicates on
    (state hash, graph hash), skips terminal states, and keeps the most
    recent `capacity` entries.
    """
    state, obs, _ = engine.reset(game)
    graph = kg.KnowledgeGraph()
    added, _ = kg.apply_answers(graph, backend(state, obs))
    entries = []
    seen = set()

    def push(prefix_len):
        if not state.alive:
            return
        key = (engine.state_hash(state), kg.kg_hash(graph))
        if key in seen:
            return
        seen.add(key)
        entries.append(BufferEntry(engine.snapshot(state),
                                   frozenset(graph.triples),
                                   state.score, prefix_len))

    push(0)
    for i, text in enumerate(actions_from_reset):
        action = engine.ground(game, text)
        state, obs, _, done, movement = engine.step_movement(
            state, action, game)
        kg.apply_answers(graph, backend(state, obs),
                         prev_action=text, movement=movement)
        push(i + 1)
        if done:
            break
    return entries[-capacity:]


# --- policy chain ------------------------------------------------------------


class ChainExecutionError(RuntimeError):
    """Replay diverged from the recorded handoff; indicates nondeterminism."""


class ChainCloneError(RuntimeError):
    """A segment could not be distilled into a greedy-exact policy module."""


@dataclass
class ChainModule:
    params: policy.PolicyParams
    launch: Launch
    handoff_score: int
    length: int
    actions: tuple[str, ...]   # recorded segment, kept for the manifest


@dataclass
class PolicyChain:
    modules: list[ChainModule] = field(default_factory=list)
    j_max: int = 0

    def manifest(self):
        return {
            "j_max": self.j_max,
            "modules": [
                {"index": i,
                 "launch_score": m.launch.score,
                 "handoff_score": m.handoff_score,
                 "length": m.length,
                 "actions": list(m.actions)}
                for i, m in enumerate(self.modules)
            ],
        }


CHAIN_VERSION = 1


def save_chain(chain):
    """Versioned, byte-deterministic chain checkpoint (JSON)."""
    doc = {
        "v": CHAIN_VERSION,
        "j_max": chain.j_max,
        "modules": [
            {"params": base64.b64encode(
                 policy.save_params(m.params)).decode(),
             "snapshot": base64.b64encode(m.launch.snapshot).decode(),
             "graph": sorted([t.subject, t.relation, t.object]
                             for t in m.launch.graph_triples),
             "launch_score": m.launch.score,
             "handoff_score": m.handoff_score,
             "length": m.length,
             "actions": list(m.actions)}
            for m in chain.modules
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def load_chain(blob):
    doc = json.loads(blob.decode())
    if doc.get("v") != CHAIN_VERSION:
        raise ValueError(f"chain checkpoint version {doc.get('v')!r}")
    modules = [
        ChainModule(
            params=policy.load_params(base64.b64decode(m["params"])),
            launch=Launch(base64.b64decode(m["snapshot"]),
                          frozenset(kg.Triple(*t) for t in m["graph"]),
                          m["launch_score"]),
            handoff_score=m["handoff_score"],
            length=m["length"],
            actions=tuple(m["actions"]))
        for m in doc["modules"]
    ]
    return PolicyChain(modules=modules, j_max=doc["j_max"])


def _interpolate_head(feats, targets, n_classes, margin=10.0):
    """Least-squares fit of a linear head so each target is the argmax.

    With fewer samples than feature dimensions the fit is exact and the
    target logit beats every other class by 2 * margin.
    """
    F = np.asarray(feats)
    A = np.hstack([F, np.ones((len(F), 1))])
    D = np.full((len(F), n_classes), -margin)
    D[np.arange(len(F)), targets] = margin
    sol, *_ = np.linalg.lstsq(A, D, rcond=None)
    return sol[:-1].T.copy(), sol[-1].copy()


def shorten_trajectory(game, actions_from_reset):
    """Remove loops: whenever the replay revisits a (state, graph) pair the
    actions in between are spliced out.  Score-equivalent by construction
    (events depend only on world state) and leaves every visited pair unique,
    which keeps the per-step features of a segment distinct."""
    backend = extraction.make_backend("oracle", game)
    actions = list(actions_from_reset)
    changed = True
    while changed:
        changed = False
        state, obs, _ = engine.reset(game)
        graph = kg.KnowledgeGraph()
        kg.apply_answers(graph, backend(state, obs))
        seen = {(engine.state_hash(state), kg.kg_hash(graph)): 0}
        for i, text in enumerate(actions):
            state, obs, _, done, movement = engine.step_movement(
                state, engine.ground(game, text), game)
            kg.apply_answers(graph, backend(state, obs), prev_action=text,
                             movement=movement)
            key = (engine.state_hash(state), kg.kg_hash(graph))
            if key in seen:
                del actions[seen[key]:i + 1]
                changed = True
                break
            seen[key] = i + 1
            if done:
                break
    return actions


def clone_segment_policy(game, encoder, config, launch, action_texts):
    """Distill an action sequence into a policy whose greedy decode replays
    it exactly from the launch state (oracle extraction backend)."""
    backend = extraction.make_backend("oracle", game)
    params = policy.init_params(game, config.encoder, gamma=config.gamma)
    blanks = {i: t.blanks for i, t in enumerate(game.templates)}
    entity_index = {e: i for i, e in enumerate(params.entities)}
    template_index = {t.pattern: i for i, t in enumerate(game.templates)}

    targets = []
    for text in action_texts:
        action = engine.ground(game, text)
        targets.append((template_index[action.template.pattern],
                        tuple(entity_index[f] for f in action.fillers),
                        action))

    replay_cfg = replace(config, alpha=0.0, horizon=10**9)
    shared = kg.GlobalEdgeSet()
    env = AgentEnv(game, encoder, backend, shared, replay_cfg, 0)
    env.begin(launch)
    t_feats, t_targets = [], []
    e_feats, e_targets = [], []
    for t_idx, fillers, action in targets:
        feats = env.feats()
        t_feats.append(feats)
        t_targets.append(t_idx)
        prev = ""
        for position, e_idx in enumerate(fillers):
            e_feats.append(policy._entity_context(
                encoder, feats, position, params.templates[t_idx], prev))
            e_targets.append(e_idx)
            prev = params.entities[e_idx]
        env.step(action)

    params.w_template, params.b_template = _interpolate_head(
        t_feats, t_targets, len(params.templates))
    if e_targets:
        params.w_entity, params.b_entity = _interpolate_head(
            e_feats, e_targets, len(params.entities))

    # verify: greedy decode must reproduce every recorded action
    env = AgentEnv(game, encoder, backend, shared, replay_cfg, 0)
    env.begin(launch)
    for t_idx, fillers, action in targets:
        got = policy.greedy_action(params, env.feats(), env.mask(), encoder,
                                   blanks)
        if got != (t_idx, fillers):
            raise ChainCloneError(
                f"segment of length {len(action_texts)} not separable: "
                f"wanted {(t_idx, fillers)}, decoded {got}")
        env.step(action)
    return params


def build_chain(game, encoder, config, actions_from_reset):
    """Cut the best trajectory at score gains and distill one module each."""
    oracle = extraction.make_backend("oracle", game)
    actions_from_reset = shorten_trajectory(game, actions_from_reset)
    state, obs, initial = engine.reset(game)
    graph = kg.KnowledgeGraph()
    kg.apply_answers(graph, oracle(state, obs))
    launch = Launch(engine.snapshot(state), frozenset(graph.triples), initial)
    chain = PolicyChain(j_max=initial)

    segment = []
    for text in actions_from_reset:
        action = engine.ground(game, text)
        before = state.score
        state, obs, _, done, movement = engine.step_movement(
            state, action, game)
        kg.apply_answers(graph, oracle(state, obs),
                         prev_action=text, movement=movement)
        segment.append(text)
        if state.score > before:
            params = clone_segment_policy(game, encoder, config, launch,
                                          segment)
            chain.modules.append(ChainModule(
                params=params, launch=launch, handoff_score=state.score,
                length=len(segment), actions=tuple(segment)))
            launch = Launch(engine.snapshot(state), frozenset(graph.triples),
                            state.score)
            segment = []
            chain.j_max = state.score
        if done:
            break
    return chain


def execute_chain(chain, game, config=None):
    """Greedy, deterministic replay of a chain. Returns (actions, score, hash).

    Raises ChainExecutionError if any module fails to reproduce its recorded
    handoff score (which would indicate nondeterminism).
    """
    config = config or ExplorationConfig()
    encoder = policy.StateEncoder(config.encoder)
    backend = extraction.make_backend("oracle", game)
    blanks = {j: t.blanks for j, t in enumerate(game.templates)}
    hasher = TrajectoryHasher()
    state, obs, initial = engine.reset(game)
    trajectory = []
    score = initial
    shared = kg.GlobalEdgeSet()
    replay_cfg = replace(config, alpha=0.0, horizon=10**9)

    for i, module in enumerate(chain.modules):
        env = AgentEnv(game, encoder, backend, shared, replay_cfg, 0)
        env.begin(module.launch)
        if engine.state_hash(env.state) != engine.state_hash(
                engine.restore(module.launch.snapshot)):
            raise ChainExecutionError(f"module {i}: bad launch snapshot")
        for _ in range(module.length):
            feats = env.feats()
            t_idx, fillers = policy.greedy_action(module.params, feats,
                                                  env.mask(), encoder, blanks)
            action = engine.GroundedAction(
                game.templates[t_idx],
                tuple(module.params.entities[f] for f in fillers))
            r_game, _, _, done, _ = env.step(action)
            trajectory.append(action.text)
            hasher.record(0, action.text, r_game, env.state.score,
                          engine.state_hash(env.state), kg.kg_hash(env.graph))
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


def _replay_outcome(game, action_texts):
    """(score, inventory, flags) after an engine-only replay from reset."""
    state, _, _ = engine.reset(game)
    for text in action_texts:
        state, _, _, done, _ = engine.step_movement(
            state, engine.ground(game, text), game)
        if done:
            break
    inv, flags = _state_capability(state)
    return state.score, inv, flags


def _capability(game, launch, action_texts):
    """(inventory set, true-flag set) at the end of a replayed segment."""
    state = engine.restore(launch.snapshot)
    for text in action_texts:
        state, _, _, done, _ = engine.step_movement(
            state, engine.ground(game, text), game)
        if done:
            break
    return _state_capability(state)


def _truncate_at_peak(game, launch, action_texts):
    """Drop the trailing actions after the last score gain."""
    state = engine.restore(launch.snapshot)
    last_gain = 0
    for i, text in enumerate(action_texts):
        before = state.score
        state, _, _, done, _ = engine.step_movement(
            state, engine.ground(game, text), game)
        if state.score > before:
            last_gain = i + 1
        if done:
            break
    return list(action_texts[:last_gain]), state.score if last_gain else \
        launch.score


class _Trainer:
    """Shared machinery for the vanilla / MC / GO loops."""

    def __init__(self, game, config):
        self.game = game
        self.config = config
        self.encoder = policy.StateEncoder(config.encoder)
        self.backend = extraction.make_backend(
            config.backend, game, seed=config.seed,
            p_drop=config.p_drop, p_swap=config.p_swap)
        self.oracle = extraction.make_backend("oracle", game)
        self.global_edges = kg.GlobalEdgeSet()
        self.params = policy.init_params(game, config.encoder,
                                         gamma=config.gamma)
        self.blanks = {i: t.blanks for i, t in enumerate(game.templates)}
        self.entity_index = {e: i for i, e in enumerate(self.params.entities)}
        self.rng = np.random.default_rng(config.seed)
        self.hasher = TrajectoryHasher()
        self.log = []
        self.curve = []
        self.steps = 0
        self.fallbacks = 0
        self.transitions = []
        self.pending = {}     # instance index -> incomplete Transition

    def make_envs(self, count):
        return [AgentEnv(self.game, self.encoder, self.backend,
                         self.global_edges, self.config, i)
                for i in range(count)]

    def act_and_step(self, env, params=None):
        params = params or self.params
        feats = env.next_feats
        if feats is None:
            feats = env.feats()
        result = policy.act(params, feats, env.mask(), self.rng, self.encoder,
                            self.blanks)
        if result.mask_fallback:
            self.fallbacks += 1
        action = engine.GroundedAction(
            self.game.templates[result.template_index],
            tuple(params.entities[f] for f in result.filler_indices))
        r_game, r_im, r_shaped, done, truncated = env.step(action)
        self.steps += 1
        if not done:
            env.next_feats = env.feats()
        transition = policy.Transition(
            feats=feats,
            template_index=result.template_index,
            filler_indices=result.filler_indices,
            mask_idx=result.mask_idx,
            template_pattern=params.templates[result.template_index],
            reward=r_shaped,
            next_feats=env.next_feats,
        )
        self.transitions.append(transition)
        self.hasher.record(env.index, action.text, r_game, env.state.score,
                           engine.state_hash(env.state),
                           kg.kg_hash(env.graph))
        return action, r_game, r_im, r_shaped, done, truncated

    def flush_update(self, params=None):
        if not self.transitions:
            return
        policy.a2c_update(params or self.params, self.transitions,
                          self.encoder,
                          learning_rate=self.config.learning_rate,
                          value_coef=self.config.value_coef,
                          entropy_coef=self.config.entropy_coef)
        self.transitions = []

    def log_row(self, env, r_im, r_t, flags=""):
        self.log.append(LogRow(self.steps, env.index, env.state.score,
                               r_im, r_t, len(self.global_edges), flags))


def _phase(trainer, envs, get_launch, budget, j_target, params=None,
           monitor=None, on_improvement=None, stop_score=None,
           accept_ties=False, tie_guard=None, splice=None):
    """Run synchronous batch training until the budget or an improvement.

    Returns (best_improvement or None, steps used).  An improvement is an
    episode whose final score strictly exceeds j_target, or (with
    accept_ties) one that matches it while discovering globally new triples;
    its payload is (score, action_texts, last_useful_index).  When
    on_improvement is None the phase returns at the first improvement,
    otherwise the callback consumes it and returns the new target.
    get_launch is called whenever an instance starts an episode, so the
    caller may move the launch point mid-phase.
    """
    cfg = trainer.config
    used = 0
    for env in envs:
        env.needs_reset = True
    while used < budget:
        for env in envs:
            if used >= budget:
                break
            if env.needs_reset:
                env.begin(get_launch())
            _, r_game, r_im, r_t, done, truncated = trainer.act_and_step(
                env, params)
            used += 1
            if monitor is not None:
                monitor.step(env.index)
                if r_im > 0:
                    monitor.reset_instance(env.index)
            if splice is not None and not env.needs_reset:
                new_target = splice(env)
                if new_target is not None:
                    return ("splice", new_target), used
            if done or truncated:
                final = env.state.score
                improved = final > j_target or (
                    accept_ties and final >= j_target and env.episode_new > 0
                    and (tie_guard is None or tie_guard(env)))
                if improved:
                    improvement = (final, list(env.episode_actions),
                                   env.last_useful)
                    trainer.log_row(env, r_im, r_t, "highscore")
                    if on_improvement is None:
                        return improvement, used
                    j_target = on_improvement(improvement)
                    if stop_score is not None and j_target >= stop_score:
                        return improvement, used
                else:
                    trainer.log_row(env, r_im, r_t, "")
            if used % (cfg.rollout * len(envs)) == 0:
                trainer.flush_update(params)
        if monitor is not None and detect_stagnation(monitor):
            return None, used
    return None, used


def backtrack(trainer, buffer_entries, j_target, per_snapshot_budget,
              max_total=None, accept_ties=False, tie_guard=None,
              make_splice=None):
    """Search backwards through the best-trajectory buffer for a better
    policy.  A fresh policy is trained from every snapshot, latest first.

    Returns (entry, params, improvement) on success, None on exhaustion.
    """
    total = 0
    for entry in reversed(buffer_entries):
        if max_total is not None and total >= max_total:
            break
        fresh = policy.init_params(trainer.game, trainer.config.encoder,
                                   gamma=trainer.config.gamma)
        envs = trainer.make_envs(trainer.config.batch_size)
        trainer.transitions = []
        budget = per_snapshot_budget
        if max_total is not None:
            budget = min(budget, max_total - total)
        launch = entry.as_launch()
        improvement, used = _phase(trainer, envs, lambda: launch, budget,
                                   j_target, params=fresh,
                                   accept_ties=accept_ties,
                                   tie_guard=tie_guard,
                                   splice=make_splice(entry)
                                   if make_splice else None)
        total += used
        trainer.transitions = []
        if improvement is not None:
            return entry, fresh, improvement, total
    return None, None, None, total


def mc_train(game, config):
    """Structured exploration with stagnation-triggered backtracking and
    modular policy chaining.  With patience disabled and alpha = 0 this is
    step-for-step the vanilla baseline."""
    trainer = _Trainer(game, config)
    cfg = config
    envs = trainer.make_envs(cfg.batch_size)
    start = game_start_launch(game)
    launch = start
    prefix = []                    # actions from reset to launch
    j_max = start.score
    best_actions = []
    monitor = BottleneckMonitor(cfg.patience, cfg.patience_batch_factor,
                                cfg.batch_size, j_max=j_max)
    backtracks = 0
    gave_up = False
    chain = None
    n_backtrack = cfg.backtrack_steps or max(
        cfg.horizon * cfg.batch_size, cfg.total_steps // 50)
    buffer_entries = [BufferEntry(start.snapshot, start.graph_triples,
                                  start.score, 0)]

    frontier_inv, frontier_flags = _capability(game, start, [])

    def tie_guard(env):
        """Ties must keep every carried item and every set flag, so a
        discovery made while e.g. dropping the lamp cannot poison the
        launch frontier."""
        inv = {o for o, loc in env.state.object_locations.items()
               if loc == engine.INVENTORY}
        flags = {f for f, v in env.state.flags.items() if v}
        return inv >= frontier_inv and flags >= frontier_flags

    def adopt(candidate_actions, score, force_advance=False):
        """Install a new best trajectory and advance the launch frontier.

        The trajectory is loop-compressed, the buffer rebuilt, and (when
        intrinsic motivation is active) new episodes start from the latest
        alive state on it.  The end state itself can be terminal when a
        gain and a death coincide, hence the buffer-tail launch.
        """
        nonlocal j_max, best_actions, buffer_entries, launch, prefix
        nonlocal frontier_inv, frontier_flags
        best_actions = shorten_trajectory(game, candidate_actions)
        j_max = max(j_max, score)
        monitor.new_highscore(j_max)
        buffer_entries = build_state_buffer(game, trainer.oracle,
                                            best_actions, cfg.buffer_size)
        if cfg.alpha > 0 or force_advance:
            tail = buffer_entries[-1]
            launch = tail.as_launch()
            prefix = list(best_actions[:tail.prefix_len])
            frontier_inv, frontier_flags = _capability(game, start,
                                                       best_actions)
            # modular chaining: a fresh policy takes over at the new frontier
            trainer.params = policy.init_params(game, cfg.encoder,
                                                gamma=cfg.gamma)
            trainer.transitions = []
        trainer.curve.append((trainer.steps, j_max))

    def on_improvement(improvement):
        score, episode_actions, last_useful = improvement
        adopt(prefix + episode_actions[:last_useful], score)
        return j_max

    def make_splice(entry):
        """Detour splicing for a backtrack entry.

        When an episode launched from the entry returns to the entry's room
        with a score gain or globally new triples, graft the detour into the
        best trajectory (prefix + detour + old suffix) and adopt it if an
        engine replay confirms a higher score, or an equal score with
        strictly more items or flags.  This is how missed latent
        dependencies (the egg, the lamp) get inserted without ever beating
        the raw high score directly from an old snapshot.
        """
        pre = list(best_actions[:entry.prefix_len])
        suffix = list(best_actions[entry.prefix_len:])
        entry_state = engine.restore(entry.snapshot)
        entry_room = entry_state.current_room
        entry_inv, entry_flags = _state_capability(entry_state)
        tried = set()

        def try_splice(env):
            if env.state.current_room != entry_room or not env.state.alive:
                return None
            inv, flags = _state_capability(env.state)
            gained = (env.state.score > entry.score
                      or (inv >= entry_inv and inv != entry_inv)
                      or (flags >= entry_flags and flags != entry_flags))
            if not gained:
                return None
            key = (frozenset(inv), frozenset(flags), env.state.score,
                   engine.state_hash(env.state))
            if key in tried:
                return None
            tried.add(key)
            candidate = pre + list(env.episode_actions) + suffix
            final, cinv, cflags = _replay_outcome(game, candidate)
            if final < j_max:
                return None
            if final == j_max:
                gained = (cinv >= frontier_inv and cflags >= frontier_flags
                          and (cinv != frontier_inv
                               or cflags != frontier_flags))
                if not gained:
                    return None
            adopt(candidate, final, force_advance=True)
            return j_max

        return try_splice

    while trainer.steps < cfg.total_steps:
        if cfg.stop_at_max and j_max >= game.max_score:
            break
        remaining = cfg.total_steps - trainer.steps
        stop = game.max_score if cfg.stop_at_max else None
        _, used = _phase(trainer, envs, lambda: launch, remaining, j_max,
                         monitor=monitor, on_improvement=on_improvement,
                         stop_score=stop, accept_ties=cfg.alpha > 0,
                         tie_guard=tie_guard)
        if cfg.stop_at_max and j_max >= game.max_score:
            break
        if trainer.steps >= cfg.total_steps:
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
            entry, fresh, improvement, _ = backtrack(
                trainer, buffer_entries, j_max, n_backtrack,
                max_total=cfg.total_steps - trainer.steps,
                accept_ties=cfg.alpha > 0, tie_guard=tie_guard,
                make_splice=make_splice)
            if improvement is None:
                break
            backtracks += 1
            advanced = True
            if improvement[0] == "splice":
                # the splice callback already adopted the grafted
                # trajectory.  A tie graft moves the frontier without
                # raising the score, and the policy has just proven it is
                # stuck at this score, so keep backtracking over the
                # refreshed buffer instead of waiting out another
                # stagnation cycle in the main phase.
                if j_max > j_before:
                    break
                continue
            score, episode_actions, last_useful = improvement
            trainer.params = fresh
            adopt(list(best_actions[:entry.prefix_len])
                  + episode_actions[:last_useful], score, force_advance=True)
            break
        if not advanced:
            gave_up = True      # exhausted every snapshot; give up
            break
        for env in envs:
            env.needs_reset = True

    trainer.flush_update()
    chain = build_chain(game, trainer.encoder, cfg, best_actions)
    return TrainResult(
        j_max=j_max, best_actions=tuple(best_actions), chain=chain,
        log=trainer.log, curve=trainer.curve,
        trajectory_hash=trainer.hasher.hexdigest(),
        steps_used=trainer.steps, gave_up=gave_up, backtracks=backtracks,
        fallbacks=trainer.fallbacks)


def vanilla_train(game, config):
    """Plain batched A2C: no monitor, no buffers, no chaining."""
    config = replace(config, patience=None)
    trainer = _Trainer(game, config)
    envs = trainer.make_envs(config.batch_size)
    start = game_start_launch(game)
    j_max = start.score
    best_actions = []

    def on_improvement(improvement):
        nonlocal j_max, best_actions
        score, episode_actions, _ = improvement
        truncated, peak = _truncate_at_peak(game, start, episode_actions)
        j_max = peak
        best_actions = truncated
        trainer.curve.append((trainer.steps, j_max))
        return j_max

    while trainer.steps < config.total_steps:
        if config.stop_at_max and j_max >= game.max_score:
            break
        remaining = config.total_steps - trainer.steps
        stop = game.max_score if config.stop_at_max else None
        _phase(trainer, envs, lambda: start, remaining, j_max,
               on_improvement=on_improvement, stop_score=stop)
    trainer.flush_update()
    return TrainResult(
        j_max=j_max, best_actions=tuple(best_actions), chain=None,
        log=trainer.log, curve=trainer.curve,
        trajectory_hash=trainer.hasher.hexdigest(),
        steps_used=trainer.steps, fallbacks=trainer.fallbacks)


# --- Go-Explore --------------------------------------------------------------


@dataclass
class Cell:
    launch: Launch
    score: int
    visits: int
    actions: tuple[str, ...]      # from game reset to this cell


class CellArchive:
    """Map from (state digest, graph digest) to its cell; scores dominate."""

    def __init__(self):
        self.cells = {}           # key -> Cell, insertion-ordered

    def insert(self, key, cell):
        existing = self.cells.get(key)
        if existing is None:
            self.cells[key] = cell
        elif cell.score > existing.score:
            existing.score = cell.score
        return self.cells[key]

    def sample(self, rng):
        """Score-weighted choice: weight = score + 1."""
        cells = list(self.cells.values())
        weights = np.array([c.score + 1.0 for c in cells])
        probs = weights / weights.sum()
        return cells[int(rng.choice(len(cells), p=probs))]

    def __len__(self):
        return len(self.cells)


def go_train(game, config):
    """Go-Explore phase 1 with a concurrently trained policy.

    Cells are keyed by (world-state digest, knowledge-graph digest); a cell
    is sampled with probability proportional to score + 1 and explored for
    cell_step steps.
    """
    trainer = _Trainer(game, config)
    cfg = config
    rng_cells = np.random.default_rng(cfg.seed + 0x9E3779B9)
    archive = CellArchive()
    env = trainer.make_envs(1)[0]

    start = game_start_launch(game)
    env.begin(start)
    start_key = (engine.state_hash(env.state), kg.kg_hash(env.graph))
    archive.insert(start_key, Cell(
        Launch(engine.snapshot(env.state), frozenset(env.graph.triples),
               env.state.score),
        env.state.score, 0, ()))
    best_score = env.state.score
    best_actions = ()

    while trainer.steps < cfg.total_steps:
        if cfg.stop_at_max and best_score >= game.max_score:
            break
        cell = archive.sample(rng_cells)
        cell.visits += 1
        env.begin(cell.launch)
        path = list(cell.actions)
        for _ in range(cfg.cell_step):
            if trainer.steps >= cfg.total_steps:
                break
            action, r_game, r_im, r_t, done, truncated = trainer.act_and_step(
                env)
            path.append(action.text)
            if env.state.alive:
                key = (engine.state_hash(env.state), kg.kg_hash(env.graph))
                archive.insert(key, Cell(
                    Launch(engine.snapshot(env.state),
                           frozenset(env.graph.triples), env.state.score),
                    env.state.score, 0, tuple(path)))
            if env.state.score > best_score:
                best_score = env.state.score
                best_actions = tuple(path)
                trainer.curve.append((trainer.steps, best_score))
                trainer.log_row(env, r_im, r_t, "highscore")
            if done:
                break
        trainer.flush_update()

    return TrainResult(
        j_max=best_score, best_actions=best_actions, chain=None,
        log=trainer.log, curve=trainer.curve,
        trajectory_hash=trainer.hasher.hexdigest(),
        steps_used=trainer.steps, fallbacks=trainer.fallbacks), archive
