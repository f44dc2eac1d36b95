"""Factored template-then-entity actor-critic over hashed state features.

State features combine one round of per-relation neighborhood aggregation
over the knowledge graph (fixed seeded relation filters, fixed seeded output
projection, mean pooling, tanh) with sign-hashed token features of the four
observation components.  The learnable parameters are three linear heads:
template logits, entity logits (shared across blank positions with a
position indicator and partial-decode context), and a scalar critic.

The A2C learner works on a whole transition batch with matrix products:
the N states are stacked into X and the entity contexts the actor built
for its blanks into C, with each blank's recorded off-mask row pinning its
logits to NEG_INF; each head's loss gradient with respect to its logits is
one matrix D, and the weight gradients are Dᵀ X and Dᵀ C.  act_batch is
the one sampling decoder (act is its one-row case): it decides a list of
states at once, with one stacked matrix-vector product per head and
row-wise cdfs, and picks each index as Generator.choice would, from a
Uniforms stream that holds the doubles successive rng.random() calls
return.  The states take their uniforms in stream order, so a batch picks
what its states picked one call each.  greedy_action is the argmax decode
of frozen chain modules.

All analytic gradients are verified against central finite differences in
the test suite; everything is float64.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

NEG_INF = -1e30  # soft -inf keeps exp() at exactly 0.0 without nan traps
VALUE_COEF = 0.5  # weight of the critic's squared error in the A2C loss

CHECKPOINT_VERSION = 1


def _frozen(array):
    """The array, made read-only: the encoder's caches are shared by every
    caller in the process, so a stray in-place write must raise."""
    array.flags.writeable = False
    return array


def _seeded_rng(*parts):
    digest = hashlib.blake2b("\x1f".join(str(p) for p in parts).encode(),
                             digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


@dataclass(frozen=True)
class EncoderConfig:
    seed: int = 0
    d_graph: int = 32       # relational summary width
    d_node: int = 16        # node embedding width
    d_obs: int = 24         # per-observation-component hash buckets
    d_decode: int = 8       # template / previous-filler context embeddings

    @property
    def feature_dim(self):
        return self.d_graph + 4 * self.d_obs


class StateEncoder:
    """Deterministic featurizer; owns the fixed seeded weights and caches.

    Every weight and cached vector is seeded from its own key alone, so an
    encoder returns the same bits whatever it has computed before; the
    training loops and execute_chain share one per config (shared_encoder).
    Cached arrays are read-only."""

    def __init__(self, config=EncoderConfig()):
        self.config = config
        c = config
        rng = _seeded_rng("encoder", c.seed)
        self._w_out = _frozen(rng.normal(0, 1.0 / np.sqrt(c.d_graph),
                                         (c.d_graph, c.d_graph)))
        self._b_out = _frozen(rng.normal(0, 0.1, c.d_graph))
        self._w_rel = {}        # relation -> (d_graph, d_node) filter
        self._node_vec = {}     # token -> d_node embedding
        self._msg = {}          # triple -> d_graph message vector
        self._tok = {}          # token -> (bucket index, sign)
        self._text_vec = {}     # component text -> d_obs vector
        self._decode_vec = {}   # (kind, key) -> d_decode vector
        self._tail = {}         # (first blank, template, prev) -> context tail

    # -- fixed seeded weights -------------------------------------------

    def _relation_filter(self, relation):
        w = self._w_rel.get(relation)
        if w is None:
            c = self.config
            rng = _seeded_rng("rel", c.seed, relation)
            w = _frozen(rng.normal(0, 1.0 / np.sqrt(c.d_node),
                                   (c.d_graph, c.d_node)))
            self._w_rel[relation] = w
        return w

    def node_vector(self, token):
        h = self._node_vec.get(token)
        if h is None:
            c = self.config
            h = _frozen(_seeded_rng("node", c.seed, token).normal(
                0, 1, c.d_node))
            self._node_vec[token] = h
        return h

    def message(self, triple):
        """Per-edge contribution to the pooled relational summary."""
        m = self._msg.get(triple)
        if m is None:
            w_r = self._relation_filter(triple.relation)
            w_self = self._relation_filter("self")
            m = _frozen(w_r @ self.node_vector(triple.object)
                        + w_self @ self.node_vector(triple.subject))
            self._msg[triple] = m
        return m

    def graph_summary_from_pool(self, pooled):
        return np.tanh(self._w_out @ pooled + self._b_out)

    # -- observation hashing ---------------------------------------------

    def _token_slot(self, token):
        slot = self._tok.get(token)
        if slot is None:
            c = self.config
            raw = hashlib.blake2b(f"tok\x1f{c.seed}\x1f{token}".encode(),
                                  digest_size=8).digest()
            value = int.from_bytes(raw, "big")
            slot = (value % c.d_obs, 1.0 if (value >> 32) & 1 else -1.0)
            self._tok[token] = slot
        return slot

    def text_vector(self, text):
        vec = self._text_vec.get(text)
        if vec is None:
            c = self.config
            vec = np.zeros(c.d_obs)
            tokens = text.lower().split()
            for token in tokens:
                idx, sign = self._token_slot(token)
                vec[idx] += sign
            if tokens:
                vec /= np.sqrt(len(tokens))
            self._text_vec[text] = _frozen(vec)
        return vec

    def decode_vector(self, kind, key):
        """Fixed context embedding for partial-decode conditioning."""
        vec = self._decode_vec.get((kind, key))
        if vec is None:
            vec = _frozen(_seeded_rng(
                "dec", self.config.seed, f"{kind}:{key}").normal(
                    0, 1, self.config.d_decode))
            self._decode_vec[kind, key] = vec
        return vec

    def context_tail(self, first, template_pattern, prev_entity):
        """The entity context after the state features: the blank's
        position one-hot (first blank or later) and the decode vectors of
        the template and of the previous filler."""
        key = (first, template_pattern, prev_entity)
        tail = self._tail.get(key)
        if tail is None:
            tail = _frozen(np.concatenate([
                np.array([1.0, 0.0]) if first else np.array([0.0, 1.0]),
                self.decode_vector("tmpl", template_pattern),
                self.decode_vector("ent",
                                   prev_entity if prev_entity else "<none>"),
            ]))
            self._tail[key] = tail
        return tail


@functools.cache
def shared_encoder(config):
    """The one StateEncoder of this config in the process."""
    return StateEncoder(config)


class PooledGraphTracker:
    """The graph summary: the mean of the triples' messages, kept up to date
    as triples are added and removed, through the encoder's output layer.
    It is the only implementation; AgentEnv.feats builds features on it."""

    def __init__(self, encoder, graph=None):
        self.encoder = encoder
        self.total = np.zeros(encoder.config.d_graph)
        self.count = 0
        self._summary = None      # summary() until the next non-empty diff
        if graph is not None:
            # a fixed order keeps the float sum independent of the string
            # hash seed that orders the set
            self.apply(sorted(graph.triples, key=lambda t: t.line()), [])

    def apply(self, added, removed):
        if added or removed:
            self._summary = None
        for t in added:
            self.total += self.encoder.message(t)
            self.count += 1
        for t in removed:
            self.total -= self.encoder.message(t)
            self.count -= 1

    def copy(self):
        """An independent tracker with the same sum, count and summary."""
        clone = PooledGraphTracker(self.encoder)
        clone.total = self.total.copy()
        clone.count = self.count
        clone._summary = self._summary
        return clone

    def summary(self):
        """The summary vector, shared between calls: do not write to it."""
        if self._summary is None:
            pooled = self.total / self.count if self.count else \
                np.zeros(self.encoder.config.d_graph)
            self._summary = self.encoder.graph_summary_from_pool(pooled)
        return self._summary


# --- parameters -------------------------------------------------------------

@dataclass
class PolicyParams:
    templates: tuple[str, ...]     # template patterns, fixed order
    entities: tuple[str, ...]      # entity vocabulary, fixed order
    w_template: np.ndarray         # (n_templates, F)
    b_template: np.ndarray         # (n_templates,)
    w_entity: np.ndarray           # (n_entities, F + 2 + 2*d_decode)
    b_entity: np.ndarray           # (n_entities,)
    w_value: np.ndarray            # (F,)
    b_value: np.ndarray            # ()
    gamma: float = 0.9

    ARRAYS = ("w_template", "b_template", "w_entity", "b_entity",
              "w_value", "b_value")

    def to_vector(self):
        return np.concatenate([getattr(self, n).ravel() for n in self.ARRAYS])

    def from_vector(self, vec):
        offset = 0
        for name in self.ARRAYS:
            arr = getattr(self, name)
            size = arr.size
            setattr(self, name, vec[offset:offset + size].reshape(arr.shape))
            offset += size
        return self


def init_params(game, config=EncoderConfig(), gamma=0.9):
    """Zero-initialized heads: the initial policy is uniform over choices."""
    feat = config.feature_dim
    templates = tuple(t.pattern for t in game.templates)
    entities = tuple(game.entities)
    ctx = feat + 2 + 2 * config.d_decode
    return PolicyParams(
        templates=templates,
        entities=entities,
        w_template=np.zeros((len(templates), feat)),
        b_template=np.zeros(len(templates)),
        w_entity=np.zeros((len(entities), ctx)),
        b_entity=np.zeros(len(entities)),
        w_value=np.zeros(feat),
        b_value=np.zeros(()),
        gamma=gamma,
    )


def save_params(params):
    """Versioned, byte-deterministic checkpoint."""
    meta = {
        "v": CHECKPOINT_VERSION,
        "templates": list(params.templates),
        "entities": list(params.entities),
        "gamma": params.gamma,
        "shapes": {n: list(getattr(params, n).shape) for n in params.ARRAYS},
    }
    head = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    body = params.to_vector().astype("<f8").tobytes()
    return len(head).to_bytes(4, "big") + head + body


def load_params(blob):
    head_len = int.from_bytes(blob[:4], "big")
    meta = json.loads(blob[4:4 + head_len].decode())
    if meta.get("v") != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version {meta.get('v')!r}")
    params = PolicyParams(
        templates=tuple(meta["templates"]),
        entities=tuple(meta["entities"]),
        gamma=meta["gamma"],
        **{n: np.zeros(tuple(meta["shapes"][n])) for n in PolicyParams.ARRAYS})
    vec = np.frombuffer(blob[4 + head_len:], dtype="<f8").copy()
    size = sum(getattr(params, n).size for n in params.ARRAYS)
    if vec.size != size:
        raise ValueError(f"checkpoint holds {vec.size} values, its shapes "
                         f"need {size}")
    return params.from_vector(vec)


# --- acting -----------------------------------------------------------------

def _log_softmax_rows(logits):
    """Row-wise log-softmax of a (K, C) logits matrix, with the reductions
    called as ufunc methods along each row."""
    shift = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    return shift - np.log(np.add.reduce(np.exp(shift), axis=1,
                                        keepdims=True))


def _cdf_rows(logits):
    """The cdf Generator.choice builds from p = softmax(row), for each row
    of a (K, C) logits matrix: the running sum of p, divided by its last
    entry."""
    cdf = np.add.accumulate(np.exp(_log_softmax_rows(logits)), axis=1)
    return cdf / cdf[:, -1:]


def _gemv_rows(w, rows):
    """The product w @ x for each row x of a matrix, as one stacked
    matrix-vector product: each row has the bits of w @ x, which the
    matrix product rows @ w.T does not promise."""
    return np.matmul(w, rows[:, :, None])[..., 0]


def _mask_indices(entities, mask):
    """(whether an empty mask forced the full vocabulary, boolean array of
    the entities off the mask).  Setting the logits off the mask to NEG_INF
    makes softmax put exactly zero mass there."""
    off = np.array([e not in mask for e in entities], dtype=bool)
    if off.all():
        return True, np.zeros(len(entities), bool)
    return False, off


class Uniforms:
    """The doubles that successive rng.random() calls return, drawn from
    the generator `block` at a time.  window(n) shows the next n,
    advance(n) uses them, and rewind(n) gives back the last n used, as far
    back as the start of the last window; position counts the uniforms
    used."""

    block = 16384       # 128 KiB of doubles

    def __init__(self, rng):
        self.rng = rng
        self.position = 0
        self._buf = np.empty(0)
        self._at = 0        # index in _buf of the next uniform

    def window(self, n):
        while self._at + n > len(self._buf):
            self._buf = np.concatenate((self._buf[self._at:],
                                        self.rng.random(self.block)))
            self._at = 0
        return self._buf[self._at:self._at + n].tolist()

    def advance(self, n):
        self._at += n
        self.position += n

    def rewind(self, n):
        if n > self._at:
            raise ValueError(f"cannot rewind {n} uniforms past the window")
        self.advance(-n)


class ActResult(NamedTuple):
    template_index: int
    filler_indices: tuple[int, ...]
    mask_fallback: bool  # an empty mask forced full-vocabulary filling
    contexts: tuple[np.ndarray, ...]  # entity context of each blank


def _entity_context(encoder, feats, position, template_pattern, prev_entity):
    return np.concatenate((feats, encoder.context_tail(
        position == 0, template_pattern, prev_entity)))


def act_batch(params, feats, masks, uniforms, encoder, template_blanks):
    """Sample a factored action for each row of feats, with the mask of the
    same index, from a Uniforms stream.

    A mask is _mask_indices(params.entities, permitted entity set), which
    the caller keeps while the set is unchanged; template_blanks maps
    template index -> blank count.  Masked-out entities get exactly zero
    probability; an empty mask falls back to the full vocabulary and is
    flagged on the result.  Each pick is Generator.choice's: where its
    uniform falls in the cdf of softmax(logits).  The rows take their
    uniforms in stream order, one for the template and then one per blank,
    so a batch picks what one call per row would.  All rows are decided at
    once: one stacked matrix-vector product per head (_gemv_rows), a bisect
    on each template cdf row, then the entity heads one blank position at a
    time.
    """
    X = np.array(feats)
    u = uniforms.window(len(X) * (1 + max(template_blanks.values())))
    templates, starts = [], []  # per row: template, first blank's uniform
    used = 0
    for row in _cdf_rows(_gemv_rows(params.w_template, X)
                         + params.b_template).tolist():
        t_idx = bisect.bisect_right(row, u[used])
        templates.append(t_idx)
        used += 1
        starts.append(used)
        used += template_blanks[t_idx]
    uniforms.advance(used)
    off = np.array([mask[1] for mask in masks])
    fillers = [[] for _ in templates]
    contexts = [[] for _ in templates]
    position = 0
    while rows := [i for i, t in enumerate(templates)
                   if template_blanks[t] > position]:
        all_rows = len(rows) == len(X)
        C = np.concatenate((X if all_rows else X[rows], [encoder.context_tail(
            position == 0, params.templates[templates[i]],
            params.entities[fillers[i][-1]] if position else "")
            for i in rows]), axis=1)
        logits = _gemv_rows(params.w_entity, C) + params.b_entity
        logits[off if all_rows else off[rows]] = NEG_INF
        for i, row, x in zip(rows, _cdf_rows(logits).tolist(), C):
            fillers[i].append(bisect.bisect_right(row,
                                                  u[starts[i] + position]))
            contexts[i].append(x)
        position += 1
    return [ActResult(t_idx, tuple(f), mask[0], tuple(c)) for t_idx, f, c, mask
            in zip(templates, fillers, contexts, masks)]


def act(params, feats, mask, uniforms, encoder, template_blanks):
    """act_batch of one state: its ActResult."""
    return act_batch(params, (feats,), (mask,), uniforms, encoder,
                     template_blanks)[0]


def greedy_action(params, feats, mask, encoder, template_blanks):
    """Deterministic argmax decode used when executing frozen chain modules;
    mask is as for act_batch.  Returns (template index, filler indices)."""
    t_idx = int(np.argmax(params.w_template @ feats + params.b_template))
    template = params.templates[t_idx]
    fillers, prev = [], ""
    for position in range(template_blanks[t_idx]):
        logits = params.w_entity @ _entity_context(
            encoder, feats, position, template, prev) + params.b_entity
        logits[mask[1]] = NEG_INF
        e_idx = int(np.argmax(logits))
        fillers.append(e_idx)
        prev = params.entities[e_idx]
    return t_idx, tuple(fillers)


# --- A2C update --------------------------------------------------------------

@dataclass
class Transition:
    feats: np.ndarray
    template_index: int
    filler_indices: tuple[int, ...]
    contexts: tuple[np.ndarray, ...]  # ActResult.contexts
    off: np.ndarray               # entities off the mask at act time
    reward: float
    next_feats: np.ndarray | None  # None at terminal (V(s') = 0)


def _stack(rows, width):
    """(len(rows), width) matrix of the given vectors."""
    return np.array(rows, dtype=float).reshape(len(rows), width)


def prepare_targets(params, transitions):
    """(Q, A) arrays: Q = r + gamma*V(s') and A = Q - V(s), as detached
    constants."""
    width = params.w_value.size
    v = _stack([tr.feats for tr in transitions], width) @ params.w_value \
        + params.b_value
    live = [i for i, tr in enumerate(transitions) if tr.next_feats is not None]
    v_next = np.zeros(len(transitions))
    v_next[live] = _stack([transitions[i].next_feats for i in live],
                          width) @ params.w_value + params.b_value
    rewards = np.array([tr.reward for tr in transitions], dtype=float)
    target_q = rewards + params.gamma * v_next
    return target_q, target_q - v


def _head_loss_and_dlogits(log_p, chosen, advantage, entropy_coef):
    """Loss and logit gradient of K decisions of one head.

    Row k holds one decision's log-probabilities; chosen[k] is the index
    taken and advantage[k] its advantage.  Loss per row:
    -A * log p[chosen] + entropy_coef * sum(p log p).  Entries off a mask
    have p == 0.0 exactly, so they add nothing to the loss or the gradient.
    """
    rows = np.arange(len(chosen))
    p = np.exp(log_p)
    plogp = p * log_p
    inner = plogp + p
    d_logits = entropy_coef * (inner - p * inner.sum(axis=1, keepdims=True))
    d_logits += advantage[:, None] * p
    d_logits[rows, chosen] -= advantage
    loss = -(advantage * log_p[rows, chosen]).sum() \
        + entropy_coef * plogp.sum()
    return loss, d_logits


def a2c_loss_and_grads(params, transitions, targets, entropy_coef=0.01):
    """Total loss and analytic gradients for a batch of transitions, with
    targets = prepare_targets(params, transitions).

    Loss per transition: -(log pi_T + sum log pi_O) * A
                         + VALUE_COEF * 0.5 * (Q - V)^2
                         + entropy_coef * sum(P log P) over each decision.
    Advantages and targets are treated as constants.  The batch is computed
    as matrix products: with the N states stacked in X and the M blank
    decisions' entity contexts, as act recorded them, stacked in C, the
    weight gradients are D_templateᵀ X and D_entityᵀ C, where D holds the
    loss gradient with respect to each row's logits.
    """
    target_q, advantage = targets
    width = params.w_value.size
    X = _stack([tr.feats for tr in transitions], width)
    chosen_t = np.array([tr.template_index for tr in transitions], dtype=int)

    # template head
    log_pt = _log_softmax_rows(X @ params.w_template.T + params.b_template)
    loss_t, d_t = _head_loss_and_dlogits(log_pt, chosen_t, advantage,
                                         entropy_coef)

    # entity head: one row per blank, off-mask logits pinned to NEG_INF
    blanks = [len(tr.filler_indices) for tr in transitions]
    C = _stack([x for tr in transitions for x in tr.contexts],
               params.w_entity.shape[1])
    off = np.repeat([tr.off for tr in transitions], blanks, axis=0)
    logits_e = np.where(off, NEG_INF, C @ params.w_entity.T + params.b_entity)
    chosen_e = np.array([e for tr in transitions for e in tr.filler_indices],
                        dtype=int)
    loss_e, d_e = _head_loss_and_dlogits(
        _log_softmax_rows(logits_e), chosen_e, np.repeat(advantage, blanks),
        entropy_coef)

    # critic
    delta = target_q - (X @ params.w_value + params.b_value)
    d_v = -VALUE_COEF * delta

    grads = {
        "w_template": d_t.T @ X,
        "b_template": d_t.sum(axis=0),
        "w_entity": d_e.T @ C,
        "b_entity": d_e.sum(axis=0),
        "w_value": d_v @ X,
        "b_value": np.array(d_v.sum()),
    }
    total_loss = loss_t + loss_e + VALUE_COEF * 0.5 * float(delta @ delta)
    return float(total_loss), grads


def a2c_update(params, transitions, learning_rate=0.01, entropy_coef=0.01):
    """One semi-gradient A2C step over a trajectory batch (in place).

    Raises on non-finite gradients, leaving params untouched.
    """
    if not transitions:
        raise ValueError("empty trajectory")
    loss, grads = a2c_loss_and_grads(
        params, transitions, prepare_targets(params, transitions),
        entropy_coef)
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in {name}")
    scale = learning_rate / len(transitions)
    for name, g in grads.items():
        arr = getattr(params, name)
        arr -= scale * g
    return loss
