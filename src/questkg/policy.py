"""Factored template-then-entity actor-critic over hashed state features.

State features combine one round of per-relation neighborhood aggregation
over the knowledge graph (fixed seeded relation filters, fixed seeded output
projection, mean pooling, tanh) with sign-hashed token features of the four
observation components.  The learnable parameters are three linear heads:
template logits, entity logits (shared across blank positions with a
position indicator and partial-decode context), and a scalar critic.

The A2C learner works on a whole transition batch with matrix products:
the N states are stacked into X and the blank-filling decisions' entity
contexts into C, each head's loss gradient with respect to its logits is
one matrix D, and the weight gradients are Dᵀ X and Dᵀ C.  The actor draws
with numpy's own choice recipe (see _sample), so its draws are those of
Generator.choice.

All analytic gradients are verified against central finite differences in
the test suite; everything is float64.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

NEG_INF = -1e30  # soft -inf keeps exp() at exactly 0.0 without nan traps

CHECKPOINT_VERSION = 1


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
    """Deterministic featurizer; owns the fixed seeded weights and caches."""

    def __init__(self, config=EncoderConfig()):
        self.config = config
        c = config
        rng = _seeded_rng("encoder", c.seed)
        self._w_out = rng.normal(0, 1.0 / np.sqrt(c.d_graph),
                                 (c.d_graph, c.d_graph))
        self._b_out = rng.normal(0, 0.1, c.d_graph)
        self._w_rel = {}        # relation -> (d_graph, d_node) filter
        self._node_vec = {}     # token -> d_node embedding
        self._msg = {}          # triple -> d_graph message vector
        self._tok = {}          # token -> (bucket index, sign)
        self._text_vec = {}     # component text -> d_obs vector

    # -- fixed seeded weights -------------------------------------------

    def _relation_filter(self, relation):
        w = self._w_rel.get(relation)
        if w is None:
            c = self.config
            rng = _seeded_rng("rel", c.seed, relation)
            w = rng.normal(0, 1.0 / np.sqrt(c.d_node), (c.d_graph, c.d_node))
            self._w_rel[relation] = w
        return w

    def node_vector(self, token):
        h = self._node_vec.get(token)
        if h is None:
            c = self.config
            h = _seeded_rng("node", c.seed, token).normal(0, 1, c.d_node)
            self._node_vec[token] = h
        return h

    def message(self, triple):
        """Per-edge contribution to the pooled relational summary."""
        m = self._msg.get(triple)
        if m is None:
            w_r = self._relation_filter(triple.relation)
            w_self = self._relation_filter("self")
            m = w_r @ self.node_vector(triple.object) \
                + w_self @ self.node_vector(triple.subject)
            self._msg[triple] = m
        return m

    def graph_summary_from_pool(self, pooled):
        return np.tanh(self._w_out @ pooled + self._b_out)

    def graph_summary(self, graph):
        c = self.config
        if len(graph) == 0:
            pooled = np.zeros(c.d_graph)
        else:
            pooled = np.zeros(c.d_graph)
            for t in graph.triples:
                pooled += self.message(t)
            pooled /= len(graph)
        return self.graph_summary_from_pool(pooled)

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
            self._text_vec[text] = vec
        return vec

    def decode_vector(self, kind, key):
        """Fixed context embedding for partial-decode conditioning."""
        token = f"{kind}:{key}"
        vec = self._text_vec.get(token)
        if vec is None:
            vec = _seeded_rng("dec", self.config.seed, token).normal(
                0, 1, self.config.d_decode)
            self._text_vec[token] = vec
        return vec

    def encode(self, obs, graph):
        """Feature vector for (observation, knowledge graph); deterministic."""
        parts = [self.graph_summary(graph),
                 self.text_vector(obs.desc),
                 self.text_vector(obs.feedback),
                 self.text_vector(obs.inv),
                 self.text_vector(obs.prev_action)]
        return np.concatenate(parts)


class PooledGraphTracker:
    """Incremental mirror of StateEncoder.graph_summary for hot loops."""

    def __init__(self, encoder, graph=None):
        self.encoder = encoder
        self.total = np.zeros(encoder.config.d_graph)
        self.count = 0
        if graph is not None:
            for t in graph.triples:
                self.apply([t], [])

    def apply(self, added, removed):
        for t in added:
            self.total += self.encoder.message(t)
            self.count += 1
        for t in removed:
            self.total -= self.encoder.message(t)
            self.count -= 1

    def summary(self):
        pooled = self.total / self.count if self.count else \
            np.zeros(self.encoder.config.d_graph)
        return self.encoder.graph_summary_from_pool(pooled)

    def copy(self):
        clone = PooledGraphTracker(self.encoder)
        clone.total = self.total.copy()
        clone.count = self.count
        return clone


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

    def copy(self):
        return PolicyParams(
            templates=self.templates, entities=self.entities,
            w_template=self.w_template.copy(),
            b_template=self.b_template.copy(),
            w_entity=self.w_entity.copy(), b_entity=self.b_entity.copy(),
            w_value=self.w_value.copy(), b_value=self.b_value.copy(),
            gamma=self.gamma)

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

    def finite(self):
        return all(np.isfinite(getattr(self, n)).all() for n in self.ARRAYS)


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
    return params.from_vector(vec)


# --- acting -----------------------------------------------------------------

def _masked_log_softmax(logits, mask_idx):
    """Log-probabilities with exactly zero mass off the mask."""
    masked = np.full(logits.shape, NEG_INF)
    masked[mask_idx] = logits[mask_idx]
    shift = masked - masked.max()
    log_z = np.log(np.exp(shift).sum())
    return shift - log_z


def _log_softmax(logits):
    shift = logits - logits.max()
    return shift - np.log(np.exp(shift).sum())


def _log_softmax_rows(logits):
    """Row-wise _log_softmax of a (K, C) logits matrix."""
    shift = logits - logits.max(axis=1, keepdims=True)
    return shift - np.log(np.exp(shift).sum(axis=1, keepdims=True))


def _sample(p, rng):
    """Draw an index with probabilities p.

    This is rng.choice(len(p), p=p) without its argument validation: the
    same cdf, the same single rng.random() draw and the same search, so it
    returns the same index and leaves the generator in the same state.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _mask_indices(entities, mask):
    """Indices of the permitted entities, and whether an empty mask forced
    the full vocabulary."""
    mask_idx = np.array([i for i, e in enumerate(entities) if e in mask],
                        dtype=int)
    if mask_idx.size == 0:
        return np.arange(len(entities)), True
    return mask_idx, False


@dataclass
class ActResult:
    template_index: int
    filler_indices: tuple[int, ...]
    log_prob: float
    value: float
    mask_fallback: bool  # an empty mask forced full-vocabulary filling
    mask_idx: np.ndarray  # entity indices the fillers were drawn from


def _entity_context(encoder, feats, position, template_pattern, prev_entity):
    return np.concatenate([
        feats,
        np.array([1.0, 0.0]) if position == 0 else np.array([0.0, 1.0]),
        encoder.decode_vector("tmpl", template_pattern),
        encoder.decode_vector("ent", prev_entity if prev_entity else "<none>"),
    ])


def act(params, feats, mask, rng, encoder, template_blanks):
    """Sample a factored action.

    mask is the permitted entity set (graph mask); template_blanks maps
    template index -> blank count.  Masked-out entities receive exactly zero
    probability; an empty mask falls back to the full vocabulary and is
    flagged on the result.  Draws are those of rng.choice (see _sample).
    """
    log_pt = _log_softmax(params.w_template @ feats + params.b_template)
    t_idx = _sample(np.exp(log_pt), rng)
    log_prob = log_pt[t_idx]

    mask_idx, fallback = _mask_indices(params.entities, mask)
    fillers = []
    prev = ""
    for position in range(template_blanks[t_idx]):
        x = _entity_context(encoder, feats, position,
                            params.templates[t_idx], prev)
        log_pe = _masked_log_softmax(params.w_entity @ x + params.b_entity,
                                     mask_idx)
        e_idx = _sample(np.exp(log_pe), rng)
        log_prob += log_pe[e_idx]
        fillers.append(e_idx)
        prev = params.entities[e_idx]

    value = float(params.w_value @ feats + params.b_value)
    return ActResult(t_idx, tuple(fillers), float(log_prob), value, fallback,
                     mask_idx)


def greedy_action(params, feats, mask, encoder, template_blanks):
    """Deterministic argmax decode used when executing frozen chain modules."""
    logits_t = params.w_template @ feats + params.b_template
    t_idx = int(np.argmax(logits_t))
    mask_idx, _ = _mask_indices(params.entities, mask)
    fillers = []
    prev = ""
    for position in range(template_blanks[t_idx]):
        x = _entity_context(encoder, feats, position,
                            params.templates[t_idx], prev)
        logits = params.w_entity @ x + params.b_entity
        masked = np.full(logits.shape, NEG_INF)
        masked[mask_idx] = logits[mask_idx]
        e_idx = int(np.argmax(masked))
        fillers.append(e_idx)
        prev = params.entities[e_idx]
    return t_idx, tuple(fillers)


# --- A2C update --------------------------------------------------------------

@dataclass
class Transition:
    feats: np.ndarray
    template_index: int
    filler_indices: tuple[int, ...]
    mask_idx: np.ndarray          # permitted entity indices at act time
    template_pattern: str
    reward: float
    next_feats: np.ndarray | None  # None at terminal (V(s') = 0)
    advantage: float = 0.0         # filled by prepare_targets
    target_q: float = 0.0


def _stack(rows, width):
    """(len(rows), width) matrix of the given vectors."""
    return np.array(rows, dtype=float).reshape(len(rows), width)


def prepare_targets(params, transitions):
    """Compute Q = r + gamma*V(s') and A = Q - V(s) as detached constants."""
    width = params.w_value.size
    v = _stack([tr.feats for tr in transitions], width) @ params.w_value \
        + params.b_value
    live = [i for i, tr in enumerate(transitions) if tr.next_feats is not None]
    v_next = np.zeros(len(transitions))
    v_next[live] = _stack([transitions[i].next_feats for i in live],
                          width) @ params.w_value + params.b_value
    for tr, v_s, v_s_next in zip(transitions, v.tolist(), v_next.tolist()):
        tr.target_q = tr.reward + params.gamma * v_s_next
        tr.advantage = tr.target_q - v_s
    return transitions


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


def a2c_loss_and_grads(params, transitions, encoder,
                       value_coef=0.5, entropy_coef=0.01):
    """Total loss and analytic gradients for a batch of prepared transitions.

    Loss per transition: -(log pi_T + sum log pi_O) * A
                         + value_coef * 0.5 * (Q - V)^2
                         + entropy_coef * sum(P log P) over each decision.
    Advantages and targets are treated as constants.  The batch is computed
    as matrix products: with the N states stacked in X and the M blank
    decisions' entity contexts stacked in C, the weight gradients are
    D_templateᵀ X and D_entityᵀ C, where D holds the loss gradient with
    respect to each row's logits.
    """
    width = params.w_value.size
    X = _stack([tr.feats for tr in transitions], width)
    advantage = np.array([tr.advantage for tr in transitions], dtype=float)
    target_q = np.array([tr.target_q for tr in transitions], dtype=float)
    chosen_t = np.array([tr.template_index for tr in transitions], dtype=int)

    # template head
    log_pt = _log_softmax_rows(X @ params.w_template.T + params.b_template)
    loss_t, d_t = _head_loss_and_dlogits(log_pt, chosen_t, advantage,
                                         entropy_coef)

    # entity head: one row per blank, off-mask logits pinned to NEG_INF
    contexts, chosen_e, advantage_e, mask_rows = [], [], [], []
    for tr in transitions:
        prev = ""
        for position, e_idx in enumerate(tr.filler_indices):
            contexts.append(_entity_context(encoder, tr.feats, position,
                                            tr.template_pattern, prev))
            chosen_e.append(e_idx)
            advantage_e.append(tr.advantage)
            mask_rows.append(tr.mask_idx)
            prev = params.entities[e_idx]
    C = _stack(contexts, params.w_entity.shape[1])
    on_mask = np.zeros((len(contexts), len(params.entities)), dtype=bool)
    for row, mask_idx in enumerate(mask_rows):
        on_mask[row, mask_idx] = True
    logits_e = np.where(on_mask, C @ params.w_entity.T + params.b_entity,
                        NEG_INF)
    loss_e, d_e = _head_loss_and_dlogits(
        _log_softmax_rows(logits_e), np.array(chosen_e, dtype=int),
        np.array(advantage_e, dtype=float), entropy_coef)

    # critic
    delta = target_q - (X @ params.w_value + params.b_value)
    d_v = -value_coef * delta

    grads = {
        "w_template": d_t.T @ X,
        "b_template": d_t.sum(axis=0),
        "w_entity": d_e.T @ C,
        "b_entity": d_e.sum(axis=0),
        "w_value": d_v @ X,
        "b_value": np.array(d_v.sum()),
    }
    total_loss = loss_t + loss_e + value_coef * 0.5 * float(delta @ delta)
    return float(total_loss), grads


def a2c_update(params, transitions, encoder, learning_rate=0.01,
               value_coef=0.5, entropy_coef=0.01):
    """One semi-gradient A2C step over a trajectory batch (in place).

    Raises on non-finite gradients, leaving params untouched.
    """
    if not transitions:
        raise ValueError("empty trajectory")
    prepare_targets(params, transitions)
    loss, grads = a2c_loss_and_grads(params, transitions, encoder,
                                     value_coef, entropy_coef)
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise FloatingPointError(f"non-finite gradient in {name}")
    scale = learning_rate / len(transitions)
    for name, g in grads.items():
        arr = getattr(params, name)
        arr -= scale * g
    return loss
