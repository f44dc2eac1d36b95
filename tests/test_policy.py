import copy
import hashlib
import json
from dataclasses import dataclass

import numpy as np
import pytest

import per_row_actor
from questkg import engine, exploration, kg, policy
from questkg.policy import (EncoderConfig, PooledGraphTracker, Rollout,
                            StateEncoder, a2c_loss_and_grads, a2c_update, act,
                            greedy_action, init_params, load_params,
                            prepare_targets, save_params)

SMALL = EncoderConfig(d_graph=8, d_node=6, d_obs=6, d_decode=4)


def small_encoder():
    return StateEncoder(SMALL)


def random_params(game, rng, scale=0.5):
    params = init_params(game, SMALL)
    for name in params.ARRAYS:
        arr = getattr(params, name)
        arr += rng.normal(0, scale, arr.shape)
    return params


@dataclass
class Transition:
    """One step as a record, for building batches and for the per-transition
    reference loop; rollout_of appends records to a Rollout."""
    feats: np.ndarray
    template_index: int
    filler_indices: tuple[int, ...]
    contexts: tuple[np.ndarray, ...]  # ActResult.contexts
    off: np.ndarray               # entities off the mask at act time
    reward: float
    next_feats: np.ndarray | None  # None at terminal (V(s') = 0)


def rollout_of(transitions):
    """The Rollout the trainer records for these steps, in order."""
    rollout = Rollout()
    for tr in transitions:
        rollout.append(tr.feats, tr.template_index, tr.filler_indices,
                       tr.contexts, tr.off, tr.reward, tr.next_feats)
    return rollout


def decode_contexts(params, encoder, tr):
    """The entity contexts act builds along the transition's picks."""
    contexts, prev = [], ""
    for position, e_idx in enumerate(tr.filler_indices):
        contexts.append(policy._entity_context(
            encoder, tr.feats, position, params.templates[tr.template_index],
            prev))
        prev = params.entities[e_idx]
    return tuple(contexts)


def random_transition(game, params, encoder, rng):
    feat = SMALL.feature_dim
    n_entities = len(params.entities)
    t_idx = int(rng.integers(len(params.templates)))
    blanks = game.templates[t_idx].blanks
    size = int(rng.integers(1, n_entities + 1))
    on = np.sort(rng.choice(n_entities, size=size, replace=False))
    fillers = tuple(int(on[rng.integers(len(on))]) for _ in range(blanks))
    terminal = rng.random() < 0.3
    off = np.ones(n_entities, dtype=bool)
    off[on] = False
    tr = Transition(
        feats=rng.normal(0, 1, feat),
        template_index=t_idx,
        filler_indices=fillers,
        contexts=(),
        off=off,
        reward=float(rng.normal(0, 2)),
        next_feats=None if terminal else rng.normal(0, 1, feat),
    )
    tr.contexts = decode_contexts(params, encoder, tr)
    return tr


def mask_of(params, names):
    """act's and greedy_action's mask argument for a set of entity names."""
    return policy._mask_indices(params.entities, names)


def reference_summary(encoder, graph):
    """The graph summary from scratch: the mean of the triples' messages,
    summed in a fixed order, through the encoder's output layer."""
    pooled = np.zeros(encoder.config.d_graph)
    for t in sorted(graph.triples, key=lambda t: t.line()):
        pooled += encoder.message(t)
    if len(graph):
        pooled /= len(graph)
    return encoder.graph_summary_from_pool(pooled)


def test_encoder_is_deterministic(miniz):
    a, b = small_encoder(), small_encoder()
    graph = kg.KnowledgeGraph([kg.Triple("you", "in", "hall")])
    state, obs, _ = engine.reset(miniz)
    summary = PooledGraphTracker(a, graph).summary()
    assert np.array_equal(summary, PooledGraphTracker(b, graph).summary())
    assert summary.shape == (SMALL.d_graph,)
    assert np.array_equal(a.text_vector(obs.desc), b.text_vector(obs.desc))


def test_shared_encoder_is_one_per_config():
    assert policy.shared_encoder(SMALL) is policy.shared_encoder(
        EncoderConfig(d_graph=8, d_node=6, d_obs=6, d_decode=4))
    assert policy.shared_encoder(SMALL) is not policy.shared_encoder(
        EncoderConfig())


def test_cached_encoder_arrays_are_read_only():
    """The shared encoder's caches serve every later call in the process,
    so writing into one of them raises instead of corrupting them."""
    enc = small_encoder()
    triple = kg.Triple("you", "in", "hall")
    reference = enc.message(triple).copy()
    for array in (enc.message(triple), enc.text_vector("a dark hall"),
                  enc.node_vector("hall"), enc._relation_filter("in"),
                  enc.decode_vector("tmpl", "take ___"),
                  enc.context_tail(True, "take ___", "")):
        with pytest.raises(ValueError, match="read-only"):
            array[0] += 1.0
    assert enc.message(triple).tobytes() == reference.tobytes()


def test_pooled_tracker_matches_reference_summary(miniz):
    encoder = small_encoder()
    graph = kg.KnowledgeGraph()
    tracker = PooledGraphTracker(encoder, graph)
    assert np.array_equal(tracker.summary(), reference_summary(encoder, graph))
    triples = [kg.Triple("you", "in", "hall"),
               kg.Triple("hall", "has", "coin"),
               kg.Triple("coin", "is", "portable")]
    for t in triples:
        graph.add(t)
        tracker.apply([t], [])
    assert np.allclose(tracker.summary(), reference_summary(encoder, graph))
    graph.discard(triples[1])
    tracker.apply([], [triples[1]])
    assert np.allclose(tracker.summary(), reference_summary(encoder, graph))
    # built from a whole graph, the tracker sums in the reference's order
    assert np.array_equal(PooledGraphTracker(encoder, graph).summary(),
                          reference_summary(encoder, graph))


def test_pooled_tracker_keeps_its_summary_until_a_diff(miniz):
    encoder = small_encoder()
    graph = kg.KnowledgeGraph()
    tracker = PooledGraphTracker(encoder, graph)
    first = tracker.summary()
    tracker.apply([], [])
    assert tracker.summary() is first
    triple = kg.Triple("you", "in", "hall")
    graph.add(triple)
    tracker.apply([triple], [])
    assert np.array_equal(tracker.summary(), reference_summary(encoder, graph))
    assert not np.array_equal(tracker.summary(), first)


def test_init_params_gives_uniform_policy(miniz):
    params = init_params(miniz, SMALL)
    encoder = small_encoder()
    rng = np.random.default_rng(0)
    feats = rng.normal(0, 1, SMALL.feature_dim)
    blanks = {i: t.blanks for i, t in enumerate(miniz.templates)}
    result = act(params, feats, mask_of(params, {"mailbox", "lamp"}),
                 policy.Uniforms(rng), encoder, blanks)
    n_t = len(miniz.templates)
    log_pt = per_row_actor._log_softmax(params.w_template @ feats
                                        + params.b_template)
    assert np.allclose(log_pt, np.log(1.0 / n_t))
    assert params.w_value @ feats + params.b_value == 0.0
    assert {params.entities[f] for f in result.filler_indices} <= {
        "mailbox", "lamp"}


def test_save_load_round_trip(miniz):
    rng = np.random.default_rng(3)
    params = random_params(miniz, rng)
    blob = save_params(params)
    clone = load_params(blob)
    assert clone.templates == params.templates
    assert clone.entities == params.entities
    for name in params.ARRAYS:
        assert np.array_equal(getattr(clone, name), getattr(params, name))
    assert save_params(clone) == blob
    with pytest.raises(ValueError):
        load_params(blob.replace(b'"v":1', b'"v":9', 1))


def test_load_params_rejects_a_body_that_does_not_fit_its_shapes(miniz):
    blob = save_params(init_params(miniz))
    for bad in (blob + b"\0" * 16, blob + b"\0" * 3, blob[:-8]):
        with pytest.raises(ValueError):
            load_params(bad)


def _blob(head):
    return len(head).to_bytes(4, "big") + head


@pytest.mark.parametrize("blob", [
    b"", _blob(b"[1]"), _blob(b'{"v":1}'), _blob(b"\xff\xfe"),
    _blob(b'{"v":1,"shapes":[]}'),
    _blob(b'{"v":1,"shapes":{"w_template":4}}'),
    # shapes no body holds, so no array may be allocated for them
    _blob(json.dumps({"v": 1, "templates": [], "entities": [], "gamma": 0.9,
                      "shapes": dict.fromkeys(policy.PolicyParams.ARRAYS,
                                              [2 ** 40])}).encode()),
], ids=["empty", "list", "no-fields", "not-utf8", "shapes-list",
        "shape-int", "huge"])
def test_load_params_rejects_a_malformed_blob(blob):
    with pytest.raises(ValueError, match="malformed policy checkpoint"):
        load_params(blob)


def test_masked_sampling_stays_on_mask(miniz):
    rng = np.random.default_rng(5)
    params = random_params(miniz, rng)
    encoder = small_encoder()
    blanks = {i: t.blanks for i, t in enumerate(miniz.templates)}
    mask = {"mailbox", "egg", "north"}
    uniforms = policy.Uniforms(rng)
    for _ in range(500):
        feats = rng.normal(0, 1, SMALL.feature_dim)
        result = act(params, feats, mask_of(params, mask), uniforms, encoder,
                     blanks)
        assert not result.mask_fallback
        for f in result.filler_indices:
            assert params.entities[f] in mask


def test_empty_mask_falls_back_and_flags(miniz):
    rng = np.random.default_rng(6)
    params = random_params(miniz, rng)
    encoder = small_encoder()
    blanks = {i: t.blanks for i, t in enumerate(miniz.templates)}
    seen_fallback = False
    uniforms = policy.Uniforms(rng)
    for _ in range(50):
        feats = rng.normal(0, 1, SMALL.feature_dim)
        result = act(params, feats, mask_of(params, set()), uniforms, encoder,
                     blanks)
        if blanks[result.template_index]:
            assert result.mask_fallback
            seen_fallback = True
    assert seen_fallback


def masked(logits, mask):
    """The logits as act masks them: NEG_INF off the mask."""
    logits = logits.copy()
    logits[mask[1]] = policy.NEG_INF
    return logits


def on_mask(mask):
    """The entity indices act may draw from under mask."""
    return np.flatnonzero(~mask[1])


def test_masked_log_softmax_exact_zero_off_mask(miniz):
    rng = np.random.default_rng(8)
    entities = miniz.entities
    for _ in range(200):
        logits = rng.normal(0, 3, len(entities))
        names = set(rng.choice(entities, size=int(rng.integers(1, 20)),
                               replace=False))
        mask = policy._mask_indices(entities, names)
        probs = np.exp(per_row_actor._log_softmax(masked(logits, mask)))
        off = probs[mask[1]]
        assert np.all(off == 0.0) and off.size == len(entities) - len(names)
        assert np.isclose(probs.sum(), 1.0)


def test_greedy_action_is_deterministic(miniz):
    rng = np.random.default_rng(9)
    params = random_params(miniz, rng)
    encoder = small_encoder()
    blanks = {i: t.blanks for i, t in enumerate(miniz.templates)}
    feats = rng.normal(0, 1, SMALL.feature_dim)
    mask = mask_of(params, {"egg", "lamp"})
    first = greedy_action(params, feats, mask, encoder, blanks)
    second = greedy_action(params, feats, mask, encoder, blanks)
    assert first == second
    for f in first[1]:
        assert params.entities[f] in {"egg", "lamp"}


def test_prepare_targets_semantics(miniz):
    rng = np.random.default_rng(10)
    params = random_params(miniz, rng)
    tr = random_transition(miniz, params, small_encoder(), rng)
    tr.next_feats = None
    (target_q,), (advantage,) = prepare_targets(params, rollout_of([tr]))
    v = float(params.w_value @ tr.feats + params.b_value)
    assert target_q == tr.reward
    assert advantage == pytest.approx(tr.reward - v)


def test_analytic_gradients_match_finite_differences(miniz):
    """Central finite differences on randomly probed coordinates."""
    rng = np.random.default_rng(12)
    encoder = small_encoder()
    h = 1e-5
    worst = 0.0
    for _ in range(200):
        params = random_params(miniz, rng)
        rollout = rollout_of(random_transition(miniz, params, encoder, rng)
                             for _ in range(int(rng.integers(1, 4))))
        targets = prepare_targets(params, rollout)
        _, grads = a2c_loss_and_grads(params, rollout, targets,
                                      entropy_coef=0.01)
        vec = params.to_vector()
        flat = np.concatenate([grads[n].ravel() for n in params.ARRAYS])
        for k in rng.choice(vec.size, size=20, replace=False):
            probe = copy.deepcopy(params)
            bumped = vec.copy()
            bumped[k] += h
            probe.from_vector(bumped)
            up, _ = a2c_loss_and_grads(probe, rollout, targets,
                                       entropy_coef=0.01)
            bumped[k] -= 2 * h
            probe.from_vector(bumped)
            down, _ = a2c_loss_and_grads(probe, rollout, targets,
                                         entropy_coef=0.01)
            fd = (up - down) / (2 * h)
            an = flat[k]
            # below the FD noise floor (~eps * |loss| / h) only an
            # absolute comparison is meaningful
            if max(abs(fd), abs(an)) > 1e-3:
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an)))
            else:
                assert abs(fd - an) < 1e-8
    assert worst <= 1e-4


def reference_loss_and_grads(params, transitions, targets, encoder,
                             value_coef, entropy_coef):
    """a2c_loss_and_grads written as one loop over transitions and blanks,
    rebuilding each blank's entity context from the picks before it."""
    def entropy_terms(log_p, active_idx):
        p = np.exp(log_p[active_idx])
        plogp = p * log_p[active_idx]
        inner = plogp + p
        grad = np.zeros(log_p.shape)
        grad[active_idx] = inner - p * inner.sum()
        return plogp.sum(), grad

    grads = {n: np.zeros_like(getattr(params, n)) for n in params.ARRAYS}
    total_loss = 0.0
    n_templates = len(params.templates)
    for tr, target_q, advantage in zip(transitions, *targets):
        feats = tr.feats
        mask_idx = np.flatnonzero(~tr.off)
        log_pt = per_row_actor._log_softmax(params.w_template @ feats
                                            + params.b_template)
        pt = np.exp(log_pt)
        one_hot = np.zeros(n_templates)
        one_hot[tr.template_index] = 1.0
        total_loss += -advantage * log_pt[tr.template_index]
        d_logits = -advantage * (one_hot - pt)
        ent_loss, ent_grad = entropy_terms(log_pt, np.arange(n_templates))
        total_loss += entropy_coef * ent_loss
        d_logits += entropy_coef * ent_grad
        grads["w_template"] += np.outer(d_logits, feats)
        grads["b_template"] += d_logits

        prev = ""
        for position, e_idx in enumerate(tr.filler_indices):
            x = policy._entity_context(encoder, feats, position,
                                       params.templates[tr.template_index],
                                       prev)
            log_pe = reference_masked_log_softmax(
                params.w_entity @ x + params.b_entity, mask_idx)
            total_loss += -advantage * log_pe[e_idx]
            pe = np.exp(log_pe)
            d_e = np.zeros(len(params.entities))
            d_e[mask_idx] = -advantage * (-pe[mask_idx])
            d_e[e_idx] += -advantage
            ent_loss, ent_grad = entropy_terms(log_pe, mask_idx)
            total_loss += entropy_coef * ent_loss
            d_e += entropy_coef * ent_grad
            grads["w_entity"] += np.outer(d_e, x)
            grads["b_entity"] += d_e
            prev = params.entities[e_idx]

        v = float(params.w_value @ feats + params.b_value)
        delta = target_q - v
        total_loss += value_coef * 0.5 * delta * delta
        grads["w_value"] += value_coef * (-delta) * feats
        grads["b_value"] += value_coef * (-delta)
    return total_loss, grads


def test_batched_loss_and_grads_match_reference_loop(miniz):
    rng = np.random.default_rng(14)
    encoder = small_encoder()
    blanks = [t.blanks for t in miniz.templates]
    n_entities = len(miniz.entities)
    for _ in range(30):
        params = random_params(miniz, rng, scale=1.0)
        transitions = [random_transition(miniz, params, encoder, rng)
                       for _ in range(int(rng.integers(1, 40)))]
        # every blank count, full-vocabulary fallback masks and terminals
        for tr, t_idx in zip(transitions, (blanks.index(0), blanks.index(1),
                                           blanks.index(2))):
            tr.template_index = t_idx
            tr.filler_indices = tuple(int(np.flatnonzero(~tr.off)[-1])
                                      for _ in range(blanks[t_idx]))
            tr.contexts = decode_contexts(params, encoder, tr)
        transitions[-1].off = np.zeros(n_entities, dtype=bool)
        transitions[0].next_feats = None
        assert_batch_matches_reference_loop(params, transitions, encoder)


def assert_batch_matches_reference_loop(params, transitions, encoder):
    rollout = rollout_of(transitions)
    targets = prepare_targets(params, rollout)
    loss, grads = a2c_loss_and_grads(params, rollout, targets,
                                     entropy_coef=0.05)
    ref_loss, ref_grads = reference_loss_and_grads(
        params, transitions, targets, encoder, value_coef=0.5,
        entropy_coef=0.05)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
    for name in params.ARRAYS:
        assert grads[name].shape == getattr(params, name).shape
        np.testing.assert_allclose(grads[name], ref_grads[name],
                                   rtol=1e-12, atol=1e-12)


def test_a_batch_without_blanks_matches_reference_loop(miniz):
    """Every step takes a template without a blank, so C has no rows."""
    rng = np.random.default_rng(20)
    encoder = small_encoder()
    bare = [i for i, t in enumerate(miniz.templates) if not t.blanks]
    for _ in range(10):
        params = random_params(miniz, rng, scale=1.0)
        transitions = [random_transition(miniz, params, encoder, rng)
                       for _ in range(int(rng.integers(1, 12)))]
        for tr in transitions:
            tr.template_index = int(bare[rng.integers(len(bare))])
            tr.filler_indices = tr.contexts = ()
        assert rollout_of(transitions).contexts == []
        assert_batch_matches_reference_loop(params, transitions, encoder)


def test_a_batch_without_live_steps_matches_reference_loop(miniz):
    """Every step ends its episode, so no next features are stacked."""
    rng = np.random.default_rng(21)
    encoder = small_encoder()
    for _ in range(10):
        params = random_params(miniz, rng, scale=1.0)
        transitions = [random_transition(miniz, params, encoder, rng)
                       for _ in range(int(rng.integers(1, 12)))]
        for tr in transitions:
            tr.next_feats = None
        assert rollout_of(transitions).live == []
        assert_batch_matches_reference_loop(params, transitions, encoder)


def test_prepare_targets_matches_per_transition_values(miniz):
    rng = np.random.default_rng(15)
    params = random_params(miniz, rng)
    encoder = small_encoder()
    transitions = [random_transition(miniz, params, encoder, rng)
                   for _ in range(25)]
    for tr, target_q, advantage in zip(
            transitions, *prepare_targets(params, rollout_of(transitions))):
        v_next = 0.0 if tr.next_feats is None else \
            float(params.w_value @ tr.next_feats + params.b_value)
        v = float(params.w_value @ tr.feats + params.b_value)
        assert target_q == pytest.approx(tr.reward + params.gamma * v_next,
                                         rel=1e-12, abs=1e-12)
        assert advantage == pytest.approx(target_q - v, rel=1e-12, abs=1e-12)


# --- the actor as it was written before its per-call rebuilds were cut ------


def reference_log_softmax(logits):
    shift = logits - logits.max()
    return shift - np.log(np.exp(shift).sum())


def reference_masked_log_softmax(logits, mask_idx):
    """Log-probabilities with exactly zero mass off the mask."""
    masked = np.full(logits.shape, policy.NEG_INF)
    masked[mask_idx] = logits[mask_idx]
    shift = masked - masked.max()
    log_z = np.log(np.exp(shift).sum())
    return shift - log_z


def reference_sample(p, rng):
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def reference_entity_context(encoder, feats, position, template_pattern,
                             prev_entity):
    return np.concatenate([
        feats,
        np.array([1.0, 0.0]) if position == 0 else np.array([0.0, 1.0]),
        encoder.decode_vector("tmpl", template_pattern),
        encoder.decode_vector("ent", prev_entity if prev_entity else "<none>"),
    ])


def test_draw_is_log_softmax_exp_and_sample_bit_for_bit(miniz):
    rng = np.random.default_rng(17)
    ours, theirs = np.random.default_rng(1), np.random.default_rng(1)
    n = len(miniz.entities)
    for k in range(2000):
        logits = rng.normal(0, 1 + k % 7, int(rng.integers(1, 30)))
        assert np.array_equal(per_row_actor._log_softmax(logits),
                              reference_log_softmax(logits))
        assert per_row_actor._draw(logits, ours) == reference_sample(
            np.exp(reference_log_softmax(logits)), theirs)
        logits = rng.normal(0, 3, n)
        mask = policy._mask_indices(miniz.entities, set(rng.choice(
            miniz.entities, size=int(rng.integers(1, n + 1)), replace=False)))
        assert np.array_equal(
            per_row_actor._log_softmax(masked(logits, mask)),
            reference_masked_log_softmax(logits, on_mask(mask)))
        assert per_row_actor._draw(masked(logits, mask), ours) == \
            reference_sample(np.exp(reference_masked_log_softmax(
                logits, on_mask(mask))), theirs)
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_cached_context_tails_give_the_reference_entity_context(miniz):
    rng = np.random.default_rng(18)
    encoder = small_encoder()
    for _ in range(300):
        feats = rng.normal(0, 1, SMALL.feature_dim)
        position = int(rng.integers(0, 3))
        template = miniz.templates[int(rng.integers(len(miniz.templates)))]
        prev = "" if rng.random() < 0.3 else \
            miniz.entities[int(rng.integers(len(miniz.entities)))]
        args = (encoder, feats, position, template.pattern, prev)
        assert np.array_equal(policy._entity_context(*args),
                              reference_entity_context(*args))


def reference_act(params, feats, mask, rng, encoder, template_blanks):
    """act() drawing through rng.choice: (template, fillers, contexts)."""
    log_pt = reference_log_softmax(params.w_template @ feats
                                   + params.b_template)
    t_idx = int(rng.choice(len(log_pt), p=np.exp(log_pt)))
    mask_idx = np.array([i for i, e in enumerate(params.entities)
                         if e in mask], dtype=int)
    if mask_idx.size == 0:
        mask_idx = np.arange(len(params.entities))
    fillers, contexts = [], []
    prev = ""
    for position in range(template_blanks[t_idx]):
        x = reference_entity_context(encoder, feats, position,
                                     params.templates[t_idx], prev)
        log_pe = reference_masked_log_softmax(
            params.w_entity @ x + params.b_entity, mask_idx)
        e_idx = int(rng.choice(len(log_pe), p=np.exp(log_pe)))
        fillers.append(e_idx)
        contexts.append(x)
        prev = params.entities[e_idx]
    return t_idx, tuple(fillers), contexts


def test_act_draws_match_rng_choice(miniz):
    rng = np.random.default_rng(16)
    params = random_params(miniz, rng, scale=1.5)
    encoder = small_encoder()
    blanks = {i: t.blanks for i, t in enumerate(miniz.templates)}
    masks = [set(), {"egg"}, {"mailbox", "egg", "north", "lamp"},
             set(miniz.entities)]
    ours = policy.Uniforms(np.random.default_rng(0))
    theirs = np.random.default_rng(0)
    for k in range(2000):
        feats = rng.normal(0, 1, SMALL.feature_dim)
        mask = masks[k % len(masks)]
        result = act(params, feats, mask_of(params, mask), ours, encoder,
                     blanks)
        t_idx, fillers, contexts = reference_act(params, feats, mask, theirs,
                                                 encoder, blanks)
        assert (result.template_index, result.filler_indices) == (t_idx,
                                                                  fillers)
        assert result.mask_fallback == (not mask)
        assert len(result.contexts) == len(contexts)
        for got, want in zip(result.contexts, contexts):
            assert np.array_equal(got, want)
    assert ours.window(1)[0] == theirs.random()


BENCH = dict(batch_size=16, horizon=40, patience=1000, learning_rate=0.01,
             entropy_coef=0.05, backend="oracle")


def test_vanilla_trajectory_hash_is_pinned(miniz):
    """Recorded before the learner and actor were batched; any change to
    draws, features or updates moves it."""
    result = exploration.vanilla_train(miniz, exploration.ExplorationConfig(
        seed=0, total_steps=640, **{**BENCH, "alpha": 0.0}))
    assert result.steps_used == 640
    assert result.trajectory_hash == "b430adb55c7d18e38bcbe3011313dfa1"


def test_go_trajectory_hash_is_pinned(deceive):
    result, archive = exploration.go_train(
        deceive, exploration.ExplorationConfig(
            seed=1, total_steps=600, stop_at_max=False,
            **{**BENCH, "alpha": 2.0}))
    assert (result.steps_used, result.j_max, len(archive)) == (600, 0, 21)
    assert result.trajectory_hash == "9eccdfd3d1381a64e15da2f48f3c0fe6"


# The pins above cannot see the last bits of the acting logits: a pick
# rarely moves with them.  These digests hash every head product and cdf
# matrix the actor computes on the vanilla pin's run and on a go_deceive
# slice.
DECISION_DIGESTS = {"vanilla": "c187eba30cf0d36f12c2851567d92efe",
                    "go": "cbda2b07ab48dcb15f419f3b1ff81106"}


def decision_digest(monkeypatch, train):
    """blake2b of the bytes of every array _gemv_rows and _cdf_rows return
    while train() runs, in call order."""
    digest = hashlib.blake2b(digest_size=16)
    for name in ("_gemv_rows", "_cdf_rows"):
        def hashed(*args, real=getattr(policy, name)):
            out = real(*args)
            digest.update(out.tobytes())
            return out
        monkeypatch.setattr(policy, name, hashed)
    train()
    return digest.hexdigest()


@pytest.mark.parametrize("run", sorted(DECISION_DIGESTS))
def test_decision_digests_are_pinned(miniz, deceive, monkeypatch, run):
    if run == "vanilla":
        def train():
            exploration.vanilla_train(miniz, exploration.ExplorationConfig(
                seed=0, total_steps=640, **{**BENCH, "alpha": 0.0}))
    else:
        def train():
            exploration.go_train(deceive, exploration.ExplorationConfig(
                seed=0, total_steps=320, stop_at_max=False,
                **{**BENCH, "alpha": 2.0}))
    assert decision_digest(monkeypatch, train) == DECISION_DIGESTS[run]


# Recorded before steps that change nothing skipped the answer backend.
# Only the oracle may skip it: the rule backend reads the feedback text and
# the noisy one draws from its RNG on every call, so a skip moves these.
IMPURE_BACKEND_PINS = {"noisy": "9232de7770281e97b82c597fc696f1f1",
                       "rule": "b4764c8d8579d640c4603296e927eea7"}


@pytest.mark.parametrize("backend", sorted(IMPURE_BACKEND_PINS))
def test_impure_backend_trajectory_hashes_are_pinned(miniz, backend):
    result = exploration.vanilla_train(miniz, exploration.ExplorationConfig(
        seed=0, total_steps=2000,
        **{**BENCH, "alpha": 2.0, "backend": backend}))
    assert result.steps_used == 2000
    assert result.trajectory_hash == IMPURE_BACKEND_PINS[backend]


def test_a2c_update_moves_params_and_rejects_empty(miniz):
    rng = np.random.default_rng(13)
    params = random_params(miniz, rng)
    encoder = small_encoder()
    rollout = rollout_of(random_transition(miniz, params, encoder, rng)
                         for _ in range(8))
    before = params.to_vector()
    a2c_update(params, rollout, learning_rate=0.05)
    assert not np.array_equal(params.to_vector(), before)
    assert np.isfinite(params.to_vector()).all()
    with pytest.raises(ValueError):
        a2c_update(params, Rollout())


def test_a2c_update_stacks_the_states_once_with_the_bits_of_two_stacks(
        miniz, monkeypatch):
    """a2c_update hands one stacked X to prepare_targets and
    a2c_loss_and_grads; its step is bit for bit the one that the two
    public calls, each stacking its own X, give."""
    rng = np.random.default_rng(19)
    params = random_params(miniz, rng)
    encoder = small_encoder()
    rollout = rollout_of(random_transition(miniz, params, encoder, rng)
                         for _ in range(8))
    loss, grads = a2c_loss_and_grads(params, rollout,
                                     prepare_targets(params, rollout),
                                     entropy_coef=0.05)
    want = copy.deepcopy(params)
    for name, g in grads.items():
        getattr(want, name)[...] -= 0.05 / len(rollout) * g
    stacks = []
    real = policy._states

    def states(*args):
        stacks.append(None)
        return real(*args)

    monkeypatch.setattr(policy, "_states", states)
    assert a2c_update(params, rollout, learning_rate=0.05,
                      entropy_coef=0.05) == loss
    assert len(stacks) == 1
    assert params.to_vector().tobytes() == want.to_vector().tobytes()


def test_a2c_update_leaves_params_untouched_on_non_finite_gradient(
        miniz, monkeypatch):
    rng = np.random.default_rng(17)
    params = random_params(miniz, rng)
    encoder = small_encoder()
    rollout = rollout_of(random_transition(miniz, params, encoder, rng)
                         for _ in range(4))
    real = policy.a2c_loss_and_grads

    def last_gradient_nan(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        grads["b_value"] = np.array(np.nan)
        return loss, grads

    monkeypatch.setattr(policy, "a2c_loss_and_grads", last_gradient_nan)
    before = params.to_vector()
    with pytest.raises(FloatingPointError):
        a2c_update(params, rollout)
    assert np.array_equal(params.to_vector(), before)


def test_a2c_update_leaves_params_untouched_on_non_finite_update(miniz):
    """A finite gradient times a learning rate can still overflow; no array
    is written then, and the error names the first one that would be."""
    rng = np.random.default_rng(17)
    params = random_params(miniz, rng)
    encoder = small_encoder()
    rollout = rollout_of(random_transition(miniz, params, encoder, rng)
                         for _ in range(4))
    before = params.to_vector()
    with pytest.raises(FloatingPointError,
                       match="^non-finite update of w_template$"):
        a2c_update(params, rollout, learning_rate=float("inf"))
    assert params.to_vector().tobytes() == before.tobytes()
