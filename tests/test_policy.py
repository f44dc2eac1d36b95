import numpy as np
import pytest

from questkg import engine, exploration, kg, policy
from questkg.policy import (EncoderConfig, PooledGraphTracker, StateEncoder,
                            Transition, a2c_loss_and_grads, a2c_update, act,
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


def random_transition(game, params, encoder, rng):
    feat = SMALL.feature_dim
    n_entities = len(params.entities)
    t_idx = int(rng.integers(len(params.templates)))
    blanks = game.templates[t_idx].blanks
    size = int(rng.integers(1, n_entities + 1))
    mask_idx = np.sort(rng.choice(n_entities, size=size, replace=False))
    fillers = tuple(int(mask_idx[rng.integers(len(mask_idx))])
                    for _ in range(blanks))
    terminal = rng.random() < 0.3
    return Transition(
        feats=rng.normal(0, 1, feat),
        template_index=t_idx,
        filler_indices=fillers,
        mask_idx=mask_idx,
        template_pattern=params.templates[t_idx],
        reward=float(rng.normal(0, 2)),
        next_feats=None if terminal else rng.normal(0, 1, feat),
    )


def test_encoder_is_deterministic(miniz):
    a, b = small_encoder(), small_encoder()
    graph = kg.KnowledgeGraph([kg.Triple("you", "in", "hall")])
    state, obs, _ = engine.reset(miniz)
    assert np.array_equal(a.encode(obs, graph), b.encode(obs, graph))
    assert a.encode(obs, graph).shape == (SMALL.feature_dim,)


def test_pooled_tracker_mirrors_graph_summary(miniz):
    encoder = small_encoder()
    graph = kg.KnowledgeGraph()
    tracker = PooledGraphTracker(encoder, graph)
    triples = [kg.Triple("you", "in", "hall"),
               kg.Triple("hall", "has", "coin"),
               kg.Triple("coin", "is", "portable")]
    for t in triples:
        graph.add(t)
        tracker.apply([t], [])
    assert np.allclose(tracker.summary(), encoder.graph_summary(graph))
    graph.discard(triples[1])
    tracker.apply([], [triples[1]])
    assert np.allclose(tracker.summary(), encoder.graph_summary(graph))


def test_init_params_gives_uniform_policy(miniz):
    params = init_params(miniz, SMALL)
    encoder = small_encoder()
    rng = np.random.default_rng(0)
    feats = rng.normal(0, 1, SMALL.feature_dim)
    blanks = {i: t.blanks for i, t in enumerate(miniz.templates)}
    result = act(params, feats, {"mailbox", "lamp"}, rng, encoder, blanks)
    n_t = len(miniz.templates)
    assert result.log_prob <= np.log(1.0 / n_t) + 1e-9
    assert result.value == 0.0


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


def test_masked_sampling_stays_on_mask(miniz):
    rng = np.random.default_rng(5)
    params = random_params(miniz, rng)
    encoder = small_encoder()
    blanks = {i: t.blanks for i, t in enumerate(miniz.templates)}
    mask = {"mailbox", "egg", "north"}
    for _ in range(500):
        feats = rng.normal(0, 1, SMALL.feature_dim)
        result = act(params, feats, mask, rng, encoder, blanks)
        assert not result.mask_fallback
        for f in result.filler_indices:
            assert params.entities[f] in mask


def test_empty_mask_falls_back_and_flags(miniz):
    rng = np.random.default_rng(6)
    params = random_params(miniz, rng)
    encoder = small_encoder()
    blanks = {i: t.blanks for i, t in enumerate(miniz.templates)}
    seen_fallback = False
    for _ in range(50):
        feats = rng.normal(0, 1, SMALL.feature_dim)
        result = act(params, feats, set(), rng, encoder, blanks)
        if blanks[result.template_index]:
            assert result.mask_fallback
            seen_fallback = True
    assert seen_fallback


def test_masked_log_softmax_exact_zero_off_mask():
    rng = np.random.default_rng(8)
    for _ in range(200):
        logits = rng.normal(0, 3, 20)
        mask_idx = np.sort(rng.choice(20, size=int(rng.integers(1, 20)),
                                      replace=False))
        probs = np.exp(policy._masked_log_softmax(logits, mask_idx))
        off = np.delete(probs, mask_idx)
        assert np.all(off == 0.0)
        assert np.isclose(probs.sum(), 1.0)


def test_greedy_action_is_deterministic(miniz):
    rng = np.random.default_rng(9)
    params = random_params(miniz, rng)
    encoder = small_encoder()
    blanks = {i: t.blanks for i, t in enumerate(miniz.templates)}
    feats = rng.normal(0, 1, SMALL.feature_dim)
    first = greedy_action(params, feats, {"egg", "lamp"}, encoder, blanks)
    second = greedy_action(params, feats, {"egg", "lamp"}, encoder, blanks)
    assert first == second
    for f in first[1]:
        assert params.entities[f] in {"egg", "lamp"}


def test_prepare_targets_semantics(miniz):
    rng = np.random.default_rng(10)
    params = random_params(miniz, rng)
    tr = random_transition(miniz, params, small_encoder(), rng)
    tr.next_feats = None
    prepare_targets(params, [tr])
    v = float(params.w_value @ tr.feats + params.b_value)
    assert tr.target_q == tr.reward
    assert tr.advantage == pytest.approx(tr.reward - v)


def test_analytic_gradients_match_finite_differences(miniz):
    """Central finite differences on randomly probed coordinates."""
    rng = np.random.default_rng(12)
    encoder = small_encoder()
    h = 1e-5
    worst = 0.0
    for _ in range(200):
        params = random_params(miniz, rng)
        transitions = [random_transition(miniz, params, encoder, rng)
                       for _ in range(int(rng.integers(1, 4)))]
        prepare_targets(params, transitions)
        _, grads = a2c_loss_and_grads(params, transitions, encoder,
                                      value_coef=0.5, entropy_coef=0.01)
        vec = params.to_vector()
        flat = np.concatenate([grads[n].ravel() for n in params.ARRAYS])
        for k in rng.choice(vec.size, size=20, replace=False):
            probe = params.copy()
            bumped = vec.copy()
            bumped[k] += h
            probe.from_vector(bumped)
            up, _ = a2c_loss_and_grads(probe, transitions, encoder,
                                       value_coef=0.5, entropy_coef=0.01)
            bumped[k] -= 2 * h
            probe.from_vector(bumped)
            down, _ = a2c_loss_and_grads(probe, transitions, encoder,
                                         value_coef=0.5, entropy_coef=0.01)
            fd = (up - down) / (2 * h)
            an = flat[k]
            # below the FD noise floor (~eps * |loss| / h) only an
            # absolute comparison is meaningful
            if max(abs(fd), abs(an)) > 1e-3:
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an)))
            else:
                assert abs(fd - an) < 1e-8
    assert worst <= 1e-4


def reference_loss_and_grads(params, transitions, encoder, value_coef,
                             entropy_coef):
    """a2c_loss_and_grads written as one loop over transitions and blanks."""
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
    for tr in transitions:
        feats = tr.feats
        log_pt = policy._log_softmax(params.w_template @ feats
                                     + params.b_template)
        pt = np.exp(log_pt)
        one_hot = np.zeros(n_templates)
        one_hot[tr.template_index] = 1.0
        total_loss += -tr.advantage * log_pt[tr.template_index]
        d_logits = -tr.advantage * (one_hot - pt)
        ent_loss, ent_grad = entropy_terms(log_pt, np.arange(n_templates))
        total_loss += entropy_coef * ent_loss
        d_logits += entropy_coef * ent_grad
        grads["w_template"] += np.outer(d_logits, feats)
        grads["b_template"] += d_logits

        prev = ""
        for position, e_idx in enumerate(tr.filler_indices):
            x = policy._entity_context(encoder, feats, position,
                                       tr.template_pattern, prev)
            log_pe = policy._masked_log_softmax(
                params.w_entity @ x + params.b_entity, tr.mask_idx)
            total_loss += -tr.advantage * log_pe[e_idx]
            pe = np.exp(log_pe)
            d_e = np.zeros(len(params.entities))
            d_e[tr.mask_idx] = -tr.advantage * (-pe[tr.mask_idx])
            d_e[e_idx] += -tr.advantage
            ent_loss, ent_grad = entropy_terms(log_pe, tr.mask_idx)
            total_loss += entropy_coef * ent_loss
            d_e += entropy_coef * ent_grad
            grads["w_entity"] += np.outer(d_e, x)
            grads["b_entity"] += d_e
            prev = params.entities[e_idx]

        v = float(params.w_value @ feats + params.b_value)
        delta = tr.target_q - v
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
            tr.template_pattern = params.templates[t_idx]
            tr.filler_indices = tuple(int(tr.mask_idx[-1])
                                      for _ in range(blanks[t_idx]))
        transitions[-1].mask_idx = np.arange(n_entities)
        transitions[0].next_feats = None
        prepare_targets(params, transitions)
        loss, grads = a2c_loss_and_grads(params, transitions, encoder,
                                         value_coef=0.5, entropy_coef=0.05)
        ref_loss, ref_grads = reference_loss_and_grads(
            params, transitions, encoder, value_coef=0.5, entropy_coef=0.05)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
        for name in params.ARRAYS:
            assert grads[name].shape == getattr(params, name).shape
            np.testing.assert_allclose(grads[name], ref_grads[name],
                                       rtol=1e-12, atol=1e-12)


def test_prepare_targets_matches_per_transition_values(miniz):
    rng = np.random.default_rng(15)
    params = random_params(miniz, rng)
    encoder = small_encoder()
    transitions = [random_transition(miniz, params, encoder, rng)
                   for _ in range(25)]
    prepare_targets(params, transitions)
    for tr in transitions:
        v_next = 0.0 if tr.next_feats is None else \
            float(params.w_value @ tr.next_feats + params.b_value)
        v = float(params.w_value @ tr.feats + params.b_value)
        assert tr.target_q == pytest.approx(tr.reward + params.gamma * v_next,
                                            rel=1e-12, abs=1e-12)
        assert tr.advantage == pytest.approx(tr.target_q - v,
                                             rel=1e-12, abs=1e-12)


def reference_act(params, feats, mask, rng, encoder, template_blanks):
    """act() drawing through rng.choice: (template, fillers, log_prob)."""
    log_pt = policy._log_softmax(params.w_template @ feats
                                 + params.b_template)
    t_idx = int(rng.choice(len(log_pt), p=np.exp(log_pt)))
    log_prob = log_pt[t_idx]
    mask_idx = np.array([i for i, e in enumerate(params.entities)
                         if e in mask], dtype=int)
    if mask_idx.size == 0:
        mask_idx = np.arange(len(params.entities))
    fillers = []
    prev = ""
    for position in range(template_blanks[t_idx]):
        x = policy._entity_context(encoder, feats, position,
                                   params.templates[t_idx], prev)
        log_pe = policy._masked_log_softmax(
            params.w_entity @ x + params.b_entity, mask_idx)
        e_idx = int(rng.choice(len(log_pe), p=np.exp(log_pe)))
        log_prob += log_pe[e_idx]
        fillers.append(e_idx)
        prev = params.entities[e_idx]
    return t_idx, tuple(fillers), float(log_prob)


def test_act_draws_match_rng_choice(miniz):
    rng = np.random.default_rng(16)
    params = random_params(miniz, rng, scale=1.5)
    encoder = small_encoder()
    blanks = {i: t.blanks for i, t in enumerate(miniz.templates)}
    masks = [set(), {"egg"}, {"mailbox", "egg", "north", "lamp"},
             set(miniz.entities)]
    ours, theirs = np.random.default_rng(0), np.random.default_rng(0)
    for k in range(2000):
        feats = rng.normal(0, 1, SMALL.feature_dim)
        mask = masks[k % len(masks)]
        result = act(params, feats, mask, ours, encoder, blanks)
        expected = reference_act(params, feats, mask, theirs, encoder, blanks)
        assert (result.template_index, result.filler_indices,
                result.log_prob) == expected
        assert result.mask_fallback == (not mask)
        assert set(result.mask_idx.tolist()) == (
            set(range(len(miniz.entities))) if not mask else
            {i for i, e in enumerate(miniz.entities) if e in mask})
    assert ours.random() == theirs.random()


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
    assert (result.steps_used, result.j_max, len(archive)) == (600, 90, 47)
    assert result.trajectory_hash == "a0616c10ac18f41899b418e50a4c170f"


def test_a2c_update_moves_params_and_rejects_empty(miniz):
    rng = np.random.default_rng(13)
    params = random_params(miniz, rng)
    encoder = small_encoder()
    transitions = [random_transition(miniz, params, encoder, rng)
                   for _ in range(8)]
    before = params.to_vector()
    a2c_update(params, transitions, encoder, learning_rate=0.05)
    assert not np.array_equal(params.to_vector(), before)
    assert params.finite()
    with pytest.raises(ValueError):
        a2c_update(params, [], encoder)


def test_a2c_update_leaves_params_untouched_on_non_finite_gradient(
        miniz, monkeypatch):
    rng = np.random.default_rng(17)
    params = random_params(miniz, rng)
    encoder = small_encoder()
    transitions = [random_transition(miniz, params, encoder, rng)
                   for _ in range(4)]
    real = policy.a2c_loss_and_grads

    def last_gradient_nan(*args, **kwargs):
        loss, grads = real(*args, **kwargs)
        grads["b_value"] = np.array(np.nan)
        return loss, grads

    monkeypatch.setattr(policy, "a2c_loss_and_grads", last_gradient_nan)
    before = params.to_vector()
    with pytest.raises(FloatingPointError):
        a2c_update(params, transitions, encoder)
    assert np.array_equal(params.to_vector(), before)
