"""The per-row sampling actor, as it was before act_batch became the one
decoder: one state per call, drawing each pick's uniform from a numpy
Generator with numpy's own choice recipe.  The tests hold act_batch to it
bit for bit, and hold it to Generator.choice."""

import numpy as np

from questkg.policy import NEG_INF, ActResult, _entity_context


def _log_softmax(logits):
    shift = logits - np.maximum.reduce(logits)
    return shift - np.log(np.add.reduce(np.exp(shift)))


def _cdf(logits):
    """The cdf Generator.choice builds from p = softmax(logits): the running
    sum of p, divided by its last entry.  The reductions are called as
    ufunc methods, which skips the array methods' dispatch but not one
    operation."""
    cdf = np.add.accumulate(np.exp(_log_softmax(logits)))
    cdf /= cdf[-1]
    return cdf


def _draw(logits, rng):
    """Draw an index with probabilities softmax(logits).

    This is rng.choice(len(p), p=np.exp(_log_softmax(logits))) without its
    argument validation: the same cdf, the same single rng.random() draw
    and the same search, so it returns the same index and leaves the
    generator in the same state.
    """
    return int(_cdf(logits).searchsorted(rng.random(), side="right"))


def _decode(params, feats, off, encoder, template_blanks, pick, rng):
    """Pick a template, then a filler for each of its blanks with the
    entities in off set to NEG_INF; pick(logits, rng) chooses an index.
    Returns (template index, fillers, each blank's entity context)."""
    t_idx = pick(params.w_template @ feats + params.b_template, rng)
    template = params.templates[t_idx]
    fillers, contexts = [], []
    prev = ""
    for position in range(template_blanks[t_idx]):
        x = _entity_context(encoder, feats, position, template, prev)
        logits = params.w_entity @ x + params.b_entity
        logits[off] = NEG_INF
        e_idx = pick(logits, rng)
        fillers.append(e_idx)
        contexts.append(x)
        prev = params.entities[e_idx]
    return t_idx, tuple(fillers), tuple(contexts)


def act(params, feats, mask, rng, encoder, template_blanks):
    """Sample a factored action.

    mask is _mask_indices(params.entities, permitted entity set), which
    the caller keeps while the set is unchanged; template_blanks maps
    template index -> blank count.  Masked-out entities receive exactly zero
    probability; an empty mask falls back to the full vocabulary and is
    flagged on the result.  Draws are those of rng.choice (see _draw).
    """
    fallback, off = mask
    t_idx, fillers, contexts = _decode(params, feats, off, encoder,
                                       template_blanks, _draw, rng)
    return ActResult(t_idx, fillers, fallback, contexts)
