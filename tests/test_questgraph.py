import itertools

import numpy as np
import pytest

from questkg.gamedef import load_game
from questkg.questgraph import (CycleError, DependencyGraph, DepVertex,
                                bottlenecks, topological_levels,
                                validate_against_game)


def make_graph(n, edges, rewards):
    vertices = {str(i): DepVertex(id=str(i), reward=rewards.get(i, 0))
                for i in range(n)}
    return DependencyGraph(vertices=vertices,
                           edges=frozenset((str(u), str(v)) for u, v in edges))


def naive_levels(graph):
    """Independent leveling: longest path from any source, by memoized DFS."""
    preds = {v: [] for v in graph.vertices}
    for u, v in graph.edges:
        preds[v].append(u)
    depth = {}

    def rank(v, trail):
        if v in trail:
            raise CycleError(list(trail) + [v])
        if v in depth:
            return depth[v]
        if not preds[v]:
            depth[v] = 0
        else:
            depth[v] = 1 + max(rank(u, trail | {v}) for u in preds[v])
        return depth[v]

    for v in graph.vertices:
        rank(v, frozenset())
    if not graph.vertices:
        return []
    out = [set() for _ in range(max(depth.values()) + 1)]
    for v, k in depth.items():
        out[k].add(v)
    return out


def naive_bottlenecks(graph):
    """Direct set-builder evaluation of the bottleneck definition."""
    levels = naive_levels(graph)
    result = set()
    for i, level in enumerate(levels):
        if len(level) != 1:
            continue
        above = any(graph.vertices[s].reward != 0
                    for j in range(i + 1, len(levels)) for s in levels[j])
        if above:
            result.update(level)
    return result


def test_empty_graph():
    graph = make_graph(0, [], {})
    assert topological_levels(graph) == []
    assert bottlenecks(graph) == set()


def test_linear_chain_all_but_last_are_bottlenecks():
    graph = make_graph(4, [(0, 1), (1, 2), (2, 3)], {3: 10})
    assert bottlenecks(graph) == {"0", "1", "2"}


def test_no_reward_means_no_bottlenecks():
    graph = make_graph(4, [(0, 1), (1, 2), (2, 3)], {})
    assert bottlenecks(graph) == set()


def test_wide_level_is_never_a_bottleneck():
    graph = make_graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)], {3: 5})
    assert bottlenecks(graph) == {"0"}


def assert_closed_cycle(witness, graph):
    assert len(witness) >= 2 and witness[0] == witness[-1]
    assert len(set(witness)) == len(witness) - 1
    assert all(edge in graph.edges for edge in zip(witness, witness[1:]))


def test_cycle_raises_with_witness():
    graph = make_graph(3, [(0, 1), (1, 2), (2, 0)], {})
    with pytest.raises(CycleError) as exc:
        topological_levels(graph)
    assert exc.value.witness == ["0", "1", "2", "0"]
    graph = make_graph(2, [(0, 1), (1, 1)], {})
    with pytest.raises(CycleError) as exc:
        topological_levels(graph)
    assert exc.value.witness == ["1", "1"]


def test_cycle_witness_is_a_closed_cycle_in_edge_order():
    rng = np.random.default_rng(11)
    cyclic = 0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        edges = {(int(rng.integers(n)), int(rng.integers(n)))
                 for _ in range(int(rng.integers(0, 14)))}
        graph = make_graph(n, edges, {})
        try:
            naive_levels(graph)
        except CycleError:
            cyclic += 1
            with pytest.raises(CycleError) as exc:
                topological_levels(graph)
            assert_closed_cycle(exc.value.witness, graph)
        else:
            assert topological_levels(graph) == naive_levels(graph)
    assert cyclic > 100


def test_levels_match_naive_on_random_graphs():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        order = rng.permutation(n)
        edges = [(int(order[i]), int(order[j]))
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.3]
        graph = make_graph(n, edges, {})
        assert topological_levels(graph) == naive_levels(graph)


def test_bottlenecks_match_naive_on_random_graphs():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        order = rng.permutation(n)
        edges = [(int(order[i]), int(order[j]))
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.3]
        rewards = {i: int(r) for i, r in
                   enumerate(rng.choice([0, 0, 0, 5, 10], size=n))}
        graph = make_graph(n, edges, rewards)
        assert bottlenecks(graph) == naive_bottlenecks(graph)


def test_bottlenecks_match_naive_exhaustively_up_to_five_vertices():
    reward_patterns = [
        lambda n: {},
        lambda n: {n - 1: 10},
        lambda n: {0: 5},
        lambda n: {i: 5 for i in range(n)},
    ]
    for n in range(0, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for bits in range(2 ** len(pairs)):
            edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
            for pattern in reward_patterns:
                graph = make_graph(n, edges, pattern(n))
                assert bottlenecks(graph) == naive_bottlenecks(graph)


def test_miniz_bottlenecks(miniz):
    necks = bottlenecks(miniz.dag)
    assert "behind-house" in necks
    assert "cellar" in necks
    assert "painting" not in necks


def test_chainworld_bottlenecks_are_all_non_final(chainworld):
    levels = topological_levels(chainworld.dag)
    final = levels[-1]
    expected = set(chainworld.dag.vertices) - final
    assert bottlenecks(chainworld.dag) == expected


def test_validate_against_game_accepts_bundled(miniz, chainworld, deceive):
    for game in (miniz, chainworld, deceive):
        assert validate_against_game(game.dag, game) == []


def test_validate_flags_undefined_and_unreachable():
    text = """\
questgame 1
[meta]
name broken
start hall
max-score 1
[room hall]
name Hall
desc A hall.
[object gem]
name gem
loc hall
attrs portable
[templates]
take ___
[event gem-score]
when carrying gem
reward 1
[dag]
vertex a loc=hall
vertex ghost loc=nowhere
edge a ghost
"""
    game = load_game(text)
    assert validate_against_game(game.dag, game) == [
        "vertex 'ghost' depends on undefined room 'nowhere'"]
