"""Quest dependency DAGs: topological leveling and bottleneck extraction.

A vertex carries location dependencies, inventory dependencies, and a reward.
Levels are assigned by longest path from any source, which makes vertices
within a level mutually independent and gives a canonical, order-independent
leveling.  A bottleneck is a vertex that is the sole member of its level with
some positively-rewarded vertex in a strictly higher level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gamedef import GameValidationError


class CycleError(GameValidationError):
    """Raised when a graph expected to be acyclic contains a cycle; a game
    file whose [dag] is cyclic fails validation with it."""

    def __init__(self, witness):
        self.witness = list(witness)
        super().__init__("cycle detected: " + " -> ".join(self.witness))


@dataclass(frozen=True)
class DepVertex:
    id: str
    locations: frozenset[str] = frozenset()
    items: frozenset[str] = frozenset()
    reward: int = 0


@dataclass(frozen=True)
class DependencyGraph:
    vertices: dict[str, DepVertex]
    edges: frozenset[tuple[str, str]]


def topological_levels(graph):
    """Partition vertices into levels by longest path from any source.

    Returns a list of sets of vertex ids; level k holds every vertex whose
    longest path from a source has length k.  Raises CycleError naming a
    witness when the graph is cyclic.
    """
    indegree = {v: 0 for v in graph.vertices}
    adjacency = {v: [] for v in graph.vertices}
    for u, v in sorted(graph.edges):
        adjacency[u].append(v)
        indegree[v] += 1

    rank = {v: 0 for v in graph.vertices}
    frontier = [v for v in sorted(graph.vertices) if indegree[v] == 0]
    order = []
    while frontier:
        node = frontier.pop()
        order.append(node)
        for nxt in adjacency[node]:
            rank[nxt] = max(rank[nxt], rank[node] + 1)
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                frontier.append(nxt)
    if len(order) < len(graph.vertices):
        # every vertex the loop left unprocessed has an unprocessed parent:
        # walk such parents back until one repeats
        node = min(v for v in graph.vertices if indegree[v])
        path = []
        while node not in path:
            path.append(node)
            node = min(u for u, v in graph.edges if v == node and indegree[u])
        raise CycleError((path[path.index(node):] + [node])[::-1])

    if not graph.vertices:
        return []
    depth = max(rank.values())
    levels = [set() for _ in range(depth + 1)]
    for v, k in rank.items():
        levels[k].add(v)
    return levels


def bottlenecks(graph):
    """Vertices that are sole members of their level with reward above them."""
    levels = topological_levels(graph)
    rewarded_above = False
    result = set()
    # Walk levels from the top down so "reward strictly above" is a suffix scan.
    for level in reversed(levels):
        if len(level) == 1 and rewarded_above:
            result.update(level)
        if any(graph.vertices[v].reward != 0 for v in level):
            rewarded_above = True
    return result


def validate_against_game(graph, game):
    """Check every vertex is attainable in the engine and rewards are mapped.

    A vertex is attainable when the search oracle reaches a state located in
    one of its location dependencies while carrying all its inventory
    dependencies.  Each non-zero vertex reward must match some authored
    reward event's points.  Returns the list of problems found, empty when
    the graph is consistent with the game.
    """
    from .search import explore

    problems = []
    for v in graph.vertices.values():
        for room in sorted(v.locations):
            if room not in game.rooms:
                problems.append(
                    f"vertex {v.id!r} depends on undefined room {room!r}")
        for item in sorted(v.items):
            if item not in game.objects:
                problems.append(
                    f"vertex {v.id!r} depends on undefined object {item!r}")
    if problems:
        return problems

    event_points = {e.points for e in game.events}
    for v in graph.vertices.values():
        if v.reward and v.reward not in event_points:
            problems.append(
                f"vertex {v.id!r} reward {v.reward} matches no reward event")

    reached = explore(game)
    for v in sorted(graph.vertices.values(), key=lambda x: x.id):
        if _attainable(v, reached):
            continue
        problems.append(f"vertex {v.id!r} is unreachable in the engine")
    return problems


def _attainable(vertex, reached):
    for info in reached:
        if vertex.locations and info.room not in vertex.locations:
            continue
        if not vertex.items <= info.inventory:
            continue
        return True
    return False
