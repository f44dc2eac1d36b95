"""questkg: deterministic text-adventure engine with knowledge-graph agents.

Subsystems:
  gamedef / engine   game definition format and the deterministic POMDP
  search             exhaustive oracle (reachability, walkthroughs)
  questgraph         quest dependency DAGs and bottleneck extraction
  kg                 triple store, intrinsic motivation, reward shaping
  extraction         QA-style answer backends and dataset emission
  policy             linear actor-critic with graph masking
  exploration        structured exploration, policy chaining, Go-Explore
  cli                experiment runner
"""

from .gamedef import GameDef, GameParseError, GameValidationError, load_game
from .engine import (GroundedAction, Observation, WorldState,
                     admissible_actions, enumerate_grounded, ground, reset,
                     restore, snapshot, step)
from .games import load_bundled
from .kg import GlobalEdgeSet, KnowledgeGraph, Triple, kg_hash, shaped_reward
from .questgraph import (DependencyGraph, DepVertex, bottlenecks,
                         topological_levels, validate_against_game)

__all__ = [
    "GameDef", "GameParseError", "GameValidationError", "load_game",
    "GroundedAction", "Observation", "WorldState", "admissible_actions",
    "enumerate_grounded", "ground", "reset", "restore", "snapshot", "step",
    "load_bundled",
    "GlobalEdgeSet", "KnowledgeGraph", "Triple", "kg_hash", "shaped_reward",
    "DependencyGraph", "DepVertex", "bottlenecks", "topological_levels",
    "validate_against_game",
]

__version__ = "0.1.0"
