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
