"""The three benchmark workloads and how a run seed becomes their inputs.

Every workload uses the acceptance suite's BENCH settings (batch 16, horizon
40, patience 1000, lr 0.01, entropy 0.05, oracle backend) and is a closed
loop: one process makes one training call at a time.  `total_steps` and
`seeds_per_run` size a run to the benchmark's time budget; why each
workload is here is in BENCHMARK.json and, at length, in meta.json.
"""

from __future__ import annotations

from dataclasses import dataclass, field

BENCH = dict(batch_size=16, horizon=40, patience=1000, learning_rate=0.01,
             entropy_coef=0.05, backend="oracle")


@dataclass(frozen=True)
class Workload:
    name: str
    game: str
    strategy: str          # "mc" | "vanilla" | "go"
    total_steps: int
    seeds_per_run: int
    overrides: dict = field(default_factory=dict)

    def seeds(self, run_seed):
        """Exploration seeds for one benchmark run: a block of consecutive
        seeds, so distinct run seeds never share an input."""
        return [run_seed * self.seeds_per_run + i
                for i in range(self.seeds_per_run)]

    def config(self, seed):
        from questkg.exploration import ExplorationConfig
        return ExplorationConfig(seed=seed, total_steps=self.total_steps,
                                 **{**BENCH, **self.overrides})

    def train(self, game, seed):
        """One training call.  Returns (TrainResult, archive size or None)."""
        from questkg import exploration
        cfg = self.config(seed)
        if self.strategy == "mc":
            return exploration.mc_train(game, cfg), None
        if self.strategy == "vanilla":
            return exploration.vanilla_train(game, cfg), None
        result, archive = exploration.go_train(game, cfg)
        return result, len(archive)


# mc_miniz needs 20k steps per call for stagnation (patience 1000 per
# instance, batch 16) to trigger backtracking on some seeds.
WORKLOADS = {w.name: w for w in (
    Workload(
        "mc_miniz", "miniz", "mc", total_steps=20_000, seeds_per_run=4,
        overrides=dict(alpha=2.0)),
    Workload(
        "vanilla_miniz", "miniz", "vanilla", total_steps=4_000,
        seeds_per_run=4, overrides=dict(alpha=0.0, patience=None)),
    Workload(
        "go_deceive", "deceive", "go", total_steps=4_000, seeds_per_run=8,
        overrides=dict(alpha=2.0, stop_at_max=False)),
)}
