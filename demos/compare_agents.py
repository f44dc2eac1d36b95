"""Compare exploration strategies on a small budget.

Trains a vanilla agent, a modular agent with intrinsic motivation, and a
cell-archive baseline on miniz, then prints the learning outcome and the
modular agent's chain modules.  The vanilla agent tends to stall at the
kitchen while the modular agent backtracks its way into the cellar.

Run with: python demos/compare_agents.py
"""

from questkg import exploration, games
from questkg.exploration import ExplorationConfig


def main():
    game = games.load_bundled("miniz")
    base = dict(total_steps=40_000, batch_size=8, horizon=30,
                learning_rate=0.01, entropy_coef=0.05)

    print(f"=== {game.name} (max score {game.max_score}) ===\n")
    results = {}
    for seed in (0, 1, 2):
        cfg = ExplorationConfig(seed=seed, alpha=0.0, patience=None, **base)
        results.setdefault("vanilla", []).append(
            exploration.vanilla_train(game, cfg))
        cfg = ExplorationConfig(seed=seed, alpha=2.0, patience=500, **base)
        results.setdefault("mc+im", []).append(
            exploration.mc_train(game, cfg))
        results.setdefault("go", []).append(
            exploration.go_train(game, cfg)[0])

    for name, runs in results.items():
        scores = [r.j_max for r in runs]
        steps = [r.steps_used for r in runs]
        print(f"{name:8s} best scores {scores}  steps used {steps}")

    chain = results["mc+im"][0].chain
    if chain is not None:
        print("\nChain modules of the first mc+im run:")
        for module in chain.modules:
            print(f"  module of {len(module.actions)} actions, "
                  f"handoff score {module.handoff_score}")
        trajectory, score, digest = exploration.execute_chain(chain, game)
        print(f"replayed to score {score} "
              f"({len(trajectory)} actions, hash {digest})")


if __name__ == "__main__":
    main()
