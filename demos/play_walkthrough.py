"""Play a bundled game's optimal walkthrough and print the transcript.

Run with: python demos/play_walkthrough.py [game]
"""

import sys

from questkg import engine, games, search


def main():
    name = sys.argv[1] if len(sys.argv) > 1 else "miniz"
    game = games.load_path(name)
    actions, best = search.walkthrough(game)
    print(f"=== {game.name}: {len(actions)} actions to score {best} ===\n")

    state, obs, initial = engine.reset(game)
    print(obs.desc)
    for action in actions:
        state, obs, reward, done, _ = engine.step_movement(state, action, game)
        marker = f"  (+{reward})" if reward else ""
        print(f"\n> {action.text}{marker}")
        print(obs.feedback)
        if done:
            break
    print(f"\nFinal score: {state.score}/{game.max_score} "
          f"in {state.turn} turns")


if __name__ == "__main__":
    main()
