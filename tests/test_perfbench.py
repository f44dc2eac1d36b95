"""The benchmark's tracer still fits the code it wraps.

perfbench/run.py wraps questkg functions by name from outside the package;
a renamed or removed function makes its traced pass raise KeyError, and a
call through a local alias silently escapes the count.  The benchmark files
are loaded by path and are not modified.
"""

import dataclasses
import importlib.util
from dataclasses import replace
import sys
from pathlib import Path

import pytest

from questkg import engine, exploration, games
from questkg.exploration import ExplorationConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CONFIG = ExplorationConfig(seed=0, total_steps=1500, batch_size=4, horizon=25,
                           patience=200, alpha=2.0, learning_rate=0.01,
                           entropy_coef=0.05)
# short enough to run under the tracer, and miniz stagnates within it
SHORT = replace(CONFIG, total_steps=600, patience=50)


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_without_changing_trajectories(chainworld):
    run, spans = load("run"), load("spans")
    untraced = exploration.mc_train(chainworld, CONFIG)
    original = engine.step_movement
    tracer = spans.Tracer()
    try:
        run.install(tracer)
        traced = exploration.mc_train(chainworld, CONFIG)
        exploration.execute_chain(traced.chain, chainworld, CONFIG)
        # short runs that give every other hook, observers included, calls
        tracer.run_id = 1
        miniz = games.load_bundled("miniz")
        backtracked = exploration.mc_train(miniz, SHORT)
        vanilla = exploration.vanilla_train(miniz, replace(SHORT, alpha=0.0))
        go, _ = exploration.go_train(games.load_bundled("deceive"), SHORT)
    finally:
        tracer.unwrap_all()
    assert engine.step_movement is original
    assert traced.trajectory_hash == untraced.trajectory_hash
    assert backtracked.trajectory_hash == \
        exploration.mc_train(miniz, SHORT).trajectory_hash
    stats, overfull = tracer.per_name()
    assert overfull == 0
    assert [name for name in run.LAYERS if stats[name][0] == 0] == []
    # the observer reads backtrack's improvement as result[2]
    assert backtracked.backtracks > 0
    assert tracer.counts["backtrack.successes"] == \
        traced.backtracks + backtracked.backtracks
    # the observers read a2c_update's batch as args[1] and act's result;
    # every trained transition is a step, and a fallback is an act call
    steps = sum(r.steps_used for r in (traced, backtracked, vanilla, go))
    assert 0 < tracer.counts["a2c_update.transitions"] <= steps
    assert tracer.counts["act.fallbacks"] <= stats["policy.act"][0]
    first = range(1)        # the chainworld run and its replay
    assert tracer.calls_in_runs("exploration.mc_train", first) == 1
    assert tracer.calls_in_runs("engine.step_movement", first) > 0
    assert tracer.calls_in_runs("exploration.shorten_trajectory", first) > 0
    # build_chain checks the chain it distils with execute_chain
    assert tracer.calls_in_runs("exploration.execute_chain", first) == 2
    # one pass: shorten_trajectory steps its env once per recorded action
    # at most
    assert 0 < tracer.child_calls(
        "exploration.AgentEnv.step", "exploration.shorten_trajectory") <= \
        tracer.counts["shorten_trajectory.actions_in"]
    # and that walk is the only one: the buffer is cut from its path
    assert tracer.child_calls(
        "exploration.AgentEnv.step", "exploration.build_state_buffer") == 0
    # an oracle env asks its backend only after steps that change the
    # state, so fewer times than it steps the engine
    assert 0 < tracer.child_calls(
        "extraction.oracle_answer", "exploration.AgentEnv.step") < \
        tracer.child_calls("engine.step_movement", "exploration.AgentEnv.step")
    # and a trainer's envs share the answers of each state they reach, so
    # the backend is asked fewer times than the graph takes answers
    assert 0 < tracer.child_calls(
        "extraction.oracle_answer", "exploration.AgentEnv.step") < \
        tracer.child_calls("kg.apply_answers", "exploration.AgentEnv.step")


WORKLOADS = load("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_trains_through_its_config(name):
    # a config field that a workload passes or reads, once removed, fails
    # here rather than in the benchmark
    workload = dataclasses.replace(WORKLOADS[name], total_steps=300)
    result, archive_size = workload.train(
        games.load_bundled(workload.game), 0)
    assert result.steps_used <= 300
    assert (archive_size is None) == (workload.strategy != "go")
