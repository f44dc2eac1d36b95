#!/usr/bin/env python3
"""questkg benchmark: env-step throughput of the three training loops, with
a traced per-module breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload mc_miniz --seed 0 --seconds 20 --trace 0

--workload  mc_miniz | vanilla_miniz | go_deceive (see workloads.py)
--seed      run seed; it picks the block of exploration seeds to train on
--seeds     explicit comma-separated exploration seeds instead
--seconds   minimum measuring time.  Whole training calls cycle over the
            seeds until it has passed and every seed has been trained, one
            of them twice.
--trace 0   end-to-end metrics, measured with tracing off
--trace 1   the same untraced calls, then one traced pass over the seeds;
            reports the per-layer metrics

End-to-end times are given at a reference host speed: every timed call is
bracketed by runs of a fixed kernel that uses no questkg code (see
HostSpeed), and its time is scaled by HOST_REF_MS over their mean.  The
unscaled figures are printed and recorded beside them.

Each of these checks is one attempted operation and counts as failed when
it does not hold: a training call or chain replay does not raise; a
repeated training call, and the traced call, give the first call's
trajectory hash; a chain replays twice to its j_max with one hash; no
traced span's children cover more time than the span.  A trajectory that
differs from perfbench/baseline.json is reported as a behaviour change, not
as a failure.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Per-call records, machine info and all
metrics also go to .perfbench/<workload>-seed<seed>-trace<t>.json, and the
spans of a traced pass to .perfbench/spans-<workload>-seed<seed>.tsv.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BASELINE = BENCH_DIR / "baseline.json"
SETUP_PROBES = 15
REPLAYS_PER_CALL = 5
WARMUP_STEPS = 500
# host_kernel() time, in ms, that end-to-end times are scaled to: about its
# median on a 2-core x86_64 host with Python 3.11 and numpy 2.4.
HOST_REF_MS = 40.0

# Timed in a fresh interpreter: import questkg, load the game, reset once.
SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import sys
from questkg import engine, games
engine.reset(games.load_bundled(sys.argv[1]))
print(repr(time.perf_counter() - t0))
"""


class Report:
    """Operation counts, failures and behaviour changes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.behaviour_changes = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)
            print(f"FAILED: {message}", file=sys.stderr)

    def crashed(self, what):
        self.attempted += 1
        self.failures.append(f"{what} raised:\n{traceback.format_exc()}")
        print(f"FAILED: {what} raised", file=sys.stderr)
        traceback.print_exc()


def machine_info():
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__),
                                       os.pardir, "numpy.libs",
                                       "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "machine": platform.machine()}


# --- host speed ---------------------------------------------------------------


def host_kernel():
    """Fixed work that runs no questkg code, in the mix the training loops
    spend their time on: dicts and strings, sorting, json, blake2b and
    small matrix-vector products."""
    import numpy as np
    table = {str(i): (i, str(i)) for i in range(20_000)}
    items = sorted(table.items())
    for i in range(300):
        blob = json.dumps(items[i * 10:i * 10 + 50]).encode()
        hashlib.blake2b(blob, digest_size=8).digest()
    m, v = np.ones((40, 40)), np.ones(40)
    for _ in range(3000):
        v = m @ v * 0.001


class HostSpeed:
    """Judges the host's speed around each timed call.

    On a shared host the same deterministic call can take twice as long a
    few seconds later, and every wall-clock figure of a run moves with it.
    host_kernel() is timed right before and right after each call; the call
    is then scaled by HOST_REF_MS over their mean.  The kernel runs no
    questkg code, so a change to questkg moves the call's time but not the
    scale.
    """

    def __init__(self):
        self.samples_ms = []
        self._last_ms = None

    def sample(self):
        t0 = time.perf_counter()
        host_kernel()
        self._last_ms = (time.perf_counter() - t0) * 1e3
        self.samples_ms.append(self._last_ms)
        return self._last_ms

    def timed(self, fn):
        """(fn(), its wall seconds, the factor that scales them to the
        reference host speed)."""
        before = self._last_ms if self._last_ms is not None else self.sample()
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        after = self.sample()
        return result, elapsed, HOST_REF_MS / ((before + after) / 2)


# --- untraced measurement ----------------------------------------------------


def setup_seconds(game_name, host):
    """(unscaled, scaled) setup times of fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        out, _, factor = host.timed(lambda: subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, game_name], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=60, check=True))
        raw.append(float(out.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * factor)
    return raw, scaled


def train_call(workload, game, seed, host):
    """One training call: (result, archive size, seconds, scaled seconds)."""
    gc.collect()
    (result, archive), elapsed, factor = host.timed(
        lambda: workload.train(game, seed))
    return result, archive, elapsed, elapsed * factor


def measure(workload, game, seeds, seconds, report, host, between):
    """Training calls, cycling over the seeds, until `seconds` have passed
    and one seed has been repeated; `between()` runs after each call.
    Returns (calls, first result per seed)."""
    calls, first = [], {}
    began = time.perf_counter()
    i = 0
    while i <= len(seeds) or time.perf_counter() - began < seconds:
        seed = seeds[i % len(seeds)]
        i += 1
        try:
            result, _, elapsed, scaled = train_call(workload, game, seed, host)
        except Exception:
            report.crashed(f"{workload.name} training call, seed {seed}")
            continue
        calls.append({"seed": seed, "seconds": elapsed, "scaled": scaled,
                      "steps_used": result.steps_used,
                      "j_max": result.j_max,
                      "trajectory_hash": result.trajectory_hash})
        want = first.setdefault(seed, result).trajectory_hash
        report.check(result.trajectory_hash == want,
                     f"seed {seed}: repeated training call changed the "
                     f"trajectory hash ({want} -> {result.trajectory_hash})")
        between()
    return calls, first


def replay(chain, game, config, report, what, times, hashes):
    """One replay, which must reach the chain's j_max.  Appends its seconds
    to `times` and its hash to `hashes`."""
    from questkg import exploration
    t0 = time.perf_counter()
    try:
        _, score, digest = exploration.execute_chain(chain, game, config)
    except Exception:
        report.crashed(f"execute_chain, {what}")
        return
    times.append(time.perf_counter() - t0)
    hashes.append(digest)
    report.check(score == chain.j_max, f"{what}: chain replay reached "
                 f"{score}, chain j_max {chain.j_max}")


def reference_chain(workload, game):
    """The chain distilled from the game's shortest full-score walkthrough.
    Every run seed replays this same chain, so its replay time measures the
    engine, extraction and policy, not which trajectory a seed found."""
    from questkg import exploration, policy, search
    actions, _ = search.walkthrough(game)
    cfg = workload.config(0)
    return exploration.build_chain(game, policy.StateEncoder(cfg.encoder),
                                   cfg, [a.text for a in actions])


def compare_baseline(workload, first, report):
    if not BASELINE.exists():
        return
    recorded = json.loads(BASELINE.read_text()).get(workload.name, {})
    if recorded.get("total_steps") != workload.total_steps:
        return
    for seed, result in sorted(first.items()):
        want = recorded["seeds"].get(str(seed))
        if want is None:
            continue
        got = {"trajectory_hash": result.trajectory_hash,
               "j_max": result.j_max, "steps_used": result.steps_used}
        if got != want:
            report.behaviour_changes.append(
                {"seed": seed, "baseline": want, "now": got})
            print(f"behaviour change: {workload.name} seed {seed}: "
                  f"baseline {want}, now {got}")


# --- traced pass -------------------------------------------------------------


LAYERS = (
    "gamedef.load_game",
    "engine.step_movement", "engine.snapshot", "engine.restore",
    "engine.state_hash", "engine.ground",
    "extraction.oracle_answer",
    "kg.apply_answers", "kg.GlobalEdgeSet.absorb",
    "policy.act", "policy.greedy_action", "policy.a2c_update",
    "policy.init_params",
    "exploration.AgentEnv.begin", "exploration.AgentEnv.feats",
    "exploration.AgentEnv.step",
    "exploration.backtrack", "exploration.shorten_trajectory",
    "exploration.build_state_buffer", "exploration.build_chain",
    "exploration.clone_segment_policy", "exploration.execute_chain",
    "exploration.CellArchive.sample", "exploration.CellArchive.insert",
    "exploration.mc_train", "exploration.vanilla_train",
    "exploration.go_train",
)


def install(tracer):
    """Wrap every layer in LAYERS, on the object its callers look it up on,
    with counters for the ratios."""
    from questkg import engine, exploration, extraction, games, kg, policy

    def added(args, kwargs, result, counts):
        counts["apply_answers.added"] += len(result[0])

    def fallback(args, kwargs, result, counts):
        counts["act.fallbacks"] += result.mask_fallback

    def transitions(args, kwargs, result, counts):
        counts["a2c_update.transitions"] += len(args[1])

    def backtracked(args, kwargs, result, counts):
        counts["backtrack.successes"] += result[2] is not None

    def shortened(args, kwargs, result, counts):
        counts["shorten_trajectory.actions_in"] += len(args[1])

    observers = {"kg.apply_answers": added, "policy.act": fallback,
                 "policy.a2c_update": transitions,
                 "exploration.backtrack": backtracked,
                 "exploration.shorten_trajectory": shortened}
    modules = {"engine": engine, "extraction": extraction, "kg": kg,
               "policy": policy, "exploration": exploration}
    # games imported load_game by name; load_bundled calls that binding
    tracer.wrap(games, "load_game", "gamedef.load_game")
    for name in LAYERS[1:]:
        owner = modules[name.split(".")[0]]
        *classes, attr = name.split(".")[1:]
        for cls in classes:
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, name, observers.get(name))


def traced_pass(workload, seeds, first, chain, report, host, spans_path):
    """Load the game and train every seed once under the tracer, then
    replay the reference chain once.  Run ids: 0 for the game load, 1..k
    for the training calls, k + 1 for the replay.  Returns the tracer and
    seed -> (result, archive size, seconds, scaled seconds)."""
    from questkg import exploration, games
    from spans import Tracer

    tracer = Tracer()
    traced = {}
    install(tracer)
    try:
        game = games.load_bundled(workload.game)
        for k, seed in enumerate(seeds, start=1):
            tracer.run_id = k
            try:
                traced[seed] = train_call(workload, game, seed, host)
            except Exception:
                report.crashed(f"traced training call, seed {seed}")
                continue
            got = traced[seed][0].trajectory_hash
            want = first[seed].trajectory_hash if seed in first else None
            report.check(got == want, f"seed {seed}: traced trajectory hash "
                         f"{got} differs from untraced {want}")
        tracer.run_id = len(seeds) + 1
        try:
            exploration.execute_chain(chain, game, workload.config(0))
        except Exception:
            report.crashed("traced execute_chain")
    finally:
        tracer.unwrap_all()
    tracer.write(spans_path)
    return tracer, traced


def layer_metrics(tracer, traced, untraced, seeds, report):
    """Per-layer metrics; `untraced` maps a seed to its median scaled
    seconds without tracing."""
    stats, overfull = tracer.per_name()
    report.check(overfull == 0,
                 f"{overfull} traced spans whose children outlast them")
    metrics = {}
    for name in LAYERS:
        calls, total_ns, self_ns = stats.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_us"] = (
            self_ns / calls / 1e3 if calls else 0.0, "us")
        metrics[f"{name}.total_s"] = (total_ns / 1e9, "s")

    def calls(name):
        return stats.get(name, (0,))[0]

    def ratio(num, den):
        return num / den if den else 0.0

    counts = tracer.counts
    training = range(1, len(seeds) + 1)
    results = [r for r, _, _, _ in traced.values()]
    steps = sum(r.steps_used for r in results)
    archives = [a for _, a, _, _ in traced.values() if a is not None]
    traced_s = sum(scaled for _, _, _, scaled in traced.values())
    untraced_s = sum(untraced[s] for s in traced if s in untraced)
    metrics.update({
        "policy.a2c_update.us_per_transition": (ratio(
            stats.get("policy.a2c_update", (0, 0.0))[1] / 1e3,
            counts["a2c_update.transitions"]), "us"),
        "engine.step_movement.calls_per_step": (ratio(
            tracer.calls_in_runs("engine.step_movement", training),
            steps), "ratio"),
        "extraction.oracle_answer.calls_per_step": (ratio(
            tracer.calls_in_runs("extraction.oracle_answer", training),
            steps), "ratio"),
        "exploration.shorten_trajectory.replay_factor": (ratio(
            tracer.child_calls("engine.step_movement",
                               "exploration.shorten_trajectory"),
            counts["shorten_trajectory.actions_in"]), "ratio"),
        "exploration.backtrack.success_frac": (ratio(
            counts["backtrack.successes"], calls("exploration.backtrack")),
            "ratio"),
        "policy.act.mask_fallback_frac": (ratio(
            counts["act.fallbacks"], calls("policy.act")), "ratio"),
        "kg.apply_answers.added_per_call": (ratio(
            counts["apply_answers.added"], calls("kg.apply_answers")),
            "count"),
        "exploration.archive.cells": (
            statistics.mean(archives) if archives else 0.0, "count"),
        "trace.overhead_frac": (ratio(traced_s, untraced_s) - 1.0, "ratio"),
        "score_mean": (statistics.mean(r.j_max for r in results)
                       if results else 0.0, "points"),
    })
    return metrics


# --- main --------------------------------------------------------------------


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seeds", default=None,
                        help="comma-separated exploration seeds")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "questkg" / "__init__.py").is_file():
        print(f"questkg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else workload.seeds(args.seed))
    host = HostSpeed()
    setup_raw, setup_scaled = setup_seconds(workload.game, host)

    from questkg import games
    game = games.load_bundled(workload.game)
    report = Report()
    chain = reference_chain(workload, game)
    # one short call first, so lazy imports and first-use costs are not timed
    dataclasses.replace(workload, total_steps=WARMUP_STEPS).train(
        game, seeds[0])

    # the reference chain is replayed after every training call, so its
    # samples spread over the same stretch of time as the training calls
    replay_raw, replay_scaled, replay_hashes = [], [], []
    cfg0 = workload.config(0)

    def between():
        times = []
        _, _, factor = host.timed(lambda: [
            replay(chain, game, cfg0, report, "walkthrough chain", times,
                   replay_hashes) for _ in range(REPLAYS_PER_CALL)])
        replay_raw.extend(times)
        replay_scaled.extend(t * factor for t in times)

    host.sample()
    calls, first = measure(workload, game, seeds, args.seconds, report, host,
                           between)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report.check(len(set(replay_hashes)) == 1,
                 "walkthrough chain replays differ")
    emitted_s = []
    for seed, result in sorted(first.items()):
        if result.chain is not None:
            hashes = []
            for _ in range(2):
                replay(result.chain, game, workload.config(seed), report,
                       f"emitted chain of seed {seed}", emitted_s, hashes)
            report.check(len(set(hashes)) == 1,
                         f"seed {seed}: emitted chain replays differ")
    compare_baseline(workload, first, report)

    def end_to_end(key, replays, setups):
        steps = sum(c["steps_used"] for c in calls)
        train_s = sum(c[key] for c in calls)
        return {
            "steps_per_s": (steps / train_s if train_s else 0.0, "1/s"),
            "run_s": (statistics.median(c[key] for c in calls)
                      if calls else 0.0, "s"),
            "chain_replay_ms": (statistics.median(replays) * 1e3
                                if replays else 0.0, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }

    e2e = end_to_end("scaled", replay_scaled, setup_scaled)
    unscaled = end_to_end("seconds", replay_raw, setup_raw)

    OUT.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}"
    if args.trace:
        untraced = {s: statistics.median(c["scaled"] for c in calls
                                         if c["seed"] == s) for s in first}
        tracer, traced = traced_pass(workload, seeds, first, chain, report,
                                     host, OUT / f"spans-{tag}.tsv")
        metrics = layer_metrics(tracer, traced, untraced, seeds, report)
    else:
        metrics = e2e

    machine = machine_info()
    print(f"workload {workload.name}: {workload.strategy} on {workload.game},"
          f" total_steps {workload.total_steps}, seeds {seeds}")
    print("  machine " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    for c in calls:
        print(f"  call seed {c['seed']}: {c['seconds']:.3f} s "
              f"({c['scaled']:.3f} s scaled), {c['steps_used']} steps, "
              f"j_max {c['j_max']}, hash {c['trajectory_hash']}")
    print(f"  samples: run_s {len(calls)}, chain_replay_ms "
          f"{len(replay_scaled)}, setup_s {len(setup_scaled)}, host kernel "
          f"{len(host.samples_ms)} (median "
          f"{statistics.median(host.samples_ms):.2f} ms, reference "
          f"{HOST_REF_MS} ms); emitted chain replays {len(emitted_s)}")
    print("  unscaled: " + ", ".join(f"{k} {v:.6g} {u}"
                                     for k, (v, u) in unscaled.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")

    failed = len(report.failures)
    record = {
        "workload": workload.name, "seed": args.seed, "seeds": seeds,
        "trace": args.trace, "seconds": args.seconds,
        "total_steps": workload.total_steps, "machine": machine,
        "calls": calls, "setup_s": setup_raw,
        "chain_replay_s": replay_raw, "emitted_chain_replay_s": emitted_s,
        "host_kernel_ms": host.samples_ms,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "unscaled_end_to_end": {k: v for k, (v, _) in unscaled.items()},
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "failures": report.failures,
        "behaviour_changes": report.behaviour_changes,
    }
    (OUT / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": report.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
