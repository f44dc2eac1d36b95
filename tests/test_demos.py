"""The demos run: each fast one as a script in a fresh directory."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import questkg
from questkg.exploration import ExplorationConfig

SRC = Path(questkg.__file__).resolve().parents[1]
DEMOS = SRC.parent / "demos"


@pytest.mark.parametrize("script", ["play_walkthrough.py",
                                    "quest_analysis.py",
                                    "emit_qa_dataset.py"])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_compare_agents_runs(monkeypatch, capsys):
    # its nine 40k-step trainings are too slow to run here: cap each at 2k
    spec = importlib.util.spec_from_file_location(
        "compare_agents", DEMOS / "compare_agents.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ExplorationConfig", lambda **kw: (
        ExplorationConfig(**{**kw, "total_steps": 2_000})))
    module.main()
    out = capsys.readouterr().out
    assert "Chain modules of the first mc+im run:" in out
    assert "replayed to score" in out
