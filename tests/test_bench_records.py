"""Every committed BENCH_*.json record parses, says what it measured and
how, and holds the trajectory hashes that show whether behaviour stayed
the same."""

import json
from pathlib import Path

import pytest

RECORDS = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))


def keys(node):
    """Every dict key in a parsed JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from keys(value)
    elif isinstance(node, list):
        for value in node:
            yield from keys(value)


def test_bench_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_bench_record_names_itself_and_holds_trajectory_hashes(path):
    record = json.loads(path.read_text())
    assert {"label", "what", "command"} <= record.keys()
    assert {"trajectory_hash", "trajectory_hashes"} & set(keys(record))
