"""The line comparison of tools/output_digest.py --against, on digest lines made up here."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def tool(monkeypatch):
    def no_process(*args, **kwargs):
        raise AssertionError("the comparison starts no process")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(sha: str, name: str) -> str:
    return f"{sha * 64}  {name}"


def test_identical_digests_have_no_difference(tool):
    lines = [_line("a", "count/counts.csv"), _line("b", "count/manifest_count.json")]
    assert tool.differences(lines, lines) == []
    assert tool.differences(lines, lines[::-1]) == []  # the order of the lines does not matter
    assert tool.differences([], []) == []


def test_each_changed_or_lone_file_is_one_line(tool):
    before = [_line("a", "count/counts.csv"), _line("b", "qnd/qnd.csv"), _line("c", "scaling/fit.csv"),
              _line("d", "coverage/coverage.csv")]
    after = [_line("a", "count/counts.csv"), _line("e", "qnd/qnd.csv"), _line("f", "detect/detect.csv"),
             _line("d", "coverage/coverage.csv")]
    assert tool.differences(before, after) == [
        f"detect/detect.csv: missing -> {'f' * 64}",
        f"qnd/qnd.csv: {'b' * 64} -> {'e' * 64}",
        f"scaling/fit.csv: {'c' * 64} -> missing",
    ]


def test_a_file_name_with_two_spaces_keeps_its_name(tool):
    # the sha256 is split off at the first two spaces only
    before, after = [_line("a", "run/a  b.csv")], [_line("b", "run/a  b.csv")]
    assert tool.differences(before, after) == [f"run/a  b.csv: {'a' * 64} -> {'b' * 64}"]
