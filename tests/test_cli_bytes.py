"""Byte snapshot of the command line: each case of ``cli_bytes_driver``
must match its exit code and digests in ``fixtures/cli_sha256.json``."""

from __future__ import annotations

from pathlib import Path

import pytest

from cli_bytes_driver import CASES, SNAPSHOT, make_workspace, run_case


@pytest.fixture(scope="module")
def workspace(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("cli-bytes")
    make_workspace(root)
    return root


@pytest.fixture()
def in_workspace(workspace, monkeypatch):
    monkeypatch.chdir(workspace)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to this width
    return workspace


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_bytes_match_snapshot(case, in_workspace, tmp_path):
    got = run_case(CASES[case], tmp_path / "out")
    assert got == SNAPSHOT[case], f"{case}: {CASES[case]}"


def test_snapshot_covers_exactly_the_cases():
    assert sorted(SNAPSHOT) == sorted(CASES)
