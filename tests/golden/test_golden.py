"""The CLI reproduces the golden corpus byte for byte; see regenerate.py."""

import os

from regenerate import render, stored


def _first_difference(want: bytes, got: bytes) -> str:
    want_lines = want.decode().splitlines(keepends=True)
    got_lines = got.decode().splitlines(keepends=True)
    for number, (old, new) in enumerate(zip(want_lines, got_lines), start=1):
        if old != new:
            return f"line {number}: expected {old!r}, got {new!r}"
    number = min(len(want_lines), len(got_lines)) + 1
    return f"line {number}: expected {len(want_lines)} lines, got {len(got_lines)}"


def _assert_matches(want: dict, got: dict) -> None:
    problems = [f"{name}: missing from the corpus" for name in sorted(got.keys() - want.keys())]
    problems += [f"{name}: no longer produced" for name in sorted(want.keys() - got.keys())]
    problems += [
        f"{name}: {_first_difference(want[name], got[name])}"
        for name in sorted(want.keys() & got.keys())
        if want[name] != got[name]
    ]
    assert not problems, "golden corpus mismatch (python tests/golden/regenerate.py " \
        "rewrites it):\n" + "\n".join(problems)


def test_cli_output_matches_the_golden_corpus(tmp_path):
    _assert_matches(stored(), render(tmp_path))


def test_golden_scans_match_through_forked_workers(tmp_path, monkeypatch):
    # chunks of one row, so that every golden scan (2 to 6 rows) forks two
    # workers whatever this machine's CPU count, and each writes every other row
    from phasebound import cli

    monkeypatch.setattr(cli, "_CHUNK_ROWS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    forks = []
    fork = os.fork

    def counted():
        forks.append(fork())
        return forks[-1]

    monkeypatch.setattr(os, "fork", counted)
    want = stored()
    got = render(tmp_path, jobs=2)
    scans = [name for name in want if name.startswith("scan/") and name.endswith(".csv")]
    assert len(forks) == 2 * len(scans)
    _assert_matches(want, got)
