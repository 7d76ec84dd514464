"""The CLI reproduces the golden corpus byte for byte; see regenerate.py."""

import os

import pytest
from exact import ulps
from regenerate import changes, lossy_cells, render, stored, ulp_moves


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


def test_changes_name_each_moved_cell_and_line():
    old = {
        "scan/a.csv": b"swept_value,info_two\n1.0,2.0\n3.0,4.0\n",
        "point/a.json": b'{"info_two": 2.0, "error": ""}\n',
        "exits.txt": b"scan/a: exit 0\n",
        "point/gone.json": b"{}\n",
    }
    new = {
        "scan/a.csv": b"swept_value,info_two\n1.0,2.5\n3.0,4.0\n5.0,6.0\n",
        "point/a.json": b'{"info_two": 2.0, "error": "x"}\n',
        "exits.txt": b"scan/a: exit 0\npoint/b: exit 0\n",
        "point/b.json": b"{}\n",
    }
    assert changes(old, new) == [
        "exits.txt, line 2: [] -> ['point/b: exit 0']",
        'point/a.json, row point, error: "" -> "x"',
        "point/b.json: added",
        "point/gone.json: removed",
        "scan/a.csv, row 1.0, info_two: 2.0 -> 2.5",
        "scan/a.csv, row 5.0, swept_value: (none) -> 5.0",
        "scan/a.csv, row 5.0, info_two: (none) -> 6.0",
    ]
    assert changes(old, old) == []


# each printed bound may be this far from the exact least bound over a gamma
# per arm, in ulps of the exact value
_EXACT_ULPS = 4


def _errors(shared: bool) -> dict:
    """(file, row, column) -> ulps from exact of the corpus's lossy info cells,
    those of TwoArm rows with one shared gamma or those with a gamma per arm."""
    cells = lossy_cells(stored())
    return {key: ulps(value, exact) for key, (value, is_shared, exact) in cells.items()
            if is_shared == shared}


def test_per_arm_bounds_are_exact_to_a_few_ulps():
    # 46 rows of OneArm and unequal-eta TwoArm, two cells each
    errors = _errors(shared=False)
    assert len(errors) == 92
    assert {key: error for key, error in errors.items() if error > _EXACT_ULPS} == {}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: TwoArm shares one gamma where eta_b == eta")
def test_shared_gamma_bounds_are_the_per_arm_infimum():
    errors = _errors(shared=True)
    assert len(errors) == 66
    assert {key: error for key, error in errors.items() if error > _EXACT_ULPS} == {}


def test_ulp_moves_name_each_moved_bound_with_its_error():
    old = stored()
    name = "point/SU11-OneArm-TwoParameter.json"
    new = {**old, name: old[name].replace(b'"info_two": 19.', b'"info_two": 18.')}
    assert new[name] != old[name]
    (line,) = ulp_moves(old, new)
    before, after = (float(x) for x in line.split(": ")[1].split(" ulps")[0].split(" -> "))
    assert line.startswith(f"{name}, row point, info_two: ")
    assert before <= _EXACT_ULPS < after
    assert ulp_moves(old, old) == []
