"""The CLI reproduces the golden corpus byte for byte; see regenerate.py."""

from regenerate import render, stored


def _first_difference(want: bytes, got: bytes) -> str:
    want_lines = want.decode().splitlines(keepends=True)
    got_lines = got.decode().splitlines(keepends=True)
    for number, (old, new) in enumerate(zip(want_lines, got_lines), start=1):
        if old != new:
            return f"line {number}: expected {old!r}, got {new!r}"
    number = min(len(want_lines), len(got_lines)) + 1
    return f"line {number}: expected {len(want_lines)} lines, got {len(got_lines)}"


def test_cli_output_matches_the_golden_corpus(tmp_path):
    want, got = stored(), render(tmp_path)
    problems = [f"{name}: missing from the corpus" for name in sorted(got.keys() - want.keys())]
    problems += [f"{name}: no longer produced" for name in sorted(want.keys() - got.keys())]
    problems += [
        f"{name}: {_first_difference(want[name], got[name])}"
        for name in sorted(want.keys() & got.keys())
        if want[name] != got[name]
    ]
    assert not problems, "golden corpus mismatch (python tests/golden/regenerate.py " \
        "rewrites it):\n" + "\n".join(problems)
