"""Rewrite the golden corpus: what the CLI prints and writes for a fixed set
of configurations.

Run from anywhere, with no arguments:

    python tests/golden/regenerate.py

Every case runs in process through ``phasebound.cli.main``. The corpus is

- ``scan/<case>.csv``: the CSV the scan writes, byte for byte;
- ``scan/<case>.meta.json``: its metadata, without the timestamp;
- ``point/<case>.json``: the record ``point`` prints;
- ``oracle/<case>.txt``: the PASS/FAIL verdict of each identity, and the
  closing line, at cutoff 32; the digits are left out, because numpy's
  summation order can move the last ulp from one build to the next;
- ``exits.txt``: the exit code and standard error of every command.

After rewriting, the script prints every changed cell as file, row, column,
old -> new (a CSV row is named by its swept value, a point's by "point"),
and every other changed line; a change that alters the corpus lists these
in CHANGES.md. Then, for each changed info_single and info_two cell of a lossy
row, it prints the cell's distance in ulps from the exact least bound over a
gamma per arm (``tests/exact.py``) before and after, each computed from the
row's own printed moments and its case's etas.
"""

from __future__ import annotations

import contextlib
import csv
import difflib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
KINDS = ("scan", "point", "oracle")

_BASE = {
    "SU2": {"alpha_photons": 4.0, "squeeze_r": 0.5, "splitter_ratio": 0.6},
    "SU11": {"alpha_photons": 4.0, "squeeze_r": 0.5, "gain": 1.2},
}
# loss label -> (loss key, fixed parameters it adds)
_LOSSES = {
    "None": ("None", {}),
    "OneArm": ("OneArm", {"eta": 0.6}),
    "TwoArmEqual": ("TwoArm", {"eta": 0.6}),
    "TwoArmUnequal": ("TwoArm", {"eta": 0.6, "eta_b": 0.7}),
}
# lossless sweeps run the splitter parameter through an invalid value (SU11)
# and a lossless edge; lossy ones run eta from -0.25 (an error row) over 0 to 1
_LOSSLESS_SWEEPS = {"SU2": ("splitter_ratio", [0.0, 3.0, 4]), "SU11": ("gain", [0.5, 2.0, 4])}
_ETA_SWEEP = ("eta", [-0.25, 1.0, 6])
_ESTIMATIONS = ("SingleParameter", "TwoParameter")

# huge inputs, where the shared-gamma solver must not overflow; under one-arm
# and unequal-arm loss f_pm**2 overflows there, and the Schur term must not
_BALANCED = {
    "SU2": {"squeeze_r": 0.5, "splitter_ratio": 1.0, "eta": 0.5},
    "SU11": {"squeeze_r": 0.5, "gain": 1.5, "eta": 0.5},
}
_HUGE_SCANS = {
    "SU2-TwoArmEqual-huge-a": ("SU2", "TwoArm", {}, [1e150, 1e155, 3]),
    "SU2-TwoArmEqual-huge-b": ("SU2", "TwoArm", {}, [1e200, 1e300, 3]),
    "SU11-TwoArmEqual-huge-a": ("SU11", "TwoArm", {}, [1e100, 1e105, 3]),
    "SU11-TwoArmEqual-huge-b": ("SU11", "TwoArm", {}, [1e120, 1e150, 3]),
    "SU2-OneArm-huge": ("SU2", "OneArm", {}, [1e200, 1e300, 2]),
    "SU2-TwoArmUnequal-huge": ("SU2", "TwoArm", {"eta_b": 0.7}, [1e200, 1e300, 2]),
}
# also run as points at the start of their range
_HUGE_POINTS = ("SU2-OneArm-huge", "SU2-TwoArmUnequal-huge")
# two-parameter points where info_two once read above info_single: near the
# vacuum |J| = 1 to rounding, and the shared-gamma solve took C = F
_EDGE_POINTS = {
    "SU11-TwoArmEqual-near-vacuum": ("SU11", "TwoArm", {
        "alpha_photons": 8.179925709760638e-17, "squeeze_r": 0.0, "gain": 2.998904402431232,
        "eta": 1e-9,
    }),
}


def _document(interferometer: str, loss: str, estimation: str = "TwoParameter") -> dict:
    key, extra = _LOSSES[loss]
    return {
        "interferometer": interferometer,
        "estimation": estimation,
        "loss": key,
        "fixed": {**_BASE[interferometer], **extra},
    }


def _sweep(document: dict, variable: str, span: list) -> dict:
    fixed = {k: v for k, v in document["fixed"].items() if k != variable}
    return {**document, "fixed": fixed, "swept_variable": variable, "range": span}


def cases() -> list[tuple[str, str, dict]]:
    """(kind, case name, configuration) of every command in the corpus."""
    out = []
    for interferometer in _BASE:
        for loss in _LOSSES:
            variable, span = _ETA_SWEEP if loss != "None" else _LOSSLESS_SWEEPS[interferometer]
            for estimation in _ESTIMATIONS:
                name = f"{interferometer}-{loss}-{estimation}"
                document = _document(interferometer, loss, estimation)
                out.append(("scan", name, _sweep(document, variable, span)))
                out.append(("point", name, document))
    for name, (interferometer, loss, extra, span) in _HUGE_SCANS.items():
        document = {
            "interferometer": interferometer,
            "estimation": "TwoParameter",
            "loss": loss,
            "fixed": {**_BALANCED[interferometer], **extra},
        }
        out.append(("scan", name, _sweep(document, "alpha_photons", span)))
        if name in _HUGE_POINTS:
            document["fixed"]["alpha_photons"] = span[0]
            out.append(("point", name, document))
    for name, (interferometer, loss, fixed) in _EDGE_POINTS.items():
        document = {"interferometer": interferometer, "estimation": "TwoParameter",
                    "loss": loss, "fixed": fixed}
        out.append(("point", name, document))
    for interferometer in _BASE:
        for loss in _LOSSES:
            document = _document(interferometer, loss)
            document["fixed"] = {**document["fixed"], "alpha_photons": 1.0, "squeeze_r": 0.3}
            if loss != "None":
                document["fixed"]["gamma"] = -0.25
            out.append(("oracle", f"{interferometer}-{loss}", {**document, "cutoff": 32}))
    # a grid too small for the input state: the check refuses with exit 3
    refused = {**_document("SU2", "None"), "cutoff": 32}
    refused["fixed"] = {**refused["fixed"], "alpha_photons": 25.0}
    out.append(("oracle", "SU2-None-cutoff-too-small", refused))
    return out


_VERDICT = re.compile(r"(\[(?:PASS|FAIL)\] [\w.]+):")
_STDERR_REASON = re.compile(r"(oracle failure: \w+):.*")


def _run(argv: list[str]) -> tuple[int, str, str]:
    from phasebound import cli  # here, so that running the script can put src/ on the path first

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def _text(*lines: str) -> bytes:
    return "".join(line + "\n" for line in lines).encode()


def render(workdir: Path, jobs: int = 1) -> dict[str, bytes]:
    """Corpus path (relative, '/'-separated) -> contents, computed in
    `workdir`, with each scan run at `--jobs jobs`."""
    files: dict[str, bytes] = {}
    exits = []
    for kind, name, document in cases():
        config = workdir / f"{kind}-{name}.json"
        config.write_text(json.dumps(document))
        command = {"scan": "scan", "point": "point", "oracle": "oracle-check"}[kind]
        argv = [command, "--config", str(config)]
        if kind == "scan":
            output = workdir / f"{name}.csv"
            argv += ["--output", str(output), "--jobs", str(jobs)]
        code, stdout, stderr = _run(argv)
        if kind == "scan":
            files[f"scan/{name}.csv"] = output.read_bytes()
            meta = json.loads(Path(f"{output}.meta.json").read_bytes())
            del meta["timestamp"]
            files[f"scan/{name}.meta.json"] = _text(json.dumps(meta, indent=2, sort_keys=True))
        elif kind == "point" and code == 0:
            files[f"point/{name}.json"] = stdout.encode()
        elif kind == "oracle":
            *verdicts, summary = stdout.splitlines() or [""]
            lines = [_VERDICT.match(line).group(1) for line in verdicts] + [summary]
            files[f"oracle/{name}.txt"] = _text(*lines)
            stderr = _STDERR_REASON.sub(r"\1", stderr)
        exits += [f"{kind}/{name}: exit {code}", *(f"  {line}" for line in stderr.splitlines())]
    files["exits.txt"] = _text(*exits)
    return files


def stored() -> dict[str, bytes]:
    """The corpus as committed, in render's form."""
    paths = [HERE / "exits.txt", *(p for kind in KINDS for p in (HERE / kind).glob("*"))]
    return {p.relative_to(HERE).as_posix(): p.read_bytes() for p in paths if p.is_file()}


def _rows(name: str, data: bytes) -> dict[str, dict[str, str]]:
    """Row name -> column -> cell text of a scan CSV or a point record."""
    if name.endswith(".csv"):
        header, *rows = csv.reader(io.StringIO(data.decode()))
        return {row[0]: dict(zip(header, row)) for row in rows}
    return {"point": {column: json.dumps(cell) for column, cell in json.loads(data).items()}}


def changes(old: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    """One line per changed cell of a scan or point file, and per changed
    run of lines of any other file, added and removed files included."""
    out = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new or name not in old:
            out.append(f"{name}: {'removed' if name in old else 'added'}")
        elif old[name] == new[name]:
            continue
        elif name.endswith((".csv", ".json")) and not name.endswith(".meta.json"):
            was, now = _rows(name, old[name]), _rows(name, new[name])
            for row in was | now:
                before, after = was.get(row, {}), now.get(row, {})
                out += [f"{name}, row {row}, {column}: {before.get(column, '(none)')} -> "
                        f"{after.get(column, '(none)')}"
                        for column in before | after if before.get(column) != after.get(column)]
        else:
            a, b = old[name].decode().splitlines(), new[name].decode().splitlines()
            for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(None, a, b).get_opcodes():
                if tag != "equal":
                    out.append(f"{name}, line {i1 + 1}: {a[i1:i2]} -> {b[j1:j2]}")
    return out


_MOMENTS = ("mean_a", "mean_b", "var_a", "var_b", "cov")
_INFO = ("info_single", "info_two")


def lossy_cells(files: dict[str, bytes]) -> dict[tuple[str, str, str], tuple]:
    """(file, row, column) -> (cell, shared, exact) for every info_single and
    info_two cell of a lossy scan or point row that has them: shared is True
    where TwoArm takes one gamma (eta_b == eta), and exact is the least bound
    over a gamma per arm as a Fraction, from the row's printed moments."""
    # imported here, so that running the script can put tests/ on the path first
    from exact import exact_bounds
    from phasebound import Target

    out = {}
    for kind, name, document in cases():
        path = f"{kind}/{name}.csv" if kind == "scan" else f"{kind}/{name}.json"
        if kind == "oracle" or document["loss"] == "None" or path not in files:
            continue
        sum_target = document["interferometer"] == "SU11"
        target = Target.PHASE_SUM if sum_target else Target.PHASE_DIFFERENCE
        for row, cells in _rows(path, files[path]).items():
            if cells["info_two"] in ("", "null"):
                continue  # an error row
            fixed = dict(document["fixed"])
            if "swept_variable" in document:
                fixed[document["swept_variable"]] = float(row)
            eta = fixed["eta"]
            eta_b = 1.0 if document["loss"] == "OneArm" else fixed.get("eta_b", eta)
            shared = document["loss"] == "TwoArm" and eta_b == eta
            exact = exact_bounds([float(cells[m]) for m in _MOMENTS], eta, eta_b, target)
            for column, value in zip(_INFO, exact):
                out[path, row, column] = (float(cells[column]), shared, value)
    return out


def ulp_moves(old: dict[str, bytes], new: dict[str, bytes]) -> list[str]:
    """One line per lossy info cell whose value changed: its error in ulps of
    the exact value, before -> after."""
    from exact import ulps

    was, now = lossy_cells(old), lossy_cells(new)
    lines = []
    for key, (value, _, exact) in sorted(now.items()):
        if key in was and was[key][0] != value:
            before, _, before_exact = was[key]
            path, row, column = key
            lines.append(f"{path}, row {row}, {column}: "
                         f"{ulps(before, before_exact):.2f} -> {ulps(value, exact):.2f} ulps")
    return lines


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        files = render(Path(workdir))
    previous = stored()
    for name in previous:
        (HERE / name).unlink()
    for name, data in files.items():
        path = HERE / name
        path.parent.mkdir(exist_ok=True)
        path.write_bytes(data)
    print(f"wrote {len(files)} files under {HERE}")
    for line in changes(previous, files) + ulp_moves(previous, files):
        print(line)


if __name__ == "__main__":
    sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]
    main()
