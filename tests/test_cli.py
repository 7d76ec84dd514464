"""Configuration handling, sweep output, and CLI exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import sys
import time
import tracemalloc

import pytest

from phasebound import cli
from phasebound.cli import (
    CSV_COLUMNS,
    EXIT_COMPUTE,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_ORACLE,
    ConfigError,
    Interferometer,
    LossKind,
    ScanSpec,
    _build_input,
    build_parser,
    load_spec,
    main,
    oracle_check,
    point_record,
    run_scan,
)
from phasebound.errors import PhaseboundError
from phasebound.moments import nbs_moments
from phasebound.optimizer import optimize_gamma
from phasebound.qfim_lossy import SingleArmLoss, c_matrix_single

SU2_LOSSLESS = {
    "interferometer": "SU2",
    "estimation": "TwoParameter",
    "loss": "None",
    "fixed": {"alpha_photons": 4.0, "squeeze_r": 0.5, "splitter_ratio": 0.42857142857142855},
}

SU11_ONE_ARM = {
    "interferometer": "SU11",
    "estimation": "TwoParameter",
    "loss": "OneArm",
    "fixed": {"alpha_photons": 4.0, "squeeze_r": 0.5, "gain": 1.2, "eta": 0.6},
}


# ---------------------------------------------------------------------------
# configuration parsing


def test_load_spec_minimal():
    spec = load_spec(dict(SU2_LOSSLESS))
    assert spec.interferometer is Interferometer.SU2
    assert spec.estimation == "TwoParameter"
    assert spec.loss is LossKind.NONE
    assert spec.swept_variable is None
    assert spec.repeats == 1


@pytest.mark.parametrize("missing", ["interferometer", "estimation", "loss"])
def test_load_spec_requires_core_keys(missing):
    document = dict(SU2_LOSSLESS)
    del document[missing]
    with pytest.raises(ConfigError, match=missing):
        load_spec(document)


def test_load_spec_rejects_unknown_keys():
    document = dict(SU2_LOSSLESS)
    document["cutof"] = 64
    with pytest.raises(ConfigError, match="unknown"):
        load_spec(document)


def test_load_spec_rejects_bad_enum_values():
    document = dict(SU2_LOSSLESS)
    document["interferometer"] = "SU3"
    with pytest.raises(ConfigError, match="SU2"):
        load_spec(document)
    document = dict(SU2_LOSSLESS)
    document["loss"] = "Both"
    with pytest.raises(ConfigError):
        load_spec(document)
    document = dict(SU2_LOSSLESS)
    document["estimation"] = "three"
    with pytest.raises(ConfigError):
        load_spec(document)


def test_load_spec_sweep_needs_well_formed_range():
    document = dict(SU11_ONE_ARM)
    document["swept_variable"] = "eta"
    with pytest.raises(ConfigError, match="range"):
        load_spec(document)
    document["range"] = [0.1, 0.9]
    with pytest.raises(ConfigError, match="range"):
        load_spec(document)
    document["range"] = [0.9, 0.1, 5]
    with pytest.raises(ConfigError, match="start"):
        load_spec(document)
    document["range"] = [0.1, 0.9, 1]
    with pytest.raises(ConfigError, match="steps"):
        load_spec(document)
    document["range"] = [0.1, 0.9, 5]
    spec = load_spec(document)
    assert spec.steps == 5


def test_load_spec_rejects_unknown_sweep_variable():
    document = dict(SU2_LOSSLESS)
    document["swept_variable"] = "squeeze_r"
    document["range"] = [0.1, 0.9, 5]
    with pytest.raises(ConfigError, match="swept_variable"):
        load_spec(document)


def test_load_spec_repeats_override():
    document = dict(SU2_LOSSLESS)
    document["repeats"] = 3
    assert load_spec(document).repeats == 3
    document["repeats"] = 0
    with pytest.raises(ConfigError, match="repeats"):
        load_spec(document)


# ---------------------------------------------------------------------------
# point records


def test_point_record_lossless_su2():
    row = point_record(load_spec(dict(SU2_LOSSLESS)))
    assert row["error"] == ""
    assert row["gamma_opt_analytic"] is None
    assert row["gamma_opt_numeric"] is None
    assert row["delta_f"] >= 0.0
    assert row["info_two"] <= row["info_single"]
    assert row["qcrb_two"] >= row["qcrb_single"]
    assert row["info_optimal"] == row["info_two"]


def test_point_record_one_arm_su11_frozen_values():
    row = point_record(load_spec(dict(SU11_ONE_ARM)))
    assert row["gamma_opt_analytic"] == pytest.approx(1.9700563658196732, rel=1e-12)
    assert abs(row["gamma_opt_numeric"] - row["gamma_opt_analytic"]) <= 1e-6
    assert row["info_single"] == pytest.approx(19.325313597573835, rel=1e-9)
    assert row["info_two"] == pytest.approx(19.25085348011056, rel=1e-9)
    assert row["delta_f"] == pytest.approx(0.5880643955570869, rel=1e-6)
    assert row["qcrb_single"] == pytest.approx(0.2274765981969834, rel=1e-9)
    assert row["qcrb_two"] == pytest.approx(0.22791610045946925, rel=1e-9)


def test_point_record_lossless_limit_of_one_arm():
    document = {
        "interferometer": "SU2",
        "estimation": "TwoParameter",
        "loss": "OneArm",
        "fixed": {**SU2_LOSSLESS["fixed"], "eta": 1.0},
    }
    lossy = point_record(load_spec(document))
    ideal = point_record(load_spec(dict(SU2_LOSSLESS)))
    assert lossy["info_two"] == pytest.approx(ideal["info_two"], rel=1e-10)
    assert lossy["gamma_opt_analytic"] is None  # formula needs eta < 1


def test_point_record_repeats_rescale_qcrb():
    document = dict(SU11_ONE_ARM)
    document["repeats"] = 4
    row1 = point_record(load_spec(dict(SU11_ONE_ARM)))
    row4 = point_record(load_spec(document))
    assert row4["qcrb_two"] == pytest.approx(row1["qcrb_two"] / 2.0, rel=1e-12)


def test_point_record_two_arm_symmetric():
    document = {
        "interferometer": "SU11",
        "estimation": "TwoParameter",
        "loss": "TwoArm",
        "fixed": {"alpha_photons": 4.0, "squeeze_r": 0.5, "gain": 1.2, "eta": 0.7},
    }
    row = point_record(load_spec(document))
    assert isinstance(row["gamma_opt_numeric"], float)
    assert row["info_two"] == pytest.approx(12.247317176706858, rel=1e-9)


def test_point_record_two_arm_independent_emits_gamma_pair():
    document = {
        "interferometer": "SU11",
        "estimation": "TwoParameter",
        "loss": "TwoArm",
        "fixed": {
            "alpha_photons": 4.0,
            "squeeze_r": 0.5,
            "gain": 1.2,
            "eta": 0.6,
            "eta_b": 0.8,
        },
    }
    row = point_record(load_spec(document))
    assert isinstance(row["gamma_opt_numeric"], tuple)
    assert row["info_two"] == pytest.approx(13.14621166856805, rel=1e-9)


def test_point_record_requires_fixed_parameters():
    document = dict(SU2_LOSSLESS)
    document["fixed"] = {"alpha_photons": 4.0, "squeeze_r": 0.5}
    with pytest.raises(ConfigError, match="splitter_ratio"):
        point_record(load_spec(document))


def test_point_record_requires_the_swept_value():
    with pytest.raises(ConfigError, match="swept_value required when a variable is swept"):
        point_record(load_spec(_eta_sweep_document(0.2, 0.8, 3)))


# ---------------------------------------------------------------------------
# formatting and sweeps


_LOSS_FIXED = {
    "None": {},
    "OneArm": {"eta": 0.6},
    "TwoArm": {"eta": 0.6},
    "TwoArmUnequal": {"eta": 0.6, "eta_b": 0.8},
}
_SPLITTER_FIXED = {"SU2": {"splitter_ratio": 0.5}, "SU11": {"gain": 1.2}}


def _document(interferometer, loss, **extra):
    return {
        "interferometer": interferometer,
        "estimation": "TwoParameter",
        "loss": loss.removesuffix("Unequal"),
        "fixed": {
            "alpha_photons": 4.0,
            "squeeze_r": 0.5,
            **_SPLITTER_FIXED[interferometer],
            **_LOSS_FIXED[loss],
        },
        **extra,
    }


@pytest.mark.parametrize("loss", list(_LOSS_FIXED))
@pytest.mark.parametrize("interferometer", ["SU2", "SU11"])
def test_point_record_keys_follow_csv_columns(interferometer, loss):
    assert list(point_record(load_spec(_document(interferometer, loss)))) == list(CSV_COLUMNS)


def _expected_line(spec, value):
    """A CSV line rebuilt from point_record by the documented rule: a float
    is its repr, None an empty cell, a gamma pair a;b, and an error row
    keeps the swept value and the message (quoted when it holds a comma)."""
    try:
        row = point_record(spec, value)
    except (ConfigError, ValueError, PhaseboundError) as exc:
        message = f"{type(exc).__name__}: {exc}"
        if "," in message:
            message = '"' + message.replace('"', '""') + '"'
        return ",".join([repr(value)] + [""] * (len(CSV_COLUMNS) - 2) + [message])
    cells = []
    for cell in row.values():
        if cell is None:
            cells.append("")
        elif isinstance(cell, tuple):
            cells.append(";".join(repr(v) for v in cell))
        elif isinstance(cell, float):
            cells.append(repr(cell))
        else:
            cells.append(cell)
    return ",".join(cells)


@pytest.mark.parametrize("loss", list(_LOSS_FIXED))
@pytest.mark.parametrize("interferometer", ["SU2", "SU11"])
def test_run_scan_lines_rebuild_from_point_record(tmp_path, interferometer, loss):
    # alpha_photons -1 is refused with "must be non-negative, got -1.0"
    document = _document(
        interferometer, loss, swept_variable="alpha_photons", range=[-1.0, 3.0, 5]
    )
    del document["fixed"]["alpha_photons"]
    spec = load_spec(document)
    out = tmp_path / "sweep.csv"
    run_scan(spec, str(out))
    header, *lines = out.read_text().splitlines()
    assert header == ",".join(CSV_COLUMNS)
    assert [float(line.split(",")[0]) for line in lines] == [-1.0, 0.0, 1.0, 2.0, 3.0]
    for line in lines:
        assert line == _expected_line(spec, float(line.split(",")[0]))
    assert lines[0].endswith(',"ConfigError: alpha_photons must be non-negative, got -1.0"')
    gamma_cell = next(csv.reader(lines[-1:]))[CSV_COLUMNS.index("gamma_opt_numeric")]
    assert (";" in gamma_cell) == (loss == "TwoArmUnequal")


def _calls(function, *args) -> int:
    """Python-level calls made by function(*args), itself included."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        function(*args)
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("interferometer", ["SU2", "SU11"])
def test_lossless_scan_row_call_budget(tmp_path, interferometer):
    # Python-level calls per lossless row, counted rather than timed, as the
    # difference between a 1,002-row and a 2-row scan: the row is built once
    # and formatted by one join, whose list comprehension is a call of its
    # own (44 calls when each cell went through a Python formatter)
    swept = "splitter_ratio" if interferometer == "SU2" else "gain"
    document = _document(interferometer, "None", swept_variable=swept)
    del document["fixed"][swept]
    calls = []
    for steps in (2, 1002):
        spec = load_spec({**document, "range": [1.0, 3.0, steps]})
        calls.append(_calls(run_scan, spec, str(tmp_path / f"sweep{steps}.csv")))
    assert (calls[1] - calls[0]) / 1000 <= 20


# (SU2, SU11) Python-level calls for one point_record row of each loss family
_CALL_BUDGETS = {
    "None": (18, 18),
    "OneArm": (36, 36),
    "TwoArm": (237, 241),
    "TwoArmUnequal": (32, 32),
}


@pytest.mark.parametrize("loss", list(_CALL_BUDGETS))
@pytest.mark.parametrize("interferometer", ["SU2", "SU11"])
def test_point_record_call_budget(interferometer, loss):
    # counted rather than timed; a generator expression on the row path costs
    # a call each time it resumes. TwoArm with equal etas goes through the
    # shared-gamma quintic
    budget = _CALL_BUDGETS[loss][interferometer == "SU11"]
    assert _calls(point_record, load_spec(_document(interferometer, loss))) <= budget


@pytest.mark.parametrize("loss", ["OneArm", "TwoArm", "TwoArmUnequal"])
def test_lossy_point_record_solves_once(monkeypatch, loss):
    # one optimize_gamma call returns both the two- and the single-parameter bound
    solves = []

    def counted(*args, **kwargs):
        solves.append(args)
        return optimize_gamma(*args, **kwargs)

    monkeypatch.setattr(cli, "optimize_gamma", counted)
    record = point_record(load_spec(_document("SU11", loss)))
    assert len(solves) == 1
    assert record["info_two"] < record["info_single"]


def _eta_sweep_document(start, stop, steps):
    return {
        "interferometer": "SU2",
        "estimation": "TwoParameter",
        "loss": "OneArm",
        "swept_variable": "eta",
        "range": [start, stop, steps],
        "fixed": {"alpha_photons": 4.0, "squeeze_r": 0.5, "splitter_ratio": 0.5},
    }


def test_run_scan_writes_pinned_header_and_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    run_scan(load_spec(_eta_sweep_document(0.1, 0.9, 9)), str(out))
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 10
    assert float(rows[1][0]) == 0.1
    assert float(rows[-1][0]) == 0.9  # endpoint lands exactly on stop
    meta = json.loads((out.with_suffix(".csv.meta.json")).read_text())
    assert meta["spec"]["swept_variable"] == "eta"
    assert meta["spec"]["estimation"] == "TwoParameter"
    assert "timestamp" in meta


def _count_forks(monkeypatch, cpus):
    """Pretend this process may run on `cpus` CPUs; the list collects the
    pid of each fork, as the parent sees it."""
    _pretend_cpus(monkeypatch, cpus)
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _pretend_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def test_run_scan_is_deterministic_across_jobs(tmp_path, monkeypatch):
    # four chunks of 3, 3, 3 and 2 rows; eta outside [0, 1] is an error row
    # whose quoted message holds a comma (chunks 0, 2 and 3), and the other
    # rows carry an a;b gamma pair (chunks 1 and 2), so at --jobs 2 and 3
    # both kinds come from more than one worker
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)
    forks = _count_forks(monkeypatch, cpus=4)
    document = {**_eta_sweep_document(-0.5, 1.5, 11), "loss": "TwoArm"}
    document["fixed"] = {**document["fixed"], "eta_b": 0.75}
    config = _write_config(tmp_path, document)
    outputs = []
    for jobs in ("1", "2", "3"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(["scan", "--config", config, "--output", str(out), "--jobs", jobs]) == EXIT_OK
        outputs.append(out.read_bytes())
    assert len(forks) == 5
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    lines = outputs[0].decode().splitlines()[1:]
    assert sum(',"ValueError: eta_a must be in [0, 1], got ' in line for line in lines) == 6
    assert sum(";" in line for line in lines) == 5


def test_forked_scans_cap_their_workers(tmp_path, monkeypatch):
    # min(jobs, chunks, CPUs); counted on a small scan, never by asking for
    # many real processes
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 2)
    spec = load_spec(_eta_sweep_document(0.1, 0.9, 8))  # four chunks
    forks = _count_forks(monkeypatch, cpus=1)
    for cpus, jobs, workers in ((2, 10_000, 2), (8, 10_000, 4), (8, 3, 3), (8, 1, 0), (1, 4, 0)):
        _pretend_cpus(monkeypatch, cpus)
        forks.clear()
        run_scan(spec, str(tmp_path / "sweep.csv"), jobs)
        assert len(forks) == workers, (cpus, jobs)
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 8)  # one chunk never forks
    forks.clear()
    run_scan(spec, str(tmp_path / "sweep.csv"), 8)
    assert forks == []


def test_scans_run_serially_without_fork(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 2)
    spec = load_spec(_eta_sweep_document(0.1, 0.9, 8))
    run_scan(spec, str(tmp_path / "forked.csv"), 2)
    monkeypatch.delattr(os, "fork")
    run_scan(spec, str(tmp_path / "serial.csv"), 2)
    assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "forked.csv").read_bytes()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failing_worker_fails_the_scan(tmp_path, monkeypatch, capfd):
    # 0.4 is in chunk 1, which worker 1 computes; RuntimeError is a bug, not
    # a row error, so the worker dies with its traceback on stderr
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 2)
    _count_forks(monkeypatch, cpus=2)

    def broken(spec, value):
        if value == 0.4:
            raise RuntimeError("injected failure at 0.4")
        return point_record(spec, value)

    monkeypatch.setattr(cli, "point_record", broken)
    out = tmp_path / "sweep.csv"
    with pytest.raises(RuntimeError, match="scan worker 1 .*status 1"):
        run_scan(load_spec(_eta_sweep_document(0.1, 0.8, 8)), str(out), 2)
    err = capfd.readouterr().err
    assert "Traceback" in err and "RuntimeError: injected failure at 0.4" in err
    assert not (tmp_path / "sweep.csv.meta.json").exists()
    _assert_no_child_left()


def test_a_killed_worker_fails_the_scan(tmp_path, monkeypatch):
    # worker 1 dies in chunk 1 without a traceback; the parent reads the
    # chunk short, names the worker and its signal status, and reaps it
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 2)
    _count_forks(monkeypatch, cpus=2)
    parent = os.getpid()

    def killed(spec, value):
        if value == 0.4 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return point_record(spec, value)

    monkeypatch.setattr(cli, "point_record", killed)
    message = "scan worker 1 sent chunk 1 short and exited with status -9"
    with pytest.raises(RuntimeError, match=message):
        run_scan(load_spec(_eta_sweep_document(0.1, 0.8, 8)), str(tmp_path / "sweep.csv"), 2)
    assert not (tmp_path / "sweep.csv.meta.json").exists()
    _assert_no_child_left()


def test_an_interrupted_forked_scan_leaves_no_worker(tmp_path, monkeypatch):
    # the workers sleep in their first row; an alarm interrupts the parent
    # while it waits for chunk 0, and the workers are killed and reaped
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 2)
    _count_forks(monkeypatch, cpus=2)
    monkeypatch.setattr(cli, "point_record", lambda spec, value: time.sleep(60))

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_scan(load_spec(_eta_sweep_document(0.1, 0.8, 8)), str(tmp_path / "s.csv"), 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 30
    assert not (tmp_path / "s.csv.meta.json").exists()
    _assert_no_child_left()


def test_run_scan_contains_row_errors(tmp_path):
    out = tmp_path / "sweep.csv"
    run_scan(load_spec(_eta_sweep_document(0.5, 1.5, 6)), str(out))
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    good = [row for row in rows if row["error"] == ""]
    bad = [row for row in rows if row["error"] != ""]
    assert good and bad
    assert all(float(row["swept_value"]) > 1.0 for row in bad)
    assert all(row["info_two"] == "" for row in bad)
    assert all(row["info_two"] != "" for row in good)


def _scan_peak_bytes(tmp_path, steps):
    document = {**SU2_LOSSLESS, "swept_variable": "alpha_photons", "range": [0.5, 8.0, steps]}
    document["fixed"] = {k: v for k, v in SU2_LOSSLESS["fixed"].items() if k != "alpha_photons"}
    spec = load_spec(document)
    tracemalloc.start()
    try:
        run_scan(spec, str(tmp_path / f"sweep{steps}.csv"))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_scan_memory_does_not_grow_with_steps(tmp_path):
    # rows go to the CSV as they are computed; none is kept
    small = _scan_peak_bytes(tmp_path, 500)
    large = _scan_peak_bytes(tmp_path, 5000)
    assert large - small < 0.5e6, (small, large)
    assert len((tmp_path / "sweep5000.csv").read_text().splitlines()) == 5001


def test_run_scan_requires_sweep(tmp_path):
    with pytest.raises(ConfigError, match="swept_variable"):
        run_scan(load_spec(dict(SU2_LOSSLESS)), str(tmp_path / "x.csv"))


def test_scan_spec_direct_construction_validates():
    with pytest.raises(ConfigError):
        ScanSpec(
            interferometer=Interferometer.SU2,
            estimation="TwoParameter",
            loss=LossKind.NONE,
            fixed={},
            swept_variable="eta",
            start=0.5,
            stop=0.1,
            steps=5,
        )


# ---------------------------------------------------------------------------
# oracle subcommand plumbing


def test_oracle_check_passes_on_lossless_point(capsys):
    document = {
        "interferometer": "SU2",
        "estimation": "TwoParameter",
        "loss": "None",
        "fixed": {"alpha_photons": 1.0, "squeeze_r": 0.3, "splitter_ratio": 1.0},
    }
    ok = oracle_check(load_spec(document), cutoff=32)
    text = capsys.readouterr().out
    assert ok
    assert "[FAIL]" not in text
    assert text.count("[PASS]") >= 16


def test_oracle_check_covers_kraus_when_loss_configured(capsys):
    document = {
        "interferometer": "SU2",
        "estimation": "TwoParameter",
        "loss": "OneArm",
        "fixed": {
            "alpha_photons": 1.0,
            "squeeze_r": 0.3,
            "splitter_ratio": 1.0,
            "eta": 0.6,
            "gamma": -0.5,
        },
    }
    ok = oracle_check(load_spec(document), cutoff=32)
    text = capsys.readouterr().out
    assert ok
    assert "kraus.f_pp" in text
    assert "kraus.completeness" in text


_ORACLE_POINT = {
    "interferometer": "SU2",
    "estimation": "TwoParameter",
    "fixed": {"alpha_photons": 1.0, "squeeze_r": 0.3, "splitter_ratio": 1.0, "eta": 0.6},
}


@pytest.mark.parametrize(
    "loss, extra",
    [("None", {}), ("OneArm", {}), ("TwoArm", {"eta_b": 0.8, "gamma_b": -1.0})],
)
def test_oracle_check_prints_its_lines_in_a_fixed_order(capsys, loss, extra):
    document = {**_ORACLE_POINT, "loss": loss, "fixed": {**_ORACLE_POINT["fixed"], **extra}}
    if loss == "None":
        del document["fixed"]["eta"]
    oracle_check(load_spec(document), cutoff=16)
    lines = capsys.readouterr().out.splitlines()
    moments = ("mean_a", "mean_b", "var_a", "var_b", "cov")
    matrix = ("f_pp", "f_mm", "f_pm")
    want = [f"{p}.{f}" for f in moments for p in ("cutoff_convergence", "moments")]
    want += [f"correlations.{f}" for f in ("q_a", "q_b", "j")]
    want += [f"qfim.{f}" for f in matrix]
    if loss != "None":
        want += [f"kraus.{f}" for f in matrix] + ["kraus.completeness"]
    names = [re.match(r"\[(?:PASS|FAIL)\] ([\w.]+): ", line).group(1) for line in lines[:-1]]
    assert names == want
    assert re.fullmatch(rf"oracle-check: .* \(cutoff 16, {len(want)} checks\)", lines[-1])


def test_oracle_check_follows_the_loss_model_named_by_loss(capsys):
    one_arm = {
        "interferometer": "SU2",
        "estimation": "TwoParameter",
        "loss": "OneArm",
        "fixed": {"alpha_photons": 1.0, "squeeze_r": 0.3, "splitter_ratio": 1.0, "eta": 0.6},
    }
    # OneArm reads no eta_b: the check is the single-arm matrix, line for line
    spec = load_spec(one_arm)
    with_eta_b = load_spec({**one_arm, "fixed": {**one_arm["fixed"], "eta_b": 0.9}})
    texts = []
    for candidate in (spec, with_eta_b):
        assert oracle_check(candidate, cutoff=32)
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    closed = float(re.search(r"kraus\.f_pp: closed=(\S+)", texts[1]).group(1))
    stats = _build_input(spec, dict(spec.fixed))[2]
    want = c_matrix_single(stats, SingleArmLoss(0.6, -0.5)).f_pp
    assert closed == pytest.approx(want, rel=1e-6)
    # None reads no eta: no kraus.* line
    assert oracle_check(load_spec({**one_arm, "loss": "None"}), cutoff=32)
    assert "kraus." not in capsys.readouterr().out


# ---------------------------------------------------------------------------
# exit codes


def _write_config(tmp_path, document, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document))
    return str(path)


def test_main_point_ok(tmp_path, capsys):
    code = main(["point", "--config", _write_config(tmp_path, SU11_ONE_ARM)])
    assert code == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert set(record) == set(CSV_COLUMNS)
    assert record["info_two"] == pytest.approx(19.25085348011056, rel=1e-9)


def test_main_point_writes_file(tmp_path):
    out = tmp_path / "record.json"
    code = main(
        [
            "point",
            "--config",
            _write_config(tmp_path, SU2_LOSSLESS),
            "--output",
            str(out),
        ]
    )
    assert code == EXIT_OK
    assert json.loads(out.read_text())["error"] == ""


def test_main_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["point", "--config", str(path)])
    assert code == EXIT_CONFIG
    assert "invalid configuration" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document, reason",
    [
        ([1, 2], "configuration must be a JSON object"),
        ("x", "configuration must be a JSON object"),
        (None, "configuration must be a JSON object"),
        ({**SU2_LOSSLESS, "cutoff": None}, "cutoff must be an integer"),
        ({**SU2_LOSSLESS, "cutoff": [64]}, "cutoff must be an integer"),
        ({**SU2_LOSSLESS, "cutoff": math.inf}, "cutoff must be an integer"),
        ({**SU2_LOSSLESS, "fixed": [4.0]}, "fixed must be an object of name -> value"),
    ],
    ids=["list", "string", "null", "cutoff-null", "cutoff-list", "cutoff-inf", "fixed-list"],
)
def test_main_rejects_non_object_config_and_bad_cutoff(tmp_path, capsys, document, reason):
    path = _write_config(tmp_path, document)
    for command in ("point", "oracle-check"):
        assert main([command, "--config", path]) == EXIT_CONFIG
        assert f"invalid configuration: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document, reason",
    [
        ({**SU2_LOSSLESS, "cutoff": 2.7}, "cutoff must be an integer, got 2.7"),
        ({**SU2_LOSSLESS, "cutoff": True}, "cutoff must be an integer, got True"),
        ({**SU2_LOSSLESS, "cutoff": 0}, "cutoff must be a positive integer, got 0"),
        ({**SU2_LOSSLESS, "cutoff": -3}, "cutoff must be a positive integer, got -3"),
        ({**SU2_LOSSLESS, "repeats": 1.5}, "repeats must be an integer, got 1.5"),
        ({**SU2_LOSSLESS, "repeats": True}, "repeats must be an integer, got True"),
        (
            {**_eta_sweep_document(0.2, 0.8, 3), "range": [0.2, 0.8, 3.5]},
            "range steps must be an integer, got 3.5",
        ),
        (
            {**SU2_LOSSLESS, "fixed": {**SU2_LOSSLESS["fixed"], "squeeze_r": False}},
            "fixed squeeze_r must be a number, got False",
        ),
    ],
    ids=[
        "cutoff-fraction",
        "cutoff-bool",
        "cutoff-zero",
        "cutoff-negative",
        "repeats-fraction",
        "repeats-bool",
        "steps-fraction",
        "fixed-bool",
    ],
)
def test_main_rejects_non_integer_counts_and_nonpositive_cutoff(
    tmp_path, capsys, document, reason
):
    path = _write_config(tmp_path, document)
    for command in ("point", "oracle-check"):
        assert main([command, "--config", path]) == EXIT_CONFIG
        assert f"invalid configuration: {reason}" in capsys.readouterr().err


def test_integral_floats_are_accepted_as_counts():
    spec = load_spec({**_eta_sweep_document(0.2, 0.8, 3.0), "repeats": 2.0})
    assert (spec.steps, spec.repeats) == (3, 2)
    assert isinstance(spec.steps, int) and isinstance(spec.repeats, int)


@pytest.mark.parametrize(
    "document, reason",
    [
        ({**SU2_LOSSLESS, "repeats": None}, "repeats must be an integer, got None"),
        (
            {**SU2_LOSSLESS, "fixed": {**SU2_LOSSLESS["fixed"], "alpha_photons": None}},
            "fixed alpha_photons must be a number, got None",
        ),
        (
            {**_eta_sweep_document(0.2, 0.8, 3), "range": [None, 1, 3]},
            "range start must be a number, got None",
        ),
        ({**SU2_LOSSLESS, "repeats": math.inf}, "repeats must be an integer, got inf"),
    ],
    ids=["repeats-null", "fixed-null", "range-null", "repeats-inf"],
)
def test_main_rejects_null_config_values(tmp_path, capsys, document, reason):
    path = _write_config(tmp_path, document)
    for command in ("point", "oracle-check"):
        assert main([command, "--config", path]) == EXIT_CONFIG
        assert f"invalid configuration: {reason}" in capsys.readouterr().err


def test_main_rejects_unknown_config_key(tmp_path, capsys):
    document = dict(SU2_LOSSLESS)
    document["sweeps"] = 3
    code = main(["point", "--config", _write_config(tmp_path, document)])
    assert code == EXIT_CONFIG


SU11_TWO_ARM = {**SU11_ONE_ARM, "loss": "TwoArm"}


@pytest.mark.parametrize(
    "overrides, fixed, reason",
    [
        (
            {},
            {"alpha_photons": math.nan},
            "fixed alpha_photons must be a finite number, got nan",
        ),
        (
            {"loss": "OneArm"},
            {"squeeze_r": math.nan},
            "fixed squeeze_r must be a finite number, got nan",
        ),
        (
            {},
            {"alpha_photons": "1e400"},
            "fixed alpha_photons must be a finite number, got inf",
        ),
        ({}, {"eta": -math.inf}, "fixed eta must be a finite number, got -inf"),
        (
            {"swept_variable": "gain", "range": [math.nan, 1.3, 3]},
            {},
            "range start must be a finite number, got nan",
        ),
        (
            {"swept_variable": "gain", "range": [1.1, "1e400", 3]},
            {},
            "range stop must be a finite number, got inf",
        ),
        (
            {"estimation": [1]},
            {},
            "estimation must be SingleParameter or TwoParameter, got [1]",
        ),
        (
            {"estimation": {}},
            {},
            "estimation must be SingleParameter or TwoParameter, got {}",
        ),
        ({}, {"etab": 0.3}, "unknown fixed parameters: ['etab']"),
        ({"repeats": 10**400}, {}, f"repeats must be an integer, got {10**400}"),
        (
            {"swept_variable": "gain", "range": [1.1, 1.3, 10**400]},
            {},
            f"range steps must be an integer, got {10**400}",
        ),
    ],
    ids=[
        "fixed-nan",
        "fixed-nan-one-arm",
        "fixed-1e400",
        "fixed-negative-infinity",
        "range-start-nan",
        "range-stop-1e400",
        "estimation-list",
        "estimation-object",
        "fixed-typo",
        "repeats-beyond-float",
        "steps-beyond-float",
    ],
)
def test_main_rejects_nonfinite_unhashable_and_unknown_values(
    tmp_path, capsys, overrides, fixed, reason
):
    # json reads NaN, Infinity, 1e400 and integers of any size; the string
    # "1e400" stands for the literal
    out = tmp_path / "scan.csv"
    commands = (("point", []), ("oracle-check", []), ("scan", ["--output", str(out)]))
    for command, extra in commands:
        document = {**SU11_TWO_ARM, **overrides, "fixed": {**SU11_TWO_ARM["fixed"], **fixed}}
        if command == "scan":
            document.setdefault("swept_variable", "gain")
            document.setdefault("range", [1.1, 1.3, 3])
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document).replace('"1e400"', "1e400"))
        assert main([command, "--config", str(path), *extra]) == EXIT_CONFIG, command
        captured = capsys.readouterr()
        assert f"invalid configuration: {reason}" in captured.err, command
        assert captured.out == ""
    assert not out.exists()


_GAIN_SWEEP = {**SU11_TWO_ARM, "swept_variable": "gain", "range": [1.1, 1.3, 3]}
_RANGE_FIELDS = ("start", "stop", "steps")


@pytest.mark.parametrize(
    "field, bad, reason",
    [
        (
            "estimation",
            "SingleParam",
            "estimation must be SingleParameter or TwoParameter, got 'SingleParam'",
        ),
        ("fixed", {"etab": 0.3}, "unknown fixed parameters: ['etab']"),
        ("fixed", {"eta": "x"}, "fixed eta must be a number, got 'x'"),
        ("fixed", {"gain": math.nan}, "fixed gain must be a finite number, got nan"),
        ("fixed", [4.0], "fixed must be an object of name -> value"),
        ("start", math.nan, "range start must be a finite number, got nan"),
        ("stop", math.inf, "range stop must be a finite number, got inf"),
        ("steps", 3.5, "range steps must be an integer, got 3.5"),
        ("steps", True, "range steps must be an integer, got True"),
        ("repeats", 1.5, "repeats must be an integer, got 1.5"),
        ("repeats", True, "repeats must be an integer, got True"),
    ],
    ids=[
        "estimation-typo",
        "fixed-typo",
        "fixed-string",
        "fixed-nan",
        "fixed-list",
        "start-nan",
        "stop-inf",
        "steps-fraction",
        "steps-bool",
        "repeats-fraction",
        "repeats-bool",
    ],
)
def test_scan_spec_built_in_code_refuses_what_load_spec_refuses(field, bad, reason):
    # a ScanSpec built directly, the library's way into point_record and
    # run_scan, meets the same checks and messages as a configuration
    document = {**_GAIN_SWEEP, "range": list(_GAIN_SWEEP["range"])}
    if isinstance(bad, dict):  # entries laid over a valid fixed
        bad = {**_GAIN_SWEEP["fixed"], **bad}
    if field in _RANGE_FIELDS:
        document["range"][_RANGE_FIELDS.index(field)] = bad
    else:
        document[field] = bad
    with pytest.raises(ConfigError) as loaded:
        load_spec(document)
    with pytest.raises(ConfigError) as built:
        ScanSpec(**{**load_spec(_GAIN_SWEEP)._asdict(), field: bad})
    assert str(loaded.value) == str(built.value) == reason


@pytest.mark.parametrize(
    "command, code, report",
    [
        ("point", EXIT_COMPUTE, "computation failed"),
        ("oracle-check", EXIT_ORACLE, "oracle failure"),
    ],
)
def test_an_overflowing_closed_form_is_a_caught_error(tmp_path, capsys, command, code, report):
    # sinh(r)**2 overflows from r of about 356
    document = {**SU2_LOSSLESS, "fixed": {**SU2_LOSSLESS["fixed"], "squeeze_r": 400.0}}
    assert main([command, "--config", _write_config(tmp_path, document)]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{report}: OverflowError: ")
    assert captured.out == ""


def test_a_sweep_past_the_float_range_writes_error_rows_and_its_meta(tmp_path):
    # gain**2 overflows from a gain of about 1.3e154: the first row is
    # computed and the other three are error rows
    document = {
        **SU11_ONE_ARM,
        "loss": "None",
        "swept_variable": "gain",
        "range": [1.5, 1e160, 4],
        "fixed": {"alpha_photons": 4.0, "squeeze_r": 0.5},
    }
    out = tmp_path / "scan.csv"
    config = _write_config(tmp_path, document)
    assert main(["scan", "--config", config, "--output", str(out)]) == EXIT_OK
    with open(out, newline="") as handle:
        errors = [row["error"] for row in csv.DictReader(handle)]
    assert errors[0] == "" and len(errors) == 4
    assert all(error.startswith("OverflowError: ") for error in errors[1:])
    assert (tmp_path / "scan.csv.meta.json").exists()


def test_point_refuses_moments_past_the_float_range(tmp_path, capsys):
    # alpha_photons 1e308 leaves the variances infinite, which the optimiser
    # would divide by; ModeStatistics refuses them
    document = {**SU11_ONE_ARM, "fixed": {**SU11_ONE_ARM["fixed"], "alpha_photons": 1e308}}
    assert main(["point", "--config", _write_config(tmp_path, document)]) == EXIT_COMPUTE
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "computation failed: ValueError: variances must be >= 0 and finite: inf"
    )
    assert captured.out == ""


@pytest.mark.parametrize("loss", ["OneArm", "TwoArm"])
def test_main_oracle_check_requires_eta_with_loss(tmp_path, capsys, loss):
    # without eta there is no kraus.* line to run, which must not read as a pass
    fixed = {k: v for k, v in SU11_ONE_ARM["fixed"].items() if k != "eta"}
    document = {**SU11_ONE_ARM, "loss": loss, "cutoff": 16, "fixed": fixed}
    code = main(["oracle-check", "--config", _write_config(tmp_path, document)])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "invalid configuration: fixed parameter 'eta' is required" in captured.err
    assert captured.out == ""


def test_main_point_compute_failure(tmp_path, capsys):
    document = {**SU2_LOSSLESS, "fixed": {**SU2_LOSSLESS["fixed"], "squeeze_r": -0.5}}
    code = main(["point", "--config", _write_config(tmp_path, document)])
    assert code == EXIT_COMPUTE
    assert "computation failed: ValueError: squeeze_r" in capsys.readouterr().err


def test_negative_splitter_ratio_fails_the_point_and_its_scan_row(tmp_path, capsys):
    reason = "ConfigError: splitter_ratio must be non-negative, got -0.5"
    document = {**SU2_LOSSLESS, "fixed": {**SU2_LOSSLESS["fixed"], "splitter_ratio": -0.5}}
    assert main(["point", "--config", _write_config(tmp_path, document)]) == EXIT_COMPUTE
    assert f"computation failed: {reason}" in capsys.readouterr().err
    out = tmp_path / "scan.csv"
    fixed = {k: v for k, v in SU2_LOSSLESS["fixed"].items() if k != "splitter_ratio"}
    sweep = {**SU2_LOSSLESS, "fixed": fixed, "swept_variable": "splitter_ratio"}
    sweep["range"] = [-0.5, 0.5, 3]  # the first row fails, the others do not
    config = _write_config(tmp_path, sweep)
    assert main(["scan", "--config", config, "--output", str(out)]) == EXIT_OK
    with open(out, newline="") as handle:
        assert [row["error"] for row in csv.DictReader(handle)] == [reason, "", ""]


def test_main_reads_the_config_from_stdin(tmp_path, capsys, monkeypatch):
    assert main(["point", "--config", _write_config(tmp_path, SU11_ONE_ARM)]) == EXIT_OK
    from_file = capsys.readouterr().out
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(SU11_ONE_ARM)))
    assert main(["point", "--config", "-"]) == EXIT_OK
    assert capsys.readouterr().out == from_file


def test_main_scan_roundtrip(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(
        [
            "scan",
            "--config",
            _write_config(tmp_path, _eta_sweep_document(0.2, 0.8, 4)),
            "--output",
            str(out),
            "--jobs",
            "2",
        ]
    )
    assert code == EXIT_OK
    assert out.exists()
    assert (tmp_path / "scan.csv.meta.json").exists()


def test_main_oracle_check_report_follows_redirected_stdout(tmp_path, capsys):
    document = {
        "interferometer": "SU2",
        "estimation": "TwoParameter",
        "loss": "None",
        "cutoff": 24,
        "fixed": {"alpha_photons": 1.0, "squeeze_r": 0.3, "splitter_ratio": 0.5},
    }
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["oracle-check", "--config", _write_config(tmp_path, document)])
    assert code == EXIT_OK
    assert "[PASS] moments.mean_a" in buffer.getvalue()
    assert "oracle-check: all identities hold (cutoff 24" in buffer.getvalue()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "interferometer,splitter",
    [("SU11", {"gain": 1.0}), ("SU2", {"splitter_ratio": 0.0})],
)
def test_main_oracle_check_passes_on_exactly_zero_moments(tmp_path, interferometer, splitter):
    # unit gain leaves cov = 0 and a zero splitter ratio leaves arm b dark:
    # closed forms of exactly 0 against oracle round-off ~1e-17
    document = {
        "interferometer": interferometer,
        "estimation": "TwoParameter",
        "loss": "None",
        "cutoff": 24,
        "fixed": {"alpha_photons": 1.0, "squeeze_r": 0.3, **splitter},
    }
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["oracle-check", "--config", _write_config(tmp_path, document)])
    assert code == EXIT_OK, buffer.getvalue()
    assert "[FAIL]" not in buffer.getvalue()


@pytest.mark.parametrize("field", ["mean_a", "mean_b", "var_a", "var_b", "cov"])
def test_oracle_check_fails_a_closed_moment_off_by_1e_3(monkeypatch, capsys, field):
    def shifted(inp):
        stats = nbs_moments(inp)
        # through the constructor, so the shifted moments are validated too
        return type(stats)(**{**stats._asdict(), field: getattr(stats, field) + 1e-3})

    monkeypatch.setattr("phasebound.cli.nbs_moments", shifted)
    document = {
        "interferometer": "SU11",
        "estimation": "TwoParameter",
        "loss": "None",
        "fixed": {"alpha_photons": 1.0, "squeeze_r": 0.3, "gain": 1.0},
    }
    assert not oracle_check(load_spec(document), cutoff=24)
    assert f"[FAIL] moments.{field}:" in capsys.readouterr().out


def test_main_oracle_check_cutoff_refusal(tmp_path, capsys):
    document = {
        "interferometer": "SU2",
        "estimation": "TwoParameter",
        "loss": "None",
        "cutoff": 64,
        "fixed": {"alpha_photons": 25.0, "squeeze_r": 2.0, "splitter_ratio": 1.0},
    }
    code = main(["oracle-check", "--config", _write_config(tmp_path, document)])
    assert code == EXIT_ORACLE
    assert "CutoffTooSmall" in capsys.readouterr().err


_SCAN_ALPHA = {"swept_variable": "alpha_photons", "range": [1.0, 2.0, 3]}


@pytest.mark.parametrize(
    "document, missing",
    [
        (SU2_LOSSLESS, "squeeze_r"),
        (SU2_LOSSLESS, "splitter_ratio"),
        (SU11_ONE_ARM, "gain"),
        (SU11_ONE_ARM, "eta"),
        (SU11_TWO_ARM, "eta"),
    ],
)
def test_main_rejects_a_missing_required_parameter(tmp_path, capsys, document, missing):
    # every command exits 1 before computing, and scan writes no CSV
    fixed = {k: v for k, v in document["fixed"].items() if k != missing}
    reason = f"fixed parameter {missing!r} is required for this spec"
    out = tmp_path / "scan.csv"
    commands = (("point", []), ("oracle-check", []), ("scan", ["--output", str(out)]))
    for command, extra in commands:
        doc = {**document, "fixed": fixed}
        if command == "scan":
            doc.update(_SCAN_ALPHA)
        path = _write_config(tmp_path, doc)
        assert main([command, "--config", path, *extra]) == EXIT_CONFIG, command
        captured = capsys.readouterr()
        assert f"invalid configuration: {reason}" in captured.err, command
        assert captured.out == "", command
    assert not out.exists()
    spec = load_spec(document)
    with pytest.raises(ConfigError, match=reason):
        type(spec)(**{**spec._asdict(), "fixed": fixed})


@pytest.mark.parametrize(
    "document, swept",
    [(SU2_LOSSLESS, "gain"), (SU2_LOSSLESS, "eta"), (SU11_ONE_ARM, "splitter_ratio")],
)
def test_main_scan_rejects_a_sweep_the_spec_does_not_read(tmp_path, capsys, document, swept):
    out = tmp_path / "scan.csv"
    sweep = {"swept_variable": swept, "range": [0.2, 0.8, 3]}
    config = _write_config(tmp_path, {**document, **sweep})
    assert main(["scan", "--config", config, "--output", str(out)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"for this spec, got {swept!r}" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command", ["point", "oracle-check"])
def test_main_point_and_oracle_check_reject_a_sweep(tmp_path, capsys, command):
    config = _write_config(tmp_path, {**SU2_LOSSLESS, **_SCAN_ALPHA})
    assert main([command, "--config", config]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"invalid configuration: {command} takes no swept_variable" in captured.err
    assert captured.out == ""


def test_main_point_reports_an_unwritable_output(tmp_path, capsys):
    out = tmp_path / "missing" / "record.json"
    config = _write_config(tmp_path, SU2_LOSSLESS)
    code = main(["point", "--config", config, "--output", str(out)])
    assert code == EXIT_COMPUTE
    assert "cannot write output:" in capsys.readouterr().err


def test_main_scan_reports_an_unwritable_output_before_any_row(tmp_path, capsys, monkeypatch):
    rows = []
    monkeypatch.setattr(cli, "point_record", lambda *args: rows.append(args))
    config = _write_config(tmp_path, _eta_sweep_document(0.2, 0.8, 4))
    code = main(["scan", "--config", config, "--output", str(tmp_path / "missing" / "s.csv")])
    assert code == EXIT_COMPUTE
    assert "cannot write output:" in capsys.readouterr().err
    assert rows == []


def _schur_reference(record, target, eta=1.0, eta_b=1.0):
    """(info_two, delta_f) at 50 digits, from the record's own moments and
    gamma: C at that gamma by the formulas of qfim_lossy, then the Schur
    complement for the target."""
    mp = pytest.importorskip("mpmath")
    gamma = record["gamma_opt_numeric"]
    gammas = (0.0, 0.0) if gamma is None else gamma if isinstance(gamma, list) else (gamma, 0.0)
    with mp.workdps(50):
        kept = []
        for arm, eta_i, gamma_i in (("a", eta, gammas[0]), ("b", eta_b, gammas[1])):
            eta_i, lost = mp.mpf(eta_i), mp.mpf(gamma_i) + 1
            u = 1 - lost * (1 - eta_i)
            loss = lost**2 * (1 - eta_i) * eta_i * mp.mpf(record[f"mean_{arm}"])
            kept.append((u, u**2 * mp.mpf(record[f"var_{arm}"]) + loss))
        (u_a, var_a), (u_b, var_b) = kept
        cov = u_a * u_b * mp.mpf(record["cov"])
        f_pp, f_mm, f_pm = var_a + var_b + 2 * cov, var_a + var_b - 2 * cov, var_a - var_b
        diag, comp = (f_pp, f_mm) if target == "SU11" else (f_mm, f_pp)
        shift = f_pm**2 / comp
        return float(diag - shift), float(shift)


@pytest.mark.parametrize(
    "document",
    [
        {**SU2_LOSSLESS, "fixed": {**SU2_LOSSLESS["fixed"], "alpha_photons": 1e300}},
        {
            "interferometer": "SU11",
            "estimation": "TwoParameter",
            "loss": "None",
            "fixed": {"alpha_photons": 1e300, "squeeze_r": 0.5, "gain": 1.2},
        },
    ],
    ids=["SU2", "SU11"],
)
def test_main_point_takes_an_overflowing_schur_product_in_range(tmp_path, capsys, document):
    # the moments, F and the bound are finite; only f_pm**2 is not
    code = main(["point", "--config", _write_config(tmp_path, document)])
    assert code == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    info_two, delta_f = _schur_reference(record, document["interferometer"])
    assert record["info_two"] == pytest.approx(info_two, rel=4.5e-16)
    assert record["delta_f"] == pytest.approx(delta_f, rel=4.5e-16)


@pytest.mark.parametrize(
    "loss, extra",
    [("OneArm", {}), ("TwoArm", {"eta_b": 0.7})],
    ids=["OneArm", "TwoArm-unequal"],
)
def test_main_point_takes_an_overflowing_schur_product_in_range_under_loss(
    tmp_path, capsys, loss, extra
):
    fixed = {"alpha_photons": 1e200, "squeeze_r": 0.5, "splitter_ratio": 1.0, "eta": 0.5}
    document = {**SU2_LOSSLESS, "loss": loss, "fixed": {**fixed, **extra}}
    code = main(["point", "--config", _write_config(tmp_path, document)])
    assert code == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    info_two, delta_f = _schur_reference(record, "SU2", 0.5, extra.get("eta_b", 1.0))
    assert record["info_two"] == pytest.approx(info_two, rel=4.5e-16)
    assert record["delta_f"] == pytest.approx(delta_f, rel=4.5e-16)
    assert record["info_two"] <= record["info_single"] < math.inf


_WEAK_SU2 = {
    **SU2_LOSSLESS,
    "fixed": {"alpha_photons": 1e-13, "squeeze_r": 1e-7, "splitter_ratio": 0.5},
}


def test_weak_input_keeps_its_overestimation():
    # the bounds are homogeneous of degree 1 in the moments, so ~1e-13 photons
    # keep the Schur gap; an absolute zero threshold of 1e-12 on f_pm reported
    # delta_f 0.0 and info_two = info_single, 5.6 % above the Schur value
    record = point_record(load_spec(_WEAK_SU2))
    info_two, delta_f = _schur_reference(record, "SU2")
    assert record["info_two"] == pytest.approx(info_two, rel=1e-12)
    assert record["delta_f"] == pytest.approx(delta_f, rel=1e-12)
    assert record["info_two"] < record["info_single"]


def test_weak_input_under_loss_reaches_the_least_bound():
    # one lossy arm: the least Schur bound over gamma is that of the effective
    # covariance M = V (I + K V)^-1, K = diag((1 - eta)/(eta <n_a>), 0), at 50
    # digits (the absolute threshold reported the diagonal, 5.4e-4 above it)
    mp = pytest.importorskip("mpmath")
    fixed = {**_WEAK_SU2["fixed"], "eta": 0.6}
    record = point_record(load_spec({**_WEAK_SU2, "loss": "OneArm", "fixed": fixed}))
    with mp.workdps(50):
        mean_a, var_a = mp.mpf(record["mean_a"]), mp.mpf(record["var_a"])
        var_b, cov = mp.mpf(record["var_b"]), mp.mpf(record["cov"])
        d = mp.mpf(0.6) * mean_a / (1 - mp.mpf(0.6))
        m_aa, m_ab = var_a * d / (d + var_a), cov * d / (d + var_a)
        m_bb = var_b - cov**2 / (d + var_a)
        f_pp, f_mm = m_aa + m_bb + 2 * m_ab, m_aa + m_bb - 2 * m_ab
        least = float(f_mm - (m_aa - m_bb) ** 2 / f_pp)
    assert record["info_two"] == pytest.approx(least, rel=1e-12)
    assert record["info_two"] < record["info_single"]


@pytest.mark.parametrize("gain, info", [(1.5, 2.0454545454545454), (2.0, 5.333333333333334)])
def test_vacuum_su11_under_symmetric_loss_has_no_overestimation(gain, info):
    # vacuum into an NBS gives |J| = 1 and equal variances: f_pm = 0, so the
    # two bounds coincide; a rounding residue in the shared-gamma quintic made
    # the two-parameter bound 11.25 and 48.0
    fixed = {"alpha_photons": 0.0, "squeeze_r": 0.0, "gain": gain, "eta": 0.5}
    record = point_record(load_spec(_document("SU11", "TwoArm", fixed=fixed)))
    assert record["info_two"] == record["info_single"] == info


def test_cli_flag_set_is_pinned():
    # one way to set each value: a flag here is a second way to set a JSON field
    commands = next(
        action.choices for action in build_parser()._actions if action.dest == "command"
    )
    flags = {
        name: {action.dest for action in parser._actions if action.dest != "help"}
        for name, parser in commands.items()
    }
    assert flags == {
        "point": {"config", "output"},
        "scan": {"config", "output", "jobs"},
        "oracle-check": {"config"},
    }


def test_main_rejects_missing_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == EXIT_CONFIG


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_main_scan_refuses_jobs_below_one(tmp_path, capsys, jobs):
    config = _write_config(tmp_path, _eta_sweep_document(0.2, 0.8, 4))
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--config", config, "--output", str(out), "--jobs", jobs])
    assert exc.value.code == EXIT_CONFIG
    assert f"--jobs: must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()
