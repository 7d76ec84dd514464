"""Tests of the benchmark itself: seeding, the output checks, metric names.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import configs  # noqa: E402
import verify  # noqa: E402
from phasebound import cli  # noqa: E402
from probes import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def _first_cycles(workload: str, seed: int, count: int = 2) -> list:
    return list(itertools.islice(configs.cycles(workload, seed), count))


@pytest.mark.parametrize("workload", configs.WORKLOADS)
def test_configs_are_deterministic_per_seed(workload):
    assert _first_cycles(workload, 7) == _first_cycles(workload, 7)
    assert _first_cycles(workload, 7) != _first_cycles(workload, 8)


@pytest.mark.parametrize("workload", configs.WORKLOADS)
def test_a_run_plan_depends_only_on_seed_and_length(workload):
    seconds = DECLARED["run_seconds"]
    planned = configs.plan(workload, 4, seconds)
    assert planned == configs.plan(workload, 4, seconds)
    assert planned == _first_cycles(workload, 4, len(planned))
    assert len(planned) == max(1, round(seconds / configs.CYCLE_S[workload]))


@pytest.mark.parametrize("workload", configs.WORKLOADS)
def test_every_cycle_has_the_same_mix(workload):
    def kinds(cycle):
        return sorted(op.label.split("/jobs")[0] for op in cycle)

    first, second = _first_cycles(workload, 3)
    assert kinds(first) == kinds(second)
    scans = [op for op in first if op.command == "scan"]
    assert sum(op.jobs == 1 for op in scans) * 2 == len(scans)
    assert all(op.jobs <= configs.NPROC for op in first)


def _point(doc: dict) -> dict:
    record = cli.point_record(cli.load_spec(doc))
    return json.loads(json.dumps({key: record[key] for key in cli.CSV_COLUMNS}, default=repr))


SU2_ONE_ARM = {
    "interferometer": "SU2",
    "estimation": "TwoParameter",
    "loss": "OneArm",
    "fixed": {"alpha_photons": 4.0, "squeeze_r": 0.5, "splitter_ratio": 1.5, "eta": 0.7},
}
GOOD = [
    SU2_ONE_ARM,
    {"interferometer": "SU11", "estimation": "SingleParameter", "loss": "None",
     "fixed": {"alpha_photons": 2.0, "squeeze_r": 0.4, "gain": 1.3}},
    {"interferometer": "SU11", "estimation": "TwoParameter", "loss": "TwoArm",
     "fixed": {"alpha_photons": 2.0, "squeeze_r": 0.4, "gain": 1.3, "eta": 0.8}},
    {"interferometer": "SU2", "estimation": "TwoParameter", "loss": "TwoArm",
     "fixed": {"alpha_photons": 3.0, "squeeze_r": 0.3, "splitter_ratio": 0.8, "eta": 0.8,
               "eta_b": 0.6}},
]


@pytest.mark.parametrize("doc", GOOD, ids=lambda d: f"{d['interferometer']}-{d['loss']}")
def test_verifier_passes_a_good_row(doc):
    assert verify.check_rows(doc, [_point(doc)]) == [None]


def test_verifier_passes_a_good_scan(tmp_path):
    doc = dict(SU2_ONE_ARM, swept_variable="eta", range=[0.4, 0.9, 5])
    doc["fixed"] = {k: v for k, v in doc["fixed"].items() if k != "eta"}
    out = tmp_path / "scan.csv"
    cli.run_scan(cli.load_spec(doc), str(out))
    assert verify.check_scan(doc, out.read_text()) == [None] * 5


def _recomputed_at(doc: dict, row: dict, gamma: float) -> dict:
    """The row a correct program would write had it stopped at `gamma`."""
    m = {k: row[k] for k in ("mean_a", "mean_b", "var_a", "var_b", "cov")}
    eta = doc["fixed"]["eta"]
    f_pp, f_mm, f_pm = verify.lossy_matrix(m, eta, 1.0, gamma, 0.0)
    info_two = f_mm - f_pm * f_pm / f_pp
    return dict(
        row, f_pp=f_pp, f_mm=f_mm, f_pm=f_pm, info_two=info_two, info_optimal=info_two,
        delta_f=f_pm * f_pm / f_pp, gamma_opt_numeric=gamma, qcrb_two=info_two ** -0.5,
    )


def test_verifier_flags_an_inflated_optimum():
    row = _point(SU2_ONE_ARM)
    inflated = dict(row, info_optimal=row["info_optimal"] * 1.01)
    assert verify.check_rows(SU2_ONE_ARM, [inflated]) != [None]
    # self-consistent in every column, but the bound is not the minimum over gamma
    planted = _recomputed_at(SU2_ONE_ARM, row, row["gamma_opt_numeric"] + 0.5)
    assert planted["info_two"] > row["info_two"]
    [reason] = verify.check_rows(SU2_ONE_ARM, [planted])
    assert reason.startswith(verify.NOT_MINIMAL)


def test_verifier_flags_a_wrong_qcrb_two():
    row = _point(SU2_ONE_ARM)
    [reason] = verify.check_rows(SU2_ONE_ARM, [dict(row, qcrb_two=row["qcrb_two"] * (1 + 1e-6))])
    assert reason.startswith("qcrb_two=")


def test_verifier_flags_an_error_row(tmp_path):
    # a negative eta in a sweep is rejected row by row; the CLI keeps the row
    doc = dict(SU2_ONE_ARM, swept_variable="eta", range=[-0.5, 0.5, 3])
    out = tmp_path / "scan.csv"
    cli.run_scan(cli.load_spec(doc), str(out))
    verdicts = verify.check_scan(doc, out.read_text())
    assert verdicts[0].startswith("error cell:")
    planted = dict(_point(SU2_ONE_ARM), error="ValueError: x")
    assert verify.check_rows(SU2_ONE_ARM, [planted]) == ["error cell: ValueError: x"]


def test_verifier_flags_oracle_failures():
    good = "[PASS] moments.mean_a: ok\noracle-check: all identities hold (cutoff 32, 1 checks)\n"
    assert verify.check_oracle(0, good) == (1, None)
    assert verify.check_oracle(3, good.replace("[PASS]", "[FAIL]"))[1].startswith("[FAIL]")
    assert verify.check_oracle(3, "")[1] is not None


def test_benchmark_json_declares_distinct_names():
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in DECLARED[section]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in DECLARED["workloads"]} <= set(configs.WORKLOADS)


def test_every_layer_metric_is_declared_with_its_unit(tmp_path):
    import run

    # one cycle of every workload, made cheap: 3-row scans, cutoff-16 oracle checks
    small = []
    for workload in configs.WORKLOADS:
        for op in next(configs.cycles(workload, 5)):
            if op.command == "scan":
                doc = dict(op.config, range=[*op.config["range"][:2], 3])
                op = dataclasses.replace(op, config=doc, rows=3)
            elif op.command == "oracle-check":
                op = dataclasses.replace(op, config=dict(op.config, cutoff=16))
            small.append(op)
    with Tracer() as tracer:
        for i, op in enumerate(small):
            run.run_in_process(cli, op, tmp_path, f"op{i}")
    assert tracer.missing == []
    produced = {name: unit for name, (_, unit) in run.layer_metrics(tracer).items()}
    declared = _declared("per_layer")
    assert produced.items() <= declared.items()
    # the rest come from the traced run's own start-up, plain and jobs passes
    rest = {n for n in declared if n.startswith(("startup.", "trace.", "cli.run_scan.jobs_"))}
    assert set(produced) | rest == set(declared)


def test_a_missing_probe_target_is_reported_not_raised():
    probes = (("phasebound.cli", "no_such_function", "cli.no_such_function", None, None),)
    with Tracer(probes) as tracer:
        pass
    assert tracer.missing == ["phasebound.cli.no_such_function"]


def test_end_to_end_run_prints_declared_metrics():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "point-cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert result["attempted"] == 8 and result["correct"]
