"""Seeded operations for each benchmark workload.

A workload is an endless sequence of cycles. A cycle holds one operation
of every kind the workload mixes (interferometer x loss family, and for
scans the ``--jobs`` split), so any whole number of cycles carries the
same mix whatever the seed; the seed only draws the parameters. The
program sees nothing but the generated configuration documents.

A run's plan is a fixed number of cycles, set by the seed and the run
length alone, so that the same seed always attempts the same operations
and finds the same failures however fast the machine is.

Only the standard library is imported here: the runner keeps its own
process small while it spawns the timed CLI processes, because a child's
peak RSS includes the parent's when it is spawned.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass

WORKLOADS = ("point-cli", "scan-lossy", "scan-lossless", "oracle-check")

# the CPUs this process may run on, as `nproc` counts them
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# one operation per loss family and interferometer; "TwoArm-independent"
# carries its own eta_b, which switches the CLI to independent gammas
_LOSSES = ("None", "OneArm", "TwoArm-symmetric", "TwoArm-independent")
_INTERFEROMETERS = ("SU2", "SU11")

# rows per scan: cheap one-dimensional rows in bulk, few independent-arm
# rows (each is a 2-D coordinate descent costing 0.05-0.6 s), and long
# lossless sweeps so per-row overhead outweighs process start-up
LOSSY_ROWS = {"OneArm": 16, "TwoArm-symmetric": 16, "TwoArm-independent": 4}
LOSSLESS_ROWS = 20_000
ORACLE_CUTOFFS = (32, 64)

# wall seconds of one cycle's CLI processes, measured on a 2-vCPU x86-64
# VM in its slower phases (it drifts by about +-25%); a run
# plans round(seconds / CYCLE_S) cycles, so a plan rarely takes longer
# than the run and repeats fill the rest
CYCLE_S = {"point-cli": 5.5, "scan-lossy": 6.0, "scan-lossless": 11.0, "oracle-check": 11.0}

# parameter ranges of the generated points; the oracle ranges keep the
# cutoff-32 grid adequate so that its accuracy gates hold
_RANGES = {
    "alpha_photons": (0.05, 9.0),
    "squeeze_r": (0.05, 1.2),
    "splitter_ratio": (0.1, 5.0),
    "gain": (1.02, 3.0),
    "eta": (0.3, 0.98),
}
_ORACLE_RANGES = {
    "alpha_photons": (0.2, 3.0),
    "squeeze_r": (0.05, 0.5),
    "splitter_ratio": (0.2, 5.0),
    "gain": (1.02, 1.3),
    "eta": (0.3, 0.98),
    "gamma": (-1.5, 0.5),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation: its subcommand, configuration and expected size."""

    command: str  # "point" | "scan" | "oracle-check"
    label: str  # the operation's kind within its workload's cycle
    config: dict
    jobs: int = 1
    rows: int = 1  # result rows a scan must write (1 for point/oracle-check)

    def argv(self, config_path: str, output_path: str) -> list[str]:
        args = [self.command, "--config", config_path]
        if self.command == "scan":
            args += ["--output", output_path, "--jobs", str(self.jobs)]
        elif self.command == "point":
            args += ["--output", output_path]
        return args


def _draw(rng: random.Random, name: str, ranges: dict) -> float:
    lo, hi = ranges[name]
    return rng.uniform(lo, hi)


def _point_doc(rng: random.Random, interferometer: str, loss: str, ranges: dict) -> dict:
    fixed = {
        "alpha_photons": _draw(rng, "alpha_photons", ranges),
        "squeeze_r": _draw(rng, "squeeze_r", ranges),
    }
    if interferometer == "SU2":
        fixed["splitter_ratio"] = _draw(rng, "splitter_ratio", ranges)
    else:
        fixed["gain"] = _draw(rng, "gain", ranges)
    if loss != "None":
        fixed["eta"] = _draw(rng, "eta", ranges)
    if loss == "TwoArm-independent":
        eta_b = _draw(rng, "eta", ranges)
        while eta_b == fixed["eta"]:
            eta_b = _draw(rng, "eta", ranges)
        fixed["eta_b"] = eta_b
    return {
        "interferometer": interferometer,
        "estimation": rng.choice(("SingleParameter", "TwoParameter")),
        "loss": loss.split("-")[0],
        "fixed": fixed,
    }


def _sweep(rng: random.Random, doc: dict, choices: tuple, steps: int, whole: bool = False) -> dict:
    """Turn a point document into a scan of one variable over a random
    sub-range of its range, or over all of it when `whole` is set."""
    variable = rng.choice(choices)
    lo, hi = a, b = _RANGES[variable]
    if not whole:
        a, b = sorted((rng.uniform(lo, hi), rng.uniform(lo, hi)))
        if b - a < 0.25 * (hi - lo):  # keep every sweep wide enough to vary the cost
            a, b = lo + (hi - lo) * 0.25 * rng.random(), hi - (hi - lo) * 0.25 * rng.random()
    doc = dict(doc, swept_variable=variable, range=[a, b, steps])
    doc["fixed"] = {k: v for k, v in doc["fixed"].items() if k != variable}
    return doc


def _splitter_variable(interferometer: str) -> str:
    return "splitter_ratio" if interferometer == "SU2" else "gain"


def _point_cycle(rng: random.Random, index: int) -> list[Op]:
    return [
        Op("point", f"{i}/{loss}", _point_doc(rng, i, loss, _RANGES))
        for i in _INTERFEROMETERS
        for loss in _LOSSES
    ]


def _jobs(position: int, index: int) -> int:
    # alternate 1 and nproc within a cycle and between cycles, so every
    # cycle splits its scans evenly and each kind meets both job counts
    return 1 if (position + index) % 2 == 0 else NPROC


def _lossy_cycle(rng: random.Random, index: int) -> list[Op]:
    ops = []
    for i in _INTERFEROMETERS:
        for loss in _LOSSES[1:]:
            steps = LOSSY_ROWS[loss]
            point = _point_doc(rng, i, loss, _RANGES)
            if loss == "TwoArm-independent":
                # the splitter parameter drives the cost of the 2-D descent most
                # (several-fold over its range): sweep all of it, so that every
                # run meets the same spread of costs
                doc = _sweep(rng, point, (_splitter_variable(i),), steps, whole=True)
            else:
                doc = _sweep(rng, point, ("eta", "alpha_photons", _splitter_variable(i)), steps)
            jobs = _jobs(len(ops), index)
            ops.append(Op("scan", f"{i}/{loss}", doc, jobs, steps))
    return ops


def _lossless_cycle(rng: random.Random, index: int) -> list[Op]:
    ops = []
    for i in _INTERFEROMETERS:
        for _ in range(2):
            doc = _sweep(
                rng,
                _point_doc(rng, i, "None", _RANGES),
                ("alpha_photons", _splitter_variable(i)),
                LOSSLESS_ROWS,
            )
            jobs = _jobs(len(ops), index)
            ops.append(Op("scan", f"{i}/None/jobs{jobs}", doc, jobs, LOSSLESS_ROWS))
    return ops


def _oracle_cycle(rng: random.Random, index: int) -> list[Op]:
    ops = []
    for cutoff in ORACLE_CUTOFFS:
        for i in _INTERFEROMETERS:
            for loss in ("OneArm", "TwoArm-independent"):
                doc = _point_doc(rng, i, loss, _ORACLE_RANGES)
                doc["fixed"]["gamma"] = _draw(rng, "gamma", _ORACLE_RANGES)
                if loss == "TwoArm-independent":
                    doc["fixed"]["gamma_b"] = _draw(rng, "gamma", _ORACLE_RANGES)
                doc["cutoff"] = cutoff
                ops.append(Op("oracle-check", f"{i}/{loss.split('-')[0]}/cutoff{cutoff}", doc))
    return ops


_CYCLES = {
    "point-cli": _point_cycle,
    "scan-lossy": _lossy_cycle,
    "scan-lossless": _lossless_cycle,
    "oracle-check": _oracle_cycle,
}


def cycles(workload: str, seed: int):
    """Yield the workload's cycles (lists of Op) for this seed, forever."""
    make = _CYCLES[workload]
    # string seeding is stable across runs and Python versions
    rng = random.Random(f"{workload}:{seed}")
    index = 0
    while True:
        yield make(rng, index)
        index += 1


def plan(workload: str, seed: int, seconds: float) -> list:
    """The cycles one run of `seconds` attempts: fixed by its arguments."""
    count = max(1, round(seconds / CYCLE_S[workload]))
    return list(itertools.islice(cycles(workload, seed), count))
