"""End-to-end benchmark of the phasebound CLI.

    python3 perfbench/run.py --workload point-cli --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the program is taken from the
checkout's ``src/`` and never installed. With ``--trace 0`` one closed-loop
client runs CLI processes one after another for ``--seconds`` and the last
line of output is the end-to-end result. With ``--trace 1`` the CLI runs
in this process, once plainly and once with spans around every module,
over one seeded cycle of every workload, and the last line holds the
per-layer metrics. ``--workload all`` runs every workload in turn and
prints a table. See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path
from time import perf_counter

# the standard library only until the timed processes have run: a spawned
# child's peak RSS includes this process's RSS at the time of the spawn
import configs

ROOT = Path(__file__).resolve().parent.parent  # the checkout
SRC = ROOT / "src"
SETUP_SAMPLES = 7
STARTUP_SAMPLES = 5
OP_TIMEOUT_S = 30
TAIL_BEYOND = 10

# a fresh interpreter that imports the CLI and parses the workload's
# arguments, computing nothing; it prints where the package came from
SETUP_CODE = (
    "import sys\n"
    "from phasebound.cli import build_parser\n"
    "build_parser().parse_args(sys.argv[1:])\n"
    "import phasebound\n"
    "print(phasebound.__file__)\n"
)
IMPORT_CODE = (
    "from time import perf_counter\n"
    "t0 = perf_counter()\n"
    "import phasebound\n"
    "t1 = perf_counter()\n"
    "import phasebound.cli\n"
    "print(t1 - t0, perf_counter() - t1)\n"
)


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def check_package_path(path: str) -> str:
    resolved = Path(path.strip()).resolve()
    if SRC.resolve() not in resolved.parents:
        raise BenchError(f"phasebound was imported from {resolved}, outside {SRC}")
    return str(resolved)


def spawn(args: list[str], stdout: Path, stderr: Path, env: dict) -> tuple[float, int]:
    """Run one Python child to completion; (wall seconds, exit code).

    The wait blocks in waitpid and a timer kills a hung child:
    `Popen.wait(timeout)` instead polls with sleeps of up to 50 ms, which
    would round every measured time up to that step.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        return perf_counter() - start, code


def probe(code: str, args: list[str], work: Path, env: dict) -> tuple[float, str]:
    """(wall seconds, stdout) of `python -c code *args`; a failure ends the run."""
    out, err = work / "probe.stdout", work / "probe.stderr"
    wall, status = spawn(["-c", code, *args], out, err, env)
    if status != 0:
        first_line = code.splitlines()[0]
        raise BenchError(f"probe {first_line!r} exited {status}: {err.read_text()[-500:]}")
    return wall, out.read_text()


def tail(values: list[float]) -> dict:
    """The highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return {"percentile": None, "value": None, "samples": n}
    return {
        "percentile": round(100.0 * (n - TAIL_BEYOND) / n, 1),
        "value": ordered[n - TAIL_BEYOND - 1],
        "samples": n,
    }


def kind_median(calls: list) -> float:
    """The median wall time of each kind of operation, averaged over the kinds.

    A cycle mixes kinds whose times differ several-fold (``--jobs 1`` and
    ``--jobs nproc`` scans, say); the plain median of such a mix falls in
    the gap between them and jumps with single calls.
    """
    by_kind: dict[str, list] = {}
    for op, wall, _, _ in calls:
        by_kind.setdefault(op.label, []).append(wall)
    return statistics.fmean(statistics.median(walls) for walls in by_kind.values())


def versions() -> dict:
    found = {"python": platform.python_version()}
    for name in ("numpy", "scipy"):
        try:
            found[name] = metadata.version(name)
        except metadata.PackageNotFoundError:
            found[name] = None
    return found


def digest_update(digest, op: configs.Op, data: bytes) -> None:
    digest.update(op.label.encode() + b"\0" + data + b"\0")


def verify_output(op: configs.Op, code: int, text: str) -> tuple[int, list]:
    """(records for rows_per_s, one verdict per attempted unit) of one operation."""
    import verify

    if op.command == "oracle-check":
        lines, reason = verify.check_oracle(code, text)
        return lines, [reason]
    if code != 0:
        return op.rows, [f"exit code {code}"] * op.rows
    if op.command == "point":
        return 1, [verify.check_point(op.config, text)]
    return op.rows, verify.check_scan(op.config, text)


# ---------------------------------------------------------------------------
# end-to-end run: CLI processes, closed loop


def measured_run(workload: str, seed: int, seconds: float, work: Path) -> dict:
    env = child_env()
    planned = configs.plan(workload, seed, seconds)
    size = len(planned[0])
    ops = [op for cycle in planned for op in cycle]

    def files(tag: str, op: configs.Op):
        config = work / f"{tag}.json"
        config.write_text(json.dumps(op.config))
        output = work / f"{tag}.out"
        return op.argv(str(config), str(output)), output

    argv, _ = files("setup", ops[0])
    setup: list[float] = []
    package = ""

    def measure_setup(samples: int) -> None:
        nonlocal package
        for _ in range(samples):
            wall, package = probe(SETUP_CODE, argv, work, env)
            setup.append(wall)

    # importing the CLI fills the bytecode caches of a fresh checkout; not timed
    probe(SETUP_CODE, argv, work, env)

    # Every planned cycle runs once; while time remains the plan runs again
    # from its start, so a fast commit is still measured for `seconds`.
    # Set-up samples are spread over the plan, between cycles, so that they
    # see the machine at the same speeds as the calls.
    per_cycle = -(-SETUP_SAMPLES // len(planned))
    calls = []  # (op, wall, exit code, path of the output)
    indices = []  # each call's index in `ops`
    while True:
        measure_setup(min(per_cycle, SETUP_SAMPLES - len(setup)))
        for _ in range(size):
            index = len(calls) % len(ops)
            op, tag = ops[index], f"op{len(calls):04d}"
            argv_op, output = files(tag, op)
            stdout = work / f"{tag}.stdout"
            wall, code = spawn(
                ["-m", "phasebound.cli", *argv_op], stdout, work / f"{tag}.stderr", env)
            calls.append((op, wall, code, output if op.command != "oracle-check" else stdout))
            indices.append(index)
        # stop where the measured time comes closest to `seconds`
        elapsed = sum(wall for _, wall, _, _ in calls)
        cycles_done = len(calls) // size
        if len(calls) >= len(ops) and elapsed * (1.0 + 0.5 / cycles_done) >= seconds:
            break
    package = check_package_path(package)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    import verify  # numpy: only after the timed processes have run

    # the first run of each planned operation is verified; a repeat must
    # write the same bytes, and the operation fails if it does not
    digest = hashlib.sha256()
    first: dict[int, list] = {}  # index -> [output bytes, records, verdicts]
    records = []
    for index, (op, _, code, path) in zip(indices, calls):
        data = path.read_bytes() if path.exists() else b""
        path.unlink(missing_ok=True)
        if index not in first:
            digest_update(digest, op, data)
            first[index] = [data, *verify_output(op, code, data.decode(errors="replace"))]
        elif data != first[index][0]:
            first[index][2] = ["output differs on a repeat"] * len(first[index][2])
        records.append(first[index][1])
    tally = verify.Tally()
    for index, op in enumerate(ops):
        tally.add(op.label, first[index][2])
    # records per second of each cycle: the median over cycles is steady
    # against the one costly configuration a cycle may draw
    cycle_rates = [
        sum(records[k:k + size]) / sum(wall for _, wall, _, _ in calls[k:k + size])
        for k in range(0, len(calls), size)
    ]

    walls = [wall for _, wall, _, _ in calls]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "call_p50_s": (kind_median(calls), "s"),
        "rows_per_s": (statistics.median(cycle_rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return tally.result(metrics, {
        "call_tail_s": tail(walls),
        "samples": {"setup": len(setup), "calls": len(calls), "cycles": len(calls) // size,
                    "planned_cycles": len(planned)},
        "calls_s": sum(walls),
        "output_sha256": digest.hexdigest(),
        "phasebound_file": package,
    })


# ---------------------------------------------------------------------------
# traced run: the CLI in this process, plain and with probes


@contextmanager
def stdout_to(path: Path):
    """Point file descriptor 1 at `path`; oracle-check binds sys.stdout at import."""
    sys.stdout.flush()
    saved = os.dup(1)
    try:
        with open(path, "wb") as handle:
            os.dup2(handle.fileno(), 1)
            try:
                yield
            finally:
                sys.stdout.flush()
                os.dup2(saved, 1)
    finally:
        os.close(saved)


def run_in_process(cli, op: configs.Op, work: Path, tag: str) -> tuple[float, int, bytes]:
    config = work / f"{tag}.json"
    doc = json.dumps(op.config)
    config.write_text(doc)
    output = work / f"{tag}.out"
    stdout = work / f"{tag}.stdout"
    argv = op.argv(str(config), str(output))
    with stdout_to(stdout), open(os.devnull, "w") as quiet:
        saved_err, sys.stderr = sys.stderr, quiet
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an operation boundary: report, keep benchmarking
            code = -1
            output.write_text(traceback.format_exc())
        finally:
            wall = perf_counter() - start
            sys.stderr = saved_err
    path = stdout if op.command == "oracle-check" else output
    data = path.read_bytes() if path.exists() else b""
    for leftover in (config, output, stdout, Path(f"{output}.meta.json")):
        leftover.unlink(missing_ok=True)
    return wall, code, data


def startup_metrics(work: Path) -> dict:
    env = child_env()
    bare, imports = [], []
    for _ in range(STARTUP_SAMPLES):
        bare.append(probe("pass", [], work, env)[0])
        imports.append([float(x) for x in probe(IMPORT_CODE, [], work, env)[1].split()])
    return {
        "startup.interpreter_s": (statistics.median(bare), "s"),
        "startup.import_phasebound_s": (statistics.median(t[0] for t in imports), "s"),
        "startup.import_cli_s": (statistics.median(t[1] for t in imports), "s"),
    }


def optimizer_metrics(tracer) -> dict:
    import verify

    out = {}
    for family in ("single_arm", "two_arm_symmetric", "two_arm_independent"):
        key = f"optimizer.optimize_gamma.{family}"
        kept = tracer.kept.get(key, [])
        if not kept:
            continue
        out[f"{key}.call_ms"] = (tracer.mean(key, 1e3), "ms")
        try:
            results = [result for _, _, result in kept]
            out[f"{key}.evaluations"] = (sum(r.evaluations for r in results), "count")
            converged = sum(bool(r.converged) for r in results)
            out[f"{key}.converged_ratio"] = (converged / len(results), "ratio")
            certified = 0
            for args, kwargs, result in kept:
                stats, loss_family, target = args[:3]
                mode = kwargs.get("mode", args[3] if len(args) > 3 else None)
                two = mode is None or mode.value == "two_parameter"
                eta_a = loss_family.eta if hasattr(loss_family, "eta") else loss_family.eta_a
                moments = {k: getattr(stats, k) for k in verify.CSV_COLUMNS[1:6]}
                reason = verify.certify(
                    moments, family, eta_a, getattr(loss_family, "eta_b", eta_a),
                    target.value == "phase_sum", two, result.minimum,
                )
                certified += reason is None
            out[f"{key}.certified_ratio"] = (certified / len(kept), "ratio")
        except (AttributeError, IndexError, TypeError, ValueError):
            pass  # the optimiser's interface changed: these metrics are missing
    return out


def layer_metrics(tracer) -> dict:
    out = {}

    def timed(key: str, unit: str, part: int = 1, name: str | None = None) -> None:
        scale = {"us": 1e6, "ms": 1e3}[unit]
        value = tracer.mean(key, scale, part)
        if value is not None:
            out[name or f"{key}.call_{unit}"] = (value, unit)

    for key in ("moments.lbs_moments", "moments.nbs_moments", "qfim_ideal.qfim_matrix",
                "qfim_ideal.two_param_bound", "qfim_ideal.overestimation", "qfim_ideal.qcrb",
                "qfim_lossy.c_matrix_single",
                "qfim_lossy.c_matrix_two", "qfim_lossy.gamma_opt_single"):
        timed(key, "us")
    moment_calls = tracer.calls("moments.lbs_moments") + tracer.calls("moments.nbs_moments")
    if moment_calls:
        out["moments.calls"] = (moment_calls, "count")
    out.update(optimizer_metrics(tracer))
    for loss in ("None", "OneArm", "TwoArm"):
        timed(f"cli.point_record.{loss}", "us", part=2, name=f"cli.point_record.{loss}.self_us")
    writes = tracer.kept.get("cli.run_scan", [])
    if writes:
        rows = sum(r for r, _ in writes)
        out["cli.run_scan.write_us_per_row"] = (sum(s for _, s in writes) / rows * 1e6, "us")
    for key in ("fock_oracle.prepare_input", "fock_oracle.apply_splitter.lbs",
                "fock_oracle.apply_splitter.nbs", "fock_oracle.measure_moments",
                "fock_oracle.derivative_qfim", "fock_oracle.kraus_completeness",
                "fock_oracle.kraus_sum_cij.single", "fock_oracle.kraus_sum_cij.two"):
        timed(key, "ms")
    grids = tracer.kept.get("fock_oracle.apply_splitter.nbs")
    if grids:
        out["fock_oracle.apply_splitter.nbs.work_grid"] = (max(grids), "count")
    branches = tracer.kept.get("fock_oracle.kraus_sum_cij.single", []) + tracer.kept.get(
        "fock_oracle.kraus_sum_cij.two", [])
    if branches:
        out["fock_oracle.kraus_sum_cij.branch_terms"] = (sum(branches), "count")
    return out


def traced_run(workload: str, seed: int, work: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import phasebound
    import phasebound.cli as cli

    from probes import Tracer

    package = check_package_path(phasebound.__file__)
    metrics = startup_metrics(work)
    suite = {name: next(configs.cycles(name, seed)) for name in configs.WORKLOADS}

    # plain pass: the baseline for the overhead, and each scan at both job counts
    plain: dict[tuple, tuple] = {}
    for name, ops in suite.items():
        for i, op in enumerate(ops):
            counts = sorted({1, configs.NPROC}) if op.command == "scan" else [op.jobs]
            for jobs in counts:
                plain[name, i, jobs] = run_in_process(
                    cli, dataclasses.replace(op, jobs=jobs), work, f"plain-{name}-{i}-{jobs}")

    with Tracer() as tracer:
        traced = {
            (name, i): run_in_process(cli, op, work, f"traced-{name}-{i}")
            for name, ops in suite.items()
            for i, op in enumerate(ops)
        }

    import verify

    digest = hashlib.sha256()
    tally = verify.Tally()
    for name, ops in suite.items():
        traced_wall = plain_wall = one = nproc = 0.0
        for i, op in enumerate(ops):
            wall, code, data = traced[name, i]
            traced_wall += wall
            plain_wall += plain[name, i, op.jobs][0]
            digest_update(digest, op, data)
            _, verdicts = verify_output(op, code, data.decode(errors="replace"))
            if op.command == "scan":
                one += plain[name, i, 1][0]
                nproc += plain[name, i, configs.NPROC][0]
                if plain[name, i, 1][2] != plain[name, i, configs.NPROC][2]:
                    verdicts = [f"CSV differs at --jobs 1 and --jobs {configs.NPROC}"] * op.rows
            if data != plain[name, i, op.jobs][2]:
                verdicts = ["output differs with probes installed"] * len(verdicts)
            tally.add(f"{name} {op.label}", verdicts)
        metrics[f"trace.overhead.{name}"] = (traced_wall / plain_wall - 1.0, "ratio")
        if nproc:
            metrics[f"cli.run_scan.jobs_speedup.{name}"] = (one / nproc, "ratio")
    metrics.update(layer_metrics(tracer))
    return tally.result(metrics, {
        "missing_probes": tracer.missing,
        "samples": {name: len(ops) for name, ops in suite.items()} | {"startup": STARTUP_SAMPLES},
        "output_sha256": digest.hexdigest(),
        "phasebound_file": package,
    })


# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Every workload in its own process, so each starts small; prints a table."""
    results = {}
    for name in configs.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        detail = json.loads(lines[-2])["detail"] if len(lines) > 1 else {}
        print(f"{name}: correct={results[name]['correct']} attempted={results[name]['attempted']} "
              f"failed={results[name]['failed']} failed_ratio={detail.get('failed_ratio')}")
        for metric, entry in results[name]["metrics"].items():
            print(f"  {metric:50s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=configs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "phasebound" / "cli.py").is_file():
        print(f"no phasebound sources under {SRC}", file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = work_root / f"run-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, work)
        else:
            result = measured_run(args.workload, args.seed, args.seconds, work)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()  # only when no other run is using it
        except OSError:
            pass

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": configs.NPROC,
        "versions": versions(),
        **result.pop("detail"),
    }
    print(json.dumps({"detail": detail}))
    result["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
