"""Command-line front end.

Three subcommands:

``point``
    Evaluate every reportable quantity at one parameter point and emit
    the record as JSON.
``scan``
    Sweep one variable and write a CSV (plus a companion metadata JSON;
    the timestamp lives only there so the CSV stays byte-stable). Rows are
    computed and formatted in fixed chunks; ``--jobs N`` computes the
    chunks in up to N forked workers and writes them in sweep order, so
    the bytes are the same at any N.
``oracle-check``
    Re-derive the closed forms from the brute-force Fock engine at one
    point and report each identity as a pass/fail line.

Configuration is a single JSON document (file or standard input via
``-``) with the keys described in ``--help``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from datetime import datetime, timezone
from enum import Enum
from typing import Optional, Union

from . import __version__
from .errors import DegenerateStatistics, PhaseboundError
from .moments import (InterferometerInput, ModeStatistics, SplitterSpec, _Checked, _LBS, _NBS,
                      derived_correlations, lbs_moments, nbs_moments)
from .optimizer import SingleArm, TwoArmIndependent, TwoArmSymmetric, optimize_gamma
from .qfim_ideal import Target, _DIFFERENCE, _SUM, _schur_terms, overestimation, qcrb, qfim_matrix
# perfbench/probes.py wraps phasebound.cli.two_param_bound, which no row calls
# since a lossless row takes the Schur rule once (ROADMAP item 2)
from .qfim_ideal import two_param_bound  # noqa: F401
from .qfim_lossy import SingleArmLoss, TwoArmLoss, c_matrix_single, c_matrix_two, gamma_opt_single

# column order is part of the output contract; tests pin it
CSV_COLUMNS = (
    "swept_value", "mean_a", "mean_b", "var_a", "var_b", "cov", "f_pp", "f_mm", "f_pm",
    "info_single", "info_two", "delta_f", "gamma_opt_analytic", "gamma_opt_numeric",
    "info_optimal", "qcrb_single", "qcrb_two", "error",
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COMPUTE = 2
EXIT_ORACLE = 3

_MOMENT_TOL = 1e-6
_KRAUS_TOL = 1e-8
_COMPLETENESS_TOL = 1e-10


class ConfigError(Exception):
    """Invalid or incomplete configuration document."""


# the errors a row, a point or an oracle check reports instead of raising;
# a closed form overflows on an input out of float range (squeeze_r 400)
_CONTAINED = (PhaseboundError, ConfigError, ValueError, OverflowError)


class Interferometer(Enum):
    SU2 = "SU2"
    SU11 = "SU11"


class LossKind(Enum):
    NONE = "None"
    ONE_ARM = "OneArm"
    TWO_ARM = "TwoArm"


_SU2, _NO_LOSS = Interferometer.SU2, LossKind.NONE  # as moments._LBS


# the fixed names each interferometer and each loss model reads; eta_b,
# gamma and gamma_b are optional, and squeeze_r is never swept
_READS = {
    Interferometer.SU2: ("alpha_photons", "squeeze_r", "splitter_ratio"),
    Interferometer.SU11: ("alpha_photons", "squeeze_r", "gain"),
    LossKind.NONE: (),
    LossKind.ONE_ARM: ("eta",),
    LossKind.TWO_ARM: ("eta",),
}
_OPTIONAL = ("eta_b", "gamma", "gamma_b")
_FIXED_NAMES = {*_OPTIONAL, *(name for names in _READS.values() for name in names)}


class ScanSpec(
    _Checked,
    namedtuple(
        "ScanSpec",
        "interferometer estimation loss fixed swept_variable start stop steps repeats",
    ),
):
    """One sweep (or, with swept_variable=None, one point).

    Construction checks every value, however the spec is built.
    interferometer and loss are members or their strings. estimation
    (SingleParameter or TwoParameter) only picks which bound fills
    info_optimal. fixed maps names in _FIXED_NAMES to finite numbers
    (alpha_photons is the input mean photon number |alpha|^2, and
    splitter_ratio is reflectivity over transmissivity): an unknown name,
    or one in _READS that is neither fixed nor swept, is refused, and a
    known name the spec does not read is ignored. The swept variable is a
    name the spec reads, other than squeeze_r.
    """

    __slots__ = ()

    def __new__(
        cls,
        interferometer: Union[Interferometer, str],
        estimation: str,
        loss: Union[LossKind, str],
        fixed: dict,
        swept_variable: Optional[str] = None,
        start: float = 0.0,
        stop: float = 0.0,
        steps: int = 0,
        repeats: int = 1,
    ) -> "ScanSpec":
        interferometer = _parse_enum(Interferometer, interferometer, "interferometer")
        loss = _parse_enum(LossKind, loss, "loss")
        start = _convert(float, start, "range start")
        stop = _convert(float, stop, "range stop")
        steps = _convert(int, steps, "range steps")
        if not isinstance(fixed, dict):
            raise ConfigError("fixed must be an object of name -> value")
        unknown = {str(k) for k in fixed} - _FIXED_NAMES
        if unknown:
            raise ConfigError(f"unknown fixed parameters: {sorted(unknown)}")
        repeats = _convert(int, repeats, "repeats")
        if estimation not in ("SingleParameter", "TwoParameter"):
            raise ConfigError(
                f"estimation must be SingleParameter or TwoParameter, got {estimation!r}"
            )
        fixed = {str(k): _convert(float, v, f"fixed {k}") for k, v in fixed.items()}
        reads = _READS[interferometer] + _READS[loss]
        sweepable = tuple(name for name in reads if name != "squeeze_r")
        if swept_variable not in (None, *sweepable):
            raise ConfigError(
                f"swept_variable must be one of {sweepable} for this spec, "
                f"got {swept_variable!r}"
            )
        for name in reads:
            if name not in fixed and name != swept_variable:
                raise ConfigError(f"fixed parameter {name!r} is required for this spec")
        if swept_variable is not None:
            if not start < stop:
                raise ConfigError(f"range start must be below stop, got [{start}, {stop}]")
            if steps < 2:
                raise ConfigError(f"steps must be at least 2, got {steps}")
        if repeats < 1:
            raise ConfigError(f"repeats must be a positive integer, got {repeats}")
        sweep = (swept_variable, start, stop, steps, repeats)
        return tuple.__new__(cls, (interferometer, estimation, loss, fixed, *sweep))


def _parse_enum(kind, raw, field: str):
    try:
        return kind(raw)
    except ValueError:
        allowed = ", ".join(member.value for member in kind)
        raise ConfigError(f"{field} must be one of: {allowed}; got {raw!r}") from None


def _convert(kind, raw, field: str):
    what = "an integer" if kind is int else "a number"
    # int() would read true as 1 and truncate 2.7 to 2
    if isinstance(raw, bool) or (
        kind is int and isinstance(raw, float) and not raw.is_integer()
    ):
        raise ConfigError(f"{field} must be {what}, got {raw!r}")
    try:
        value = kind(raw)
        float(value)  # an integer beyond the float range overflows where it is used
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{field} must be {what}, got {raw!r}") from None
    # json reads NaN, Infinity and 1e400; int() has refused them already
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{field} must be a finite number, got {raw!r}")
    return value


def load_spec(document: dict) -> ScanSpec:
    """Build a ScanSpec from a configuration dictionary, checking only the
    document's shape; ScanSpec checks the values."""
    if not isinstance(document, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(document) - {
        "interferometer",
        "estimation",
        "loss",
        "swept_variable",
        "range",
        "fixed",
        "repeats",
        "cutoff",  # read by main, for oracle-check
    }
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    for key in ("interferometer", "estimation", "loss"):
        if key not in document:
            raise ConfigError(f"missing required key {key!r}")
    swept = document.get("swept_variable")
    rng = (0.0, 0.0, 0)
    if swept is not None:
        rng = document.get("range")
        if not (isinstance(rng, (list, tuple)) and len(rng) == 3):
            raise ConfigError("range must be [start, stop, steps] when sweeping")
    return ScanSpec(
        document["interferometer"],
        document["estimation"],
        document["loss"],
        document.get("fixed", {}),
        swept,
        *rng,
        repeats=document.get("repeats", 1),
    )


def _build_input(
    spec: ScanSpec, fixed: dict
) -> tuple[InterferometerInput, Target, ModeStatistics]:
    """The input state, the target phase and the closed-form moments."""
    alpha_photons = fixed["alpha_photons"]
    if alpha_photons < 0.0:
        raise ConfigError(f"alpha_photons must be non-negative, got {alpha_photons}")
    squeeze_r = fixed["squeeze_r"]
    if spec.interferometer is _SU2:
        name, value = "splitter_ratio", fixed["splitter_ratio"]
        if value < 0.0:
            raise ConfigError(f"splitter_ratio must be non-negative, got {value}")
        splitter = SplitterSpec(_LBS, 1.0 / (1.0 + value))
        target, moments = _DIFFERENCE, lbs_moments
    else:
        name, value = "gain", fixed["gain"]
        splitter = SplitterSpec(_NBS, float(value))
        target, moments = _SUM, nbs_moments
    inp = InterferometerInput(math.sqrt(alpha_photons), squeeze_r, splitter)
    try:
        return inp, target, moments(inp)
    except OverflowError as exc:  # sinh(r)**2 or gain**2 leaves the float range
        raise OverflowError(
            f"closed-form moments overflow at alpha_photons={alpha_photons!r}, "
            f"squeeze_r={squeeze_r!r}, {name}={value!r}"
        ) from exc


def point_record(spec: ScanSpec, swept_value: Optional[float] = None) -> dict:
    """Compute one output row, keyed by CSV_COLUMNS; raises on invalid parameters."""
    fixed = dict(spec.fixed)
    if spec.swept_variable is not None:
        if swept_value is None:
            raise ConfigError("swept_value required when a variable is swept")
        fixed[spec.swept_variable] = swept_value
    single = spec.estimation == "SingleParameter"
    return dict(zip(CSV_COLUMNS, _row(spec, fixed, swept_value, single, spec.repeats)))


def _row(
    spec: ScanSpec, fixed: dict, swept_value: Optional[float], single: bool, repeats: int
) -> tuple:
    """The cells of one row in CSV_COLUMNS order, for point_record and _chunk.

    fixed holds the swept value under the swept name. A lossless row takes
    the Schur rule once: its info_single is the diagonal element itself,
    info_two = diag - shift and delta_f = shift. info_optimal is the
    info_single or info_two object, as single picks."""
    _, target, stats = _build_input(spec, fixed)
    gamma_analytic: Optional[float] = None
    gamma_numeric: Union[None, float, tuple[float, float]] = None
    if spec.loss is _NO_LOSS:
        fm = qfim_matrix(stats)
        info_single, delta_f = _schur_terms(fm, target)
        info_two = info_single - delta_f
    else:
        eta = fixed["eta"]
        eta_b = fixed.get("eta_b", eta)
        if spec.loss is LossKind.ONE_ARM:
            family = SingleArm(eta)
            try:
                gamma_analytic = gamma_opt_single(stats, eta, target)
            except (ValueError, DegenerateStatistics):
                pass  # lossless edge or singular statistics
        elif eta_b == eta:
            family = TwoArmSymmetric(eta)
        else:
            family = TwoArmIndependent(eta, eta_b)
        res = optimize_gamma(stats, family, target)
        fm, gamma_numeric = res.matrix, res.argmin
        info_single, info_two = res.single_minimum, res.minimum
        delta_f = overestimation(fm, target)
    return (
        swept_value, *stats, *fm, info_single, info_two, delta_f,
        gamma_analytic, gamma_numeric, info_single if single else info_two,
        qcrb(info_single, repeats), qcrb(info_two, repeats), "",
    )


# rows a scan computes, formats and writes at once, and that a --jobs worker
# sends back at once: about 150 KB of text
_CHUNK_ROWS = 500


def _chunk(spec: ScanSpec, k: int) -> str:
    """CSV text of the sweep's k-th chunk of rows.

    Every row is one f-string of its cells: a float is its repr, None is
    blank, and an independent-arm gamma pair is a;b. Each float is written
    once: a cell holding the object of an earlier cell (info_single as f_mm
    or f_pp, info_optimal) reuses its text. An error row's message is quoted,
    its quotes doubled, where it holds a comma, a quote or a newline, as by
    csv.writer."""
    lines = []
    step = (spec.stop - spec.start) / (spec.steps - 1)
    # what no row changes: the fixed values (the swept one is overwritten),
    # the estimation and the repeats
    fixed, swept = dict(spec.fixed), spec.swept_variable
    single, repeats = spec.estimation == "SingleParameter", spec.repeats
    for i in range(k * _CHUNK_ROWS, min(k * _CHUNK_ROWS + _CHUNK_ROWS, spec.steps)):
        value = fixed[swept] = spec.stop if i == spec.steps - 1 else spec.start + i * step
        try:
            (_, mean_a, mean_b, var_a, var_b, cov, f_pp, f_mm, f_pm, one, two, delta_f,
             g_analytic, g_numeric, best, q_one, q_two, _) = _row(spec, fixed, value, single, repeats)
        except _CONTAINED as exc:  # one bad point must not kill the sweep
            message = f"{type(exc).__name__}: {exc}"
            if "," in message or '"' in message or "\n" in message:
                message = '"' + message.replace('"', '""') + '"'
            lines.append(f"{value!r}{',' * (len(CSV_COLUMNS) - 1)}{message}\n")
            continue
        s_pp, s_mm, s_two = repr(f_pp), repr(f_mm), repr(two)
        s_one = s_mm if one is f_mm else s_pp if one is f_pp else repr(one)
        if g_numeric is None:  # no loss
            gammas = ","
        elif type(g_numeric) is tuple:  # independent arms: one cell, a;b
            gammas = f",{g_numeric[0]!r};{g_numeric[1]!r}"
        else:
            gammas = f"{'' if g_analytic is None else repr(g_analytic)},{g_numeric!r}"
        lines.append(
            f"{value!r},{mean_a!r},{mean_b!r},{var_a!r},{var_b!r},{cov!r},{s_pp},{s_mm},"
            f"{f_pm!r},{s_one},{s_two},{delta_f!r},{gammas},{s_one if best is one else s_two},"
            f"{q_one!r},{q_two!r},\n"
        )
    return "".join(lines)


def _write_forked(handle, spec: ScanSpec, chunks: int, workers: int) -> None:
    """Write every chunk in sweep order; worker w computes chunks w, w +
    workers, ... in a forked process and sends each one, length-prefixed,
    through its own pipe. A short chunk or a failed worker raises."""
    pids, pipes = {}, []
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            pids[w] = os.fork()
            if pids[w] == 0:  # the worker never returns into the caller
                status = 1
                try:
                    for pipe in pipes:  # the earlier workers' read ends
                        pipe.close()
                    os.close(read_end)
                    with open(write_end, "wb") as pipe:
                        for k in range(w, chunks, workers):
                            data = _chunk(spec, k).encode()
                            pipe.write(len(data).to_bytes(8, "little"))
                            pipe.write(data)
                    status = 0
                except BaseException:
                    import traceback

                    traceback.print_exc()
                    sys.stderr.flush()
                finally:
                    os._exit(status)
            os.close(write_end)
            pipes.append(open(read_end, "rb"))
        for k in range(chunks):
            w = k % workers
            size = int.from_bytes(pipes[w].read(8), "little")
            data = pipes[w].read(size)
            if size == 0 or len(data) < size:
                status = os.waitstatus_to_exitcode(os.waitpid(pids.pop(w), 0)[1])
                raise RuntimeError(
                    f"scan worker {w} sent chunk {k} short and exited with status {status}")
            handle.write(data.decode())
        for w in range(workers):
            status = os.waitstatus_to_exitcode(os.waitpid(pids.pop(w), 0)[1])
            if status:
                raise RuntimeError(f"scan worker {w} exited with status {status}")
    finally:
        if pids:
            import signal

            for pid in pids.values():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def run_scan(spec: ScanSpec, output_path: str, jobs: int = 1) -> None:
    """Write the CSV chunk by chunk, in sweep order, then a metadata JSON.

    A scan of more than one chunk at jobs > 1 forks min(jobs, chunks,
    CPUs available) workers, where fork exists; any other scan runs in
    process. The CSV is opened first, so an unwritable path fails before
    any row is computed."""
    if spec.swept_variable is None:
        raise ConfigError("scan requires swept_variable and range")
    chunks = -(-spec.steps // _CHUNK_ROWS)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(jobs, chunks, cpus or 1) if hasattr(os, "fork") else 1
    with open(output_path, "w", newline="") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        if workers > 1:
            _write_forked(handle, spec, chunks, workers)
        else:
            for k in range(chunks):
                handle.write(_chunk(spec, k))
    meta = {
        "library": {"name": "phasebound", "version": __version__},
        "spec": {
            "interferometer": spec.interferometer.value,
            "estimation": spec.estimation,
            "loss": spec.loss.value,
            "swept_variable": spec.swept_variable,
            "range": [spec.start, spec.stop, spec.steps],
            "fixed": spec.fixed,
            "repeats": spec.repeats,
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    with open(output_path + ".meta.json", "w") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ---------------------------------------------------------------------------
# oracle-check

# the Fock engine is the package's only numpy user, so its names are bound
# here on first use (PEP 562) and point and scan start without numpy
_ORACLE_NAMES = (
    "prepare_input apply_splitter measure_moments "
    "derivative_qfim kraus_completeness kraus_sum_cij"
).split()


def _bind_oracle() -> None:
    from . import fock_oracle

    namespace = globals()
    for name in _ORACLE_NAMES:
        # a name already set (a wrapper installed by setattr) stays in place
        namespace.setdefault(name, getattr(fock_oracle, name))


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        _bind_oracle()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def oracle_check(spec: ScanSpec, cutoff: int) -> bool:
    """Compare closed forms against the Fock engine at one point.

    Prints one line per identity to standard output, once every identity
    has been computed, and returns overall success. Moment and matrix
    identities hold to 1e-6, and the Kraus matrix of the configured loss
    model to 1e-8.
    """
    inp, _, closed = _build_input(spec, spec.fixed)

    _bind_oracle()  # the oracle names below resolve through the module globals
    state0 = prepare_input(inp.alpha_mag, inp.squeeze_r, cutoff)
    state = apply_splitter(state0, inp.splitter)
    oracle = measure_moments(state)

    # cutoff adequacy evidence: doubling must not move the moments
    state_big = apply_splitter(
        prepare_input(inp.alpha_mag, inp.squeeze_r, 2 * cutoff), inp.splitter
    )
    oracle_big = measure_moments(state_big)
    # (name, closed, oracle, tolerance, scale) in print order; the scale
    # floors the relative error's denominator, so a moment that is exactly 0
    # is not judged on round-off
    moment_scale = max(abs(oracle.mean_a), abs(oracle.mean_b), 1.0)
    checks = [
        (f"{prefix}.{f}", getattr(lhs, f), getattr(rhs, f), _MOMENT_TOL, moment_scale)
        for f in ("mean_a", "mean_b", "var_a", "var_b", "cov")
        for prefix, lhs, rhs in (("cutoff_convergence", oracle, oracle_big),
                                 ("moments", closed, oracle))
    ]
    corr_closed, corr_oracle = derived_correlations(closed), derived_correlations(oracle)
    checks += [(f"correlations.{f}", getattr(corr_closed, f), getattr(corr_oracle, f),
                _MOMENT_TOL, 1.0) for f in ("q_a", "q_b", "j")]
    matrices = [("qfim", qfim_matrix(oracle), derivative_qfim(state), _MOMENT_TOL)]
    if spec.loss is not LossKind.NONE:
        eta, gamma = spec.fixed["eta"], spec.fixed.get("gamma", -0.5)
        if spec.loss is LossKind.ONE_ARM:
            loss: Union[SingleArmLoss, TwoArmLoss] = SingleArmLoss(eta, gamma)
            cm_closed = c_matrix_single(oracle, loss)
        else:
            eta_b, gamma_b = spec.fixed.get("eta_b", eta), spec.fixed.get("gamma_b", gamma)
            loss = TwoArmLoss(eta, eta_b, gamma, gamma_b)
            cm_closed = c_matrix_two(oracle, loss)
        matrices.append(("kraus", cm_closed, kraus_sum_cij(state, loss), _KRAUS_TOL))
    for prefix, lhs, rhs, tol in matrices:
        scale = max(abs(rhs.f_pp), abs(rhs.f_mm))
        checks += [(f"{prefix}.{f}", getattr(lhs, f), getattr(rhs, f), tol, scale)
                   for f in ("f_pp", "f_mm", "f_pm")]
    if spec.loss is not LossKind.NONE:
        checks.append(("kraus.completeness", kraus_completeness(state, loss),
                       1.0 - state.norm_deficit, _COMPLETENESS_TOL, 1.0))

    all_ok = True
    for name, lhs, rhs, tol, scale in checks:
        rel = abs(lhs - rhs) / max(abs(rhs), scale, 1e-300)
        ok = rel <= tol
        all_ok = all_ok and ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: closed={lhs!r} oracle={rhs!r} "
              f"rel={rel:.3e} tol={tol:g}")
    print(
        f"oracle-check: {'all identities hold' if all_ok else 'FAILURES above'} "
        f"(cutoff {cutoff}, {len(checks)} checks)"
    )
    return all_ok


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; the contract reserves 2
    # for computation errors and 1 for invalid configuration
    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _read_config(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read configuration: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="phasebound",
        description=(
            "Phase-precision bounds for passive and amplifying two-mode "
            "interferometers under photon loss."
        ),
        epilog=(
            "Configuration JSON keys: interferometer (SU2|SU11), estimation "
            "(SingleParameter|TwoParameter), loss (None|OneArm|TwoArm), "
            "swept_variable (scan only: alpha_photons, splitter_ratio (SU2) or "
            "gain (SU11), or eta with loss), range [start, stop, steps], fixed "
            "{alpha_photons, squeeze_r, splitter_ratio or gain, eta with loss; "
            "eta_b, gamma, gamma_b optional}, repeats, and cutoff (oracle-check "
            "only). An unknown or missing parameter, or a sweep outside scan, "
            "exits 1; a known parameter the spec does not read (gain under SU2, "
            "eta without loss, eta_b under OneArm) is ignored. oracle-check "
            "checks the loss model named by loss."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("point", "evaluate one parameter point, emit a JSON record"),
        ("scan", "sweep one variable, emit CSV plus metadata JSON"),
        ("oracle-check", "verify closed forms against the Fock engine"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument(
            "--config",
            required=True,
            metavar="PATH|-",
            help="JSON configuration file, or - for standard input",
        )
        if name == "scan":
            cmd.add_argument("--output", required=True, metavar="PATH")
            cmd.add_argument(
                "--jobs",
                type=int,
                default=1,
                metavar="N",
                help="compute the rows in up to N forked worker processes, at most "
                "one per available CPU (default 1); the CSV is the same at any N",
            )
        if name == "point":
            cmd.add_argument("--output", default=None, metavar="PATH")
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "scan" and args.jobs < 1:
        parser.error(f"argument --jobs: must be at least 1, got {args.jobs}")
    try:
        document = _read_config(args.config)
        spec = load_spec(document)
        cutoff = _convert(int, document.get("cutoff", 64), "cutoff")
        if cutoff < 1:
            raise ConfigError(f"cutoff must be a positive integer, got {cutoff}")
        if (args.command == "scan") != (spec.swept_variable is not None):
            raise ConfigError(
                "scan requires swept_variable and range"
                if args.command == "scan"
                else f"{args.command} takes no swept_variable; sweeps run under scan"
            )
    except (ConfigError, ValueError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "oracle-check":
        try:
            ok = oracle_check(spec, cutoff=cutoff)
        except _CONTAINED as exc:
            print(f"oracle failure: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_ORACLE
        return EXIT_OK if ok else EXIT_ORACLE

    if args.command == "point":
        try:
            record = point_record(spec)
        except _CONTAINED as exc:
            print(f"computation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_COMPUTE
        text = json.dumps(record, indent=2)  # already in CSV_COLUMNS order
    try:
        if args.command == "scan":
            run_scan(spec, args.output, args.jobs)
        elif args.output:
            with open(args.output, "w") as handle:
                handle.write(text + "\n")
        else:
            print(text)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
