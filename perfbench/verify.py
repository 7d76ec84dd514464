"""Independent checks of the CLI's outputs.

Nothing here imports phasebound. The checks read only the CSV/JSON the
CLI wrote and the configuration the benchmark generated, and recompute
from the row's own five moments with a transcription of the documented
formulas:

* ideal matrix: F_pp = var_a + var_b + 2 cov, F_mm = var_a + var_b - 2 cov,
  F_pm = var_a - var_b;
* lossy matrix per arm i with u_i = 1 - (gamma_i + 1)(1 - eta_i) and
  L_i = (gamma_i + 1)^2 (1 - eta_i) eta_i <n_i>:
  arm_i = u_i^2 var_i + L_i, cross = 2 u_a u_b cov,
  C_pp = arm_a + arm_b + cross, C_mm = arm_a + arm_b - cross,
  C_pm = arm_a - arm_b (one-arm loss is eta_b = 1);
* Schur bound: diag - F_pm^2 / comp, where SU(2) targets the phase
  difference (diag F_mm) and SU(1,1) the phase sum (diag F_pp);
* analytic single-arm optimum
  1 / [(1 - eta) + eta (1 + s J sqrt(var_a/var_b)) / ((Q_a + 1)(1 - J^2))] - 1
  with s = +1 for the phase difference and -1 for the phase sum;
* delta_phi = 1 / sqrt(m * info).

Every gamma gives a valid bound, so a reported two-parameter minimum must
not exceed the bound anywhere on a dense gamma grid (a coarse lattice for
independent arms). The single-parameter objective is a quadratic in gamma,
so its reported minimum is compared with the exact vertex.

A check returns None when the output holds and a one-line reason when it
does not. Reasons starting with ``not minimal`` mark the known optimiser
miss: the row is consistent with itself but its bound is beaten.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

CSV_COLUMNS = (
    "swept_value", "mean_a", "mean_b", "var_a", "var_b", "cov",
    "f_pp", "f_mm", "f_pm", "info_single", "info_two", "delta_f",
    "gamma_opt_analytic", "gamma_opt_numeric", "info_optimal",
    "qcrb_single", "qcrb_two", "error",
)

# a recomputed quantity must match its cell to this share of its scale
REL_EQ = 1e-9
# a reported minimum may exceed the grid minimum by this share
REL_OPT = 1e-6
GAMMA_MAX = 1e3
GRID_POINTS = 4001
LATTICE_POINTS = 161
NOT_MINIMAL = "not minimal"


def _sinh_grid(points: int) -> np.ndarray:
    # dense near the physical window [-1, 0], reaching |gamma| = GAMMA_MAX
    t = np.linspace(-math.asinh(GAMMA_MAX), math.asinh(GAMMA_MAX), points)
    return np.sinh(t)


GAMMA_GRID = _sinh_grid(GRID_POINTS)
LATTICE = _sinh_grid(LATTICE_POINTS)


def lossy_matrix(m: dict, eta_a, eta_b, gamma_a, gamma_b):
    """Lossy information matrix; works elementwise on numpy arrays."""
    u_a = 1.0 - (gamma_a + 1.0) * (1.0 - eta_a)
    u_b = 1.0 - (gamma_b + 1.0) * (1.0 - eta_b)
    arm_a = u_a * u_a * m["var_a"] + (gamma_a + 1.0) ** 2 * (1.0 - eta_a) * eta_a * m["mean_a"]
    arm_b = u_b * u_b * m["var_b"] + (gamma_b + 1.0) ** 2 * (1.0 - eta_b) * eta_b * m["mean_b"]
    cross = 2.0 * u_a * u_b * m["cov"]
    return arm_a + arm_b + cross, arm_a + arm_b - cross, arm_a - arm_b


def ideal_matrix(m: dict):
    return lossy_matrix(m, 1.0, 1.0, 0.0, 0.0)


def _split(f_pp, f_mm, phase_sum: bool):
    return (f_pp, f_mm) if phase_sum else (f_mm, f_pp)


def schur(f_pp, f_mm, f_pm, phase_sum: bool):
    """Two-parameter bound; a zero off-diagonal passes the diagonal through."""
    diag, comp = _split(f_pp, f_mm, phase_sum)
    tol = 1e-12 * np.maximum(1.0, np.maximum(f_pp, f_mm))
    with np.errstate(divide="ignore", invalid="ignore"):
        value = diag - f_pm * f_pm / comp
    return np.where(np.abs(f_pm) <= tol, diag, value)


def objective(m: dict, family: str, eta_a: float, eta_b: float, phase_sum: bool, two: bool):
    """The bound as a function of gamma (one argument, or two for independent arms)."""

    def value(gamma_a, gamma_b=None):
        if family == "single_arm":
            f = lossy_matrix(m, eta_a, 1.0, gamma_a, 0.0)
        elif family == "two_arm_symmetric":
            f = lossy_matrix(m, eta_a, eta_a, gamma_a, gamma_a)
        else:
            f = lossy_matrix(m, eta_a, eta_b, gamma_a, gamma_b)
        if two:
            return schur(*f, phase_sum)
        return _split(f[0], f[1], phase_sum)[0]

    return value


def grid_minimum(fn, independent: bool) -> float:
    if independent:
        values = fn(*np.meshgrid(LATTICE, LATTICE, indexing="ij"))
    else:
        values = fn(GAMMA_GRID)
    # a zero complementary diagonal (a measure-zero gamma) gives no bound
    return float(np.min(values[np.isfinite(values)]))


def vertex_minimum(fn, independent: bool) -> float:
    """Exact minimum of a quadratic objective, from its values at a few points."""
    if not independent:
        y0, yp, ym = (float(fn(np.float64(g))) for g in (0.0, 1.0, -1.0))
        a, b = (yp + ym - 2.0 * y0) / 2.0, (yp - ym) / 2.0
        if a <= 0.0:
            return -math.inf
        return y0 - b * b / (4.0 * a)

    def f(x, y):
        return float(fn(np.float64(x), np.float64(y)))

    g = f(0, 0)
    a, d = (f(1, 0) + f(-1, 0) - 2 * g) / 2, (f(1, 0) - f(-1, 0)) / 2
    b, e = (f(0, 1) + f(0, -1) - 2 * g) / 2, (f(0, 1) - f(0, -1)) / 2
    c = f(1, 1) - a - b - d - e - g
    det = 4 * a * b - c * c
    if a <= 0.0 or det <= 0.0:
        return -math.inf
    x = (-2 * b * d + c * e) / det
    y = (-2 * a * e + c * d) / det
    return f(x, y)


def certify(m: dict, family: str, eta_a: float, eta_b: float, phase_sum: bool,
            two: bool, minimum: float) -> str | None:
    """None when `minimum` is the objective's minimum within tolerance."""
    fn = objective(m, family, eta_a, eta_b, phase_sum, two)
    independent = family == "two_arm_independent"
    best = grid_minimum(fn, independent)
    if not two:
        exact = vertex_minimum(fn, independent)
        if math.isfinite(exact):
            best = min(best, exact)
            if minimum < exact - REL_OPT * abs(exact):
                return f"below the exact minimum: {minimum!r} < {exact!r}"
    if minimum > best + REL_OPT * abs(best):
        which = "two" if two else "single"
        return f"{NOT_MINIMAL}: info_{which}={minimum!r} exceeds {best!r} found on the gamma grid"
    return None


def _close(got, want, scale):
    return np.abs(got - want) <= REL_EQ * np.maximum(np.abs(scale), np.abs(want)).clip(1e-300)


def _float(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return math.nan
    return float(value)


def check_rows(doc: dict, rows: list[dict], swept: list[float] | None = None) -> list[str | None]:
    """One verdict per parsed output row of the configuration `doc`.

    `swept` holds the sweep values the rows must carry (None for a point).
    Rows are checked as columns, so a 20,000-row scan costs milliseconds;
    only the optimality check of lossy rows runs row by row.
    """
    verdicts: list[str | None] = [None] * len(rows)

    def fail(mask, reason) -> None:
        for i in np.flatnonzero(mask):
            if verdicts[i] is None:
                verdicts[i] = reason(i) if callable(reason) else reason

    def col(key: str) -> np.ndarray:
        return np.array([_float(row.get(key)) for row in rows])

    fail([bool(row.get("error")) for row in rows], lambda i: f"error cell: {rows[i]['error']}")
    if swept is None:
        fail([row.get("swept_value") is not None for row in rows], "a point carries a swept_value")
    else:
        fail(col("swept_value") != np.array(swept), lambda i: f"swept_value is not {swept[i]!r}")
    m = {k: col(k) for k in ("mean_a", "mean_b", "var_a", "var_b", "cov")}
    cells = {k: col(k) for k in CSV_COLUMNS[6:12] + CSV_COLUMNS[14:17]}
    finite = np.all(np.isfinite(np.array([*m.values(), *cells.values()])), axis=0)
    fail(~finite, "missing or non-finite number")
    with np.errstate(invalid="ignore", divide="ignore"):
        _check_columns(doc, rows, swept, m, cells, fail)
    if doc["loss"] != "None":
        _check_optimality(doc, rows, swept, m, cells, verdicts)
    return verdicts


def _param(doc: dict, swept, name: str, n: int) -> np.ndarray:
    if swept is not None and doc.get("swept_variable") == name:
        return np.array(swept)
    return np.full(n, float(doc["fixed"][name]))


def _etas(doc: dict, swept, n: int) -> tuple[np.ndarray, np.ndarray]:
    eta_a = _param(doc, swept, "eta", n)
    if doc["loss"] == "OneArm":
        return eta_a, np.ones(n)
    return eta_a, _param(doc, swept, "eta_b", n) if "eta_b" in doc["fixed"] else eta_a


def _check_columns(doc, rows, swept, m, cells, fail) -> None:
    n = len(rows)
    phase_sum = doc["interferometer"] == "SU11"
    fail((m["mean_a"] < 0) | (m["mean_b"] < 0) | (m["var_a"] < 0) | (m["var_b"] < 0)
         | (m["cov"] ** 2 > m["var_a"] * m["var_b"] * (1 + 1e-9) + 1e-30),
         "moments are not a valid covariance")
    gammas = [row.get("gamma_opt_numeric") for row in rows]
    analytic = [row.get("gamma_opt_analytic") for row in rows]
    if doc["loss"] == "None":
        fail([g is not None or a is not None for g, a in zip(gammas, analytic)],
             "gamma cells must be blank without loss")
        f = ideal_matrix(m)
    else:
        eta_a, eta_b = _etas(doc, swept, n)
        independent = eta_a != eta_b if doc["loss"] == "TwoArm" else np.zeros(n, bool)
        pairs = [isinstance(g, (list, tuple)) and len(g) == 2 for g in gammas]
        fail(np.array(pairs) != independent,
             lambda i: f"gamma {gammas[i]!r} does not fit the loss family")
        gamma_a = np.array([_float(g[0]) if p else _float(g) for g, p in zip(gammas, pairs)])
        gamma_b = np.array([_float(g[1]) if p else _float(g) for g, p in zip(gammas, pairs)])
        if doc["loss"] == "OneArm":
            gamma_b = np.zeros(n)
        f = lossy_matrix(m, eta_a, eta_b, gamma_a, gamma_b)
    scale = np.maximum(np.maximum(np.abs(f[0]), np.abs(f[1])), 1.0)
    for key, want in zip(("f_pp", "f_mm", "f_pm"), f):
        fail(~_close(cells[key], want, scale),
             lambda i, k=key, w=want: f"{k}={float(cells[k][i])!r}, recomputed {float(w[i])!r}")

    diag, comp = _split(f[0], f[1], phase_sum)
    off_zero = np.abs(f[2]) <= 1e-12 * np.maximum(1.0, np.maximum(f[0], f[1]))
    want_two = np.where(off_zero, diag, diag - f[2] * f[2] / comp)
    fail(~_close(cells["info_two"], want_two, diag),
         lambda i: f"info_two={float(cells['info_two'][i])!r}, "
                   f"the bound at its gamma is {float(want_two[i])!r}")
    want_delta = np.where(off_zero, 0.0, f[2] * f[2] / comp)
    fail(~_close(cells["delta_f"], want_delta, diag),
         lambda i: f"delta_f={float(cells['delta_f'][i])!r}, recomputed {float(want_delta[i])!r}")
    if doc["loss"] == "None":
        fail(~_close(cells["info_single"], diag, diag),
             lambda i: f"info_single={float(cells['info_single'][i])!r}, "
                       f"the diagonal is {float(diag[i])!r}")
    elif doc["loss"] == "OneArm":
        want = _analytic_gamma(m, eta_a, phase_sum)
        blank = np.array([a is None for a in analytic])
        got = np.array([_float(a) for a in analytic])
        fail((blank != np.isnan(want)) | (~blank & ~_close(got, want, want)),
             lambda i: f"gamma_opt_analytic={analytic[i]!r}, the formula gives {float(want[i])!r}")
    else:
        fail([a is not None for a in analytic], "gamma_opt_analytic must be blank for two-arm loss")

    chosen = "info_single" if doc["estimation"] == "SingleParameter" else "info_two"
    fail(cells["info_optimal"] != cells[chosen], f"info_optimal is not {chosen}")
    repeats = int(doc.get("repeats", 1))
    for key, info in (("qcrb_single", "info_single"), ("qcrb_two", "info_two")):
        want = 1.0 / np.sqrt(repeats * cells[info])
        fail(~_close(cells[key], want, want),
             lambda i, k=key, w=want: f"{k}={float(cells[k][i])!r}, 1/sqrt(m*info) is "
                                      f"{float(w[i])!r}")


def _analytic_gamma(m: dict, eta: np.ndarray, phase_sum: bool) -> np.ndarray:
    """The documented single-arm optimum; NaN where the formula is singular."""
    valid = (0.0 < eta) & (eta < 1.0)
    for key in ("mean_a", "mean_b", "var_a", "var_b"):
        valid &= m[key] > 0.0
    j = m["cov"] / (np.sqrt(m["var_a"]) * np.sqrt(m["var_b"]))
    valid &= np.abs(j) < 1.0
    q_a = (m["var_a"] - m["mean_a"]) / m["mean_a"]
    sign = -1.0 if phase_sum else 1.0
    ratio = np.sqrt(m["var_a"] / m["var_b"])
    den = (1.0 - eta) + eta * (1.0 + sign * j * ratio) / ((q_a + 1.0) * (1.0 - j * j))
    valid &= den != 0.0
    return np.where(valid, 1.0 / den - 1.0, math.nan)


def _check_optimality(doc, rows, swept, m, cells, verdicts) -> None:
    # last, so that any other defect of a row outranks a missed minimum
    eta_a, eta_b = _etas(doc, swept, len(rows))
    phase_sum = doc["interferometer"] == "SU11"
    for i, verdict in enumerate(verdicts):
        if verdict is not None:
            continue
        if doc["loss"] == "OneArm":
            family = "single_arm"
        elif eta_a[i] == eta_b[i]:
            family = "two_arm_symmetric"
        else:
            family = "two_arm_independent"
        moments = {k: float(v[i]) for k, v in m.items()}
        for two, key in ((False, "info_single"), (True, "info_two")):
            reason = certify(moments, family, float(eta_a[i]), float(eta_b[i]), phase_sum,
                             two, float(cells[key][i]))
            if reason:
                verdicts[i] = reason
                break


def parse_cell(text: str):
    """A CSV cell as the CLI meant it: None, a float, a gamma pair, or the raw text."""
    try:
        if text == "":
            return None
        if ";" in text:
            return tuple(float(part) for part in text.split(";"))
        return float(text)
    except ValueError:
        return text  # the row check reports it as a missing number


def sweep_values(doc: dict) -> list[float]:
    """The swept values `phasebound scan` documents: both endpoints, evenly spaced."""
    start, stop, steps = doc["range"]
    step = (stop - start) / (steps - 1)
    values = [start + i * step for i in range(steps)]
    values[-1] = stop
    return values


def check_scan(doc: dict, text: str) -> list[str | None]:
    """One verdict per expected row of a scan CSV."""
    values = sweep_values(doc)
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or tuple(lines[0]) != CSV_COLUMNS:
        return ["bad CSV header"] * len(values)
    if len(lines) - 1 != len(values):
        return [f"{len(lines) - 1} rows, expected {len(values)}"] * len(values)
    rows = [
        {key: cell if key == "error" else parse_cell(cell) for key, cell in zip(CSV_COLUMNS, cells)}
        for cells in lines[1:]
    ]
    return check_rows(doc, rows, values)


def check_point(doc: dict, text: str) -> str | None:
    try:
        row = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"point output is not JSON: {exc}"
    if not isinstance(row, dict) or tuple(row) != CSV_COLUMNS:
        return "point record keys differ from the CSV columns"
    return check_rows(doc, [row])[0]


def check_oracle(returncode: int, text: str) -> tuple[int, str | None]:
    """(identity lines, failure reason) for one oracle-check call."""
    lines = text.splitlines()
    checks = [line for line in lines if line.startswith(("[PASS] ", "[FAIL] "))]
    failed = [line for line in checks if line.startswith("[FAIL]")]
    if failed:
        return len(checks), failed[0]
    if returncode != 0:
        return len(checks), f"exit code {returncode}"
    if not checks or not lines[-1].startswith("oracle-check: all identities hold"):
        return len(checks), "missing oracle-check summary"
    return len(checks), None


class Tally:
    """Verdicts of a run: attempted units, and failures split by kind."""

    def __init__(self) -> None:
        self.attempted = 0
        self.hard: list[str] = []  # the output contradicts the formulas or the CLI contract
        self.not_minimal: list[str] = []  # self-consistent, but the grid beats the bound

    def add(self, label: str, verdicts: list) -> None:
        self.attempted += len(verdicts)
        for verdict in verdicts:
            if verdict is not None:
                kind = self.not_minimal if verdict.startswith(NOT_MINIMAL) else self.hard
                kind.append(f"{label}: {verdict}")

    def result(self, metrics: dict, detail: dict) -> dict:
        failed = len(self.hard) + len(self.not_minimal)
        return {
            "correct": not self.hard,
            "attempted": self.attempted,
            "failed": failed,
            "metrics": metrics,
            "detail": {
                "failed_ratio": failed / self.attempted,
                "failed_hard": len(self.hard),
                "failed_not_minimal": len(self.not_minimal),
                "first_failures": (self.hard + self.not_minimal)[:5],
                **detail,
            },
        }
