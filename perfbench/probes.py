"""Spans around the calls into each phasebound module.

A probe replaces one name in one module namespace (a name the module
imports, or defines and calls through its globals) with a wrapper that
times the call, inside the benchmark's own process only; no file of the
program changes. Spans nest per thread, so a span's self time is its
duration minus the time of the spans it caused. Leaf calls are counted,
not stored: the optimiser alone makes tens of thousands of them.

A probe whose target is missing, because a refactor renamed or removed
it, is listed in ``Tracer.missing`` and its metrics are left out.
"""

from __future__ import annotations

import importlib
import threading
from collections import defaultdict
from time import perf_counter


def _family(args, kwargs) -> str:
    names = {
        "SingleArm": "single_arm",
        "TwoArmSymmetric": "two_arm_symmetric",
        "TwoArmIndependent": "two_arm_independent",
    }
    kind = type(args[1]).__name__
    return names.get(kind, kind)


def _loss(args, kwargs) -> str:
    return args[0].loss.value


def _splitter(args, kwargs) -> str:
    return args[1].kind.value


def _arms(args, kwargs) -> str:
    return "single" if type(args[1]).__name__ == "SingleArmLoss" else "two"


def _keep_call(tracer, args, kwargs, result, start, end):
    return args, kwargs, result


def _keep_grid(tracer, args, kwargs, result, start, end):
    return result.cutoff


def _keep_branches(tracer, args, kwargs, result, start, end):
    # one branch per lost-quanta count on each lossy arm of the grid
    size = args[0].cutoff + 1
    return size if type(args[1]).__name__ == "SingleArmLoss" else size * size


def _keep_write(tracer, args, kwargs, result, start, end):
    # rows are all computed before the CSV is written, so the write phase
    # runs from the last row's end to the end of run_scan
    last_row = max(tracer.last_end.get("cli.point_record", start), start)
    return args[0].steps, end - last_row


_CLI = "phasebound.cli"
# (module namespace, attribute, span name, label of the call, what to keep)
PROBES = (
    (_CLI, "lbs_moments", "moments.lbs_moments", None, None),
    (_CLI, "nbs_moments", "moments.nbs_moments", None, None),
    (_CLI, "qfim_matrix", "qfim_ideal.qfim_matrix", None, None),
    (_CLI, "two_param_bound", "qfim_ideal.two_param_bound", None, None),
    (_CLI, "overestimation", "qfim_ideal.overestimation", None, None),
    (_CLI, "qcrb", "qfim_ideal.qcrb", None, None),
    (_CLI, "c_matrix_single", "qfim_lossy.c_matrix_single", None, None),
    (_CLI, "c_matrix_two", "qfim_lossy.c_matrix_two", None, None),
    (_CLI, "gamma_opt_single", "qfim_lossy.gamma_opt_single", None, None),
    (_CLI, "optimize_gamma", "optimizer.optimize_gamma", _family, _keep_call),
    (_CLI, "point_record", "cli.point_record", _loss, None),
    (_CLI, "run_scan", "cli.run_scan", None, _keep_write),
    (_CLI, "prepare_input", "fock_oracle.prepare_input", None, None),
    (_CLI, "apply_splitter", "fock_oracle.apply_splitter", _splitter, _keep_grid),
    (_CLI, "measure_moments", "fock_oracle.measure_moments", None, None),
    (_CLI, "derivative_qfim", "fock_oracle.derivative_qfim", None, None),
    (_CLI, "kraus_completeness", "fock_oracle.kraus_completeness", None, None),
    (_CLI, "kraus_sum_cij", "fock_oracle.kraus_sum_cij", _arms, _keep_branches),
    ("phasebound.optimizer", "c_matrix_single", "qfim_lossy.c_matrix_single", None, None),
    ("phasebound.optimizer", "c_matrix_two", "qfim_lossy.c_matrix_two", None, None),
    ("phasebound.optimizer", "two_param_bound", "qfim_ideal.two_param_bound", None, None),
    ("phasebound.qfim_lossy", "two_param_bound", "qfim_ideal.two_param_bound", None, None),
)


class Tracer:
    """Installs the probes on entry, restores the namespaces on exit."""

    def __init__(self, probes=PROBES) -> None:
        self.probes = probes
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.kept: dict[str, list] = defaultdict(list)
        self.last_end: dict[str, float] = {}
        self.missing: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, label, keep in self.probes:
            try:
                module = importlib.import_module(module_name)
                target = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(name, target, label, keep))
            self._undo.append((module, attr, target))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, target in reversed(self._undo):
            setattr(module, attr, target)
        self._undo.clear()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, target, label, keep):
        def probe(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)  # time covered by this span's children
            start = perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                end = perf_counter()
                children = stack.pop()
                if stack:
                    stack[-1] += end - start
            kept = keep is not None
            try:
                key = name if label is None else f"{name}.{label(args, kwargs)}"
                note = keep(self, args, kwargs, result, start, end) if kept else None
            except (AttributeError, IndexError, TypeError):
                key, kept = name, False  # the call no longer has this shape
            with self._lock:
                span = self.spans[key]
                span[0] += 1
                span[1] += end - start
                span[2] += end - start - children
                self.last_end[name] = max(self.last_end.get(name, end), end)
                if kept:
                    self.kept[key].append(note)
            return result

        probe.__wrapped__ = target
        return probe

    def calls(self, key: str) -> int:
        return self.spans[key][0] if key in self.spans else 0

    def mean(self, key: str, scale: float, part: int = 1) -> float | None:
        """Mean total (part=1) or self (part=2) time per call, times `scale`."""
        span = self.spans.get(key)
        if not span or not span[0]:
            return None
        return span[part] / span[0] * scale
