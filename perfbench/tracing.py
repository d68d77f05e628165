"""Spans recorded from outside the program, around calls into each layer.

A span is ``[name, start, end, parent, op, attrs]``: times come from
``time.perf_counter`` (CLOCK_MONOTONIC, shared by every process on the
machine, so spans written by a child process line up with its parent's),
``parent`` is the index of the enclosing span and ``op`` the operation being
timed.  Spans stay in memory and are written out when the run ends.

This module imports only the standard library, so a launcher can install the
``linprog`` hook before numpy, scipy or pbrcheck is imported.
"""

from __future__ import annotations

import importlib.machinery
import json
import sys
import time

NAME, START, END, PARENT, OP, ATTRS = range(6)


class TracingError(RuntimeError):
    """A wrapped entry point is missing or recorded no calls where calls were expected."""


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None

    def open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        span = [name, time.perf_counter(), None, parent, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, func, describe=None):
        """``func`` recording one span per call; ``describe(result, args, kwargs)`` gives its attrs."""

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(span)
            if describe is not None:
                span[ATTRS] = describe(result, args, kwargs)
            return result

        return traced

    def adopt(self, spans: list[list], parent: int | None, op) -> None:
        """Append spans recorded by another process, re-indexing their parents."""
        base = len(self.spans)
        for span in spans:
            span = list(span)
            span[PARENT] = parent if span[PARENT] is None else span[PARENT] + base
            span[OP] = op
            self.spans.append(span)

    def dump(self, path) -> None:
        with open(path, "w") as out:
            json.dump(self.spans, out)


# --------------------------------------------------------------- linprog hook

def _describe_linprog(result, args, kwargs):
    a_eq = kwargs.get("A_eq", args[3] if len(args) > 3 else None)
    rows, cols = getattr(a_eq, "shape", (0, 0))
    nnz = getattr(a_eq, "nnz", None)
    if nnz is None:
        nnz = int(sys.modules["numpy"].count_nonzero(a_eq)) if a_eq is not None else 0
    return {"nit": int(getattr(result, "nit", 0)), "rows": int(rows), "cols": int(cols), "nnz": int(nnz)}


class _PatchOnImport:
    """Meta-path finder that runs ``patch(module)`` right after ``fullname`` executes."""

    def __init__(self, fullname: str, patch):
        self.fullname = fullname
        self.patch = patch

    def find_spec(self, fullname, path, target=None):
        if fullname != self.fullname:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        patch = self.patch

        def exec_and_patch(module):
            exec_module(module)
            patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def hook_linprog(rec: Recorder) -> None:
    """Wrap ``scipy.optimize.linprog`` as soon as scipy.optimize is imported.

    Installed before pbrcheck is imported, so ``from scipy.optimize import
    linprog`` binds the wrapper whether pbrcheck imports scipy eagerly or
    inside the LP path, and the time of importing scipy stays in the import.
    """

    def patch(module):
        module.linprog = rec.wrap("scipy.linprog", module.linprog, _describe_linprog)

    if "scipy.optimize" in sys.modules:
        patch(sys.modules["scipy.optimize"])
    else:
        sys.meta_path.insert(0, _PatchOnImport("scipy.optimize", patch))


# ---------------------------------------------------------- pbrcheck wrappers

def _describe_verdict(result, args, kwargs):
    return {"feasible": bool(result.feasible)}


def _describe_samples(result, args, kwargs):
    return {"samples": int(args[3] if len(args) > 3 else kwargs["samples"])}


def _describe_render(result, args, kwargs):
    return {"bytes": len(result.encode())}


#: (module, attribute, span name, attrs) of every pbrcheck entry point wrapped.
ENTRY_POINTS = (
    ("pbrcheck.ontic", "feasibility", "ontic.feasibility", _describe_verdict),
    ("pbrcheck.ontic", "monte_carlo", "ontic.monte_carlo", _describe_samples),
    ("pbrcheck.scenarios", "zero_outcome_table", "scenarios.zero_outcome_table", None),
    ("pbrcheck.scenarios", "pbr_target_rows", "scenarios.pbr_target_rows", None),
    ("pbrcheck.quantum", "born_distribution", "quantum.born_distribution", None),
    ("pbrcheck.cli", "main", "cli.main", None),
)


def wrap_pbrcheck(rec: Recorder) -> None:
    """Replace every binding of each entry point in the loaded pbrcheck modules.

    Modules that imported a function by name (``from .ontic import
    feasibility``) hold their own binding, so each one is replaced where it
    is found.  ``ReportDocument.render`` is wrapped on the class.
    """
    modules = [m for name, m in list(sys.modules.items()) if name == "pbrcheck" or name.startswith("pbrcheck.")]
    for module_name, attr, span_name, describe in ENTRY_POINTS:
        module = sys.modules.get(module_name)
        func = getattr(module, attr, None)
        if func is None:
            if module_name == "pbrcheck.cli" and module is None:
                continue  # in-process workloads never import the CLI
            raise TracingError(f"entry point {module_name}.{attr} not found")
        traced = rec.wrap(span_name, func, describe)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is func:
                    setattr(m, key, traced)
    report = sys.modules.get("pbrcheck.report")
    if report is not None:
        cls = getattr(report, "ReportDocument", None)
        if cls is None or not hasattr(cls, "render"):
            raise TracingError("entry point pbrcheck.report.ReportDocument.render not found")
        cls.render = rec.wrap("report.render", cls.render, _describe_render)


def require_calls(spans: list[list], names) -> None:
    """Raise :class:`TracingError` unless every span name in ``names`` was recorded."""
    seen = {span[NAME] for span in spans}
    missing = [name for name in names if name not in seen]
    if missing:
        raise TracingError(f"wrapped entry points recorded no calls: {', '.join(missing)}")
