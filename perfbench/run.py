"""pbrcheck benchmark: three workloads, timed end to end and, with --trace 1, by layer.

Usage (from the root of the repository):

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Prints every metric by name with its unit, then, as the last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Writes the same results, with the environment, to ``perfbench/out/``.
See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import tracing
from workloads import BENCH, OUT, ROOT, WORKLOADS, child_env, import_pbrcheck

SETUP_PROBES = 3
IMPORT_PROBES = 5


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: at least ``(100 - pct)%`` of the values lie at or above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def run_loop(wl, seconds: float, min_ops: int, rec) -> dict:
    """Whole rounds of ``wl``'s operations until ``seconds`` of operation time and ``min_ops`` operations."""
    durations, failures, round_index = [], [], 0
    while True:
        for op in wl.round(round_index):
            if rec is not None:
                rec.op = [wl.name, len(durations)]
                span_index = len(rec.spans)
                span = rec.open("op")
            start = time.perf_counter()
            try:
                output = wl.call(op)
            except Exception as exc:  # an operation that raises has failed; the run goes on
                output = exc
            durations.append(time.perf_counter() - start)
            if rec is not None:
                rec.close(span)
                if hasattr(wl, "adopt") and not isinstance(output, Exception):
                    wl.adopt(rec, output, span_index)
            problems = [f"raised {output!r}"] if isinstance(output, Exception) else wl.check(op, output)
            if problems:
                failures.append({"op": len(durations) - 1, "known_fault": bool(op.get("known_fault")),
                                 "argv": op.get("argv"), "problems": problems[:5]})
        round_index += 1
        if sum(durations) >= seconds and len(durations) >= min_ops:
            break
    return {"durations": durations, "failures": failures}


def end_to_end(wl, loop: dict) -> dict:
    d = loop["durations"]
    return {
        "ops_per_s": (len(d) / sum(d), "1/s"),
        "op_ms_p50": (statistics.median(d) * 1e3, "ms"),
        "op_ms_tail": (percentile(d, wl.tail_pct) * 1e3, "ms"),
    }


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from spawning a fresh benchmark process to the point where it would time its first operation."""
    times = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-probe"]
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line != "ready\n":
                raise RuntimeError(f"setup probe for {workload} failed (exit {proc.returncode})")
    return statistics.median(times)


# -------------------------------------------------------------------- layers

def _run_probe(argv) -> tuple[float, str]:
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-500:]}")
    return elapsed, proc.stderr


def scipy_import_ms(importtime: str) -> float:
    """Cumulative ``-X importtime`` microseconds of the outermost scipy imports, in ms."""
    total, scipy_depth = 0, None
    # importtime lists a module after everything it imports; reversed, each parent precedes its subtree.
    for line in reversed(importtime.splitlines()):
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        depth = len(name) - len(name.lstrip())
        module = name.strip()
        if scipy_depth is not None and depth <= scipy_depth:
            scipy_depth = None
        if scipy_depth is None and (module == "scipy" or module.startswith("scipy.")):
            total += int(cumulative)
            scipy_depth = depth
    return total / 1e3


def import_probes() -> dict:
    interpreter, scipy = [], []
    for _ in range(IMPORT_PROBES):
        interpreter.append(_run_probe([sys.executable, "-c", "pass"])[0] * 1e3)
        scipy.append(scipy_import_ms(_run_probe([sys.executable, "-X", "importtime", "-c", "import pbrcheck.cli"])[1]))
    return {"import.interpreter_ms": (statistics.median(interpreter), "ms"),
            "import.scipy_ms": (statistics.median(scipy), "ms")}


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer metrics, each from the spans of the workload it belongs to (see README)."""
    by = {}
    for i, s in enumerate(spans):
        if s[tracing.OP] is not None:  # spans of warm-up calls carry no operation
            by.setdefault((s[tracing.OP][0], s[tracing.NAME]), []).append(i)

    def nonempty(found, what):
        if not found:
            raise tracing.TracingError(f"no {what} spans")
        return found

    def pick(workload, name):
        return nonempty([spans[i] for i in by.get((workload, name), [])], f"{name} on {workload}")

    def ms(span):
        return (span[tracing.END] - span[tracing.START]) * 1e3

    def p50(found):
        return statistics.median(ms(s) for s in found)

    children = {}
    for s in spans:
        if s[tracing.PARENT] is not None:
            children.setdefault(s[tracing.PARENT], []).append(s)

    cli_ops = len(pick("cli-session", "op"))
    outer_scenarios = [
        spans[i] for (workload, name), ids in by.items() if workload == "cli-session" and name.startswith("scenarios.")
        for i in ids if not spans[spans[i][tracing.PARENT]][tracing.NAME].startswith("scenarios.")
    ]
    verdicts = pick("verdict-sweep", "ontic.feasibility")
    lp = pick("verdict-sweep", "scipy.linprog")
    verdict_ids = by[("verdict-sweep", "ontic.feasibility")]
    lp_self = [ms(spans[i]) - sum(ms(c) for c in children.get(i, [])) for i in verdict_ids]
    mc = pick("mc-sampling", "ontic.monte_carlo")
    return {
        "import.cli_ms": (p50(pick("cli-session", "import.cli")), "ms"),
        "cli.main_ms_p50": (p50(pick("cli-session", "cli.main")), "ms"),
        "report.render_ms_p50": (p50(pick("cli-session", "report.render")), "ms"),
        "report.bytes_per_op": (sum(s[tracing.ATTRS]["bytes"] for s in pick("cli-session", "report.render")) / cli_ops, "B"),
        "scenarios.table_ms_per_op": (sum(ms(s) for s in outer_scenarios) / cli_ops, "ms"),
        "quantum.born_calls_per_op": (len(pick("cli-session", "quantum.born_distribution")) / cli_ops, "count"),
        "ontic.feasibility_ms_p50": (p50(verdicts), "ms"),
        "ontic.feasibility_ms_tail": (percentile([ms(s) for s in verdicts], WORKLOADS["verdict-sweep"].tail_pct), "ms"),
        "ontic.feasible_ms_p50": (p50(nonempty([s for s in verdicts if s[tracing.ATTRS]["feasible"]], "feasible verdict")), "ms"),
        "ontic.infeasible_ms_p50": (p50(nonempty([s for s in verdicts if not s[tracing.ATTRS]["feasible"]], "infeasible verdict")), "ms"),
        "ontic.linprog_ms_p50": (p50(lp), "ms"),
        "ontic.lp_self_ms_p50": (statistics.median(lp_self), "ms"),
        "ontic.linprog_calls_per_verdict": (len(lp) / len(verdicts), "count"),
        "ontic.lp_nit_mean": (sum(s[tracing.ATTRS]["nit"] for s in lp) / len(verdicts), "count"),
        "ontic.lp_rows_mean": (sum(s[tracing.ATTRS]["rows"] for s in lp) / len(lp), "count"),
        "ontic.lp_cols_mean": (sum(s[tracing.ATTRS]["cols"] for s in lp) / len(lp), "count"),
        "ontic.lp_nnz_mean": (sum(s[tracing.ATTRS]["nnz"] for s in lp) / len(lp), "count"),
        "ontic.mc_samples_per_s": (
            sum(s[tracing.ATTRS]["samples"] for s in mc) / sum(ms(s) / 1e3 for s in mc), "1/s"),
        "ontic.mc_call_ms_p50": (p50(pick("cli-session", "ontic.monte_carlo")), "ms"),
    }


# ---------------------------------------------------------------------- runs

def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "click": version("click"),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = environment()
    wl = WORKLOADS[name]()
    if not trace:
        wl.setup(seed, None)
        loop = run_loop(wl, seconds, wl.min_ops, None)
        metrics = end_to_end(wl, loop)
        metrics["peak_rss_mb"] = (peak_rss_mb(wl), "MB")
        metrics["setup_s"] = (setup_seconds(name, seed), "s")
        extra = {}
    else:
        # The named workload runs for ``seconds``; the others run a fixed
        # companion pass, so every layer metric comes from its own workload.
        rec = tracing.Recorder()
        tracing.hook_linprog(rec)
        import_pbrcheck()
        tracing.wrap_pbrcheck(rec)
        wl.setup(seed, rec)
        loop = run_loop(wl, seconds, wl.min_ops, rec)
        companions = {}
        for other in WORKLOADS.values():
            if other.name != name:
                companion = other()
                rec.op = None
                companion.setup(seed, rec)
                companions[other.name] = run_loop(companion, 0.0, other.trace_min_ops, rec)
        for w in WORKLOADS.values():
            tracing.require_calls([s for s in rec.spans if s[tracing.OP] and s[tracing.OP][0] == w.name],
                                  w.expected_spans)
        metrics = {**import_probes(), **layer_metrics(rec.spans)}
        rec.dump(OUT / f"trace-{name}-seed{seed}.json")
        extra = {
            "traced_end_to_end": {k: v[0] for k, v in end_to_end(wl, loop).items()},
            "companion_failures": {k: c["failures"] for k, c in companions.items()},
            "spans": len(rec.spans),
        }
    unexpected = [f for f in loop["failures"] if not f["known_fault"]]
    unexpected += [f for c in extra.get("companion_failures", {}).values() for f in c if not f["known_fault"]]
    result = {
        "correct": not unexpected,
        "attempted": len(loop["durations"]),
        "failed": len(loop["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace, "environment": env,
              **result, "failures": loop["failures"], **extra}
    with open(OUT / f"results-{name}-seed{seed}-trace{int(trace)}.json", "w") as f:
        json.dump(record, f, indent=1)
    return result


def print_result(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for key, m in result["metrics"].items():
        print(f"  {key:34s} {m['value']:14.6g} {m['unit']}")


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(proc.returncode)
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1, help="workload seed (2 is held out for claims)")
    parser.add_argument("--seconds", type=float, default=20.0, help="operation time to measure per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (ROOT / "src" / "pbrcheck" / "__init__.py").is_file():
        print(f"perfbench: no pbrcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        WORKLOADS[args.workload]().setup(args.seed, None)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
