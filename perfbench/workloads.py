"""The three workloads: inputs made from the seed, the timed call of each operation, and its check.

Each workload repeats whole rounds of the same operations.  ``setup`` does
everything before the first timed operation (imports, inputs, warm-up),
``call`` is the timed part, ``check`` runs outside the timed region.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
FORMATS = ("text", "json", "csv")
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def import_pbrcheck():
    """Import pbrcheck from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import pbrcheck

    if not Path(pbrcheck.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"pbrcheck imported from {pbrcheck.__file__}, not from {src}")
    return pbrcheck


# --------------------------------------------------------------- cli-session

def cli_script(seed: int) -> list[dict]:
    """50 calls: every subcommand in every format; 17 of them (feasibility) solve an LP."""
    rng = random.Random(seed)
    calls = [{"command": "version", "format": "text", "argv": ["--version"]}]

    def add(command, fmt, args, pre=(), **params):
        calls.append({"command": command, "format": fmt, "argv": [*pre, "--format", fmt, command, *args], **params})

    def feasibility(fmt, scenario, n, q, **params):
        args = ["--scenario", scenario, "--lambda-size", str(n), "--q", repr(q), "--seed", str(seed)]
        add("feasibility", fmt, args, scenario=scenario, lambda_size=n, q=q, **params)

    for fmt in FORMATS:
        add("pbr-table", fmt, [])
        add("mz", fmt, [])
    add("pbr-table", "text", [], pre=("--tolerance", "1e-6"))
    add("mz", "json", [], pre=("--tolerance", "1e-6"))
    for j in range(18):
        theta = math.pi * (j + 1 + rng.uniform(-0.4, 0.4)) / 19
        add("theta", FORMATS[j % 3], ["--theta", repr(theta)], theta=theta)
    for model in ("psi-ontic", "mz-constant"):
        for fmt in FORMATS:
            add("montecarlo", fmt, ["--model", model, "--seed", str(rng.randrange(2**31))], model=model, samples=100_000)
    # Each scenario meets every size 3..8, half of them without overlap.
    for scenario in ("pbr", "mz"):
        for n in range(3, 9):
            q = 0.0 if (n + len(scenario)) % 2 else 10 ** rng.uniform(-3, 0)
            feasibility(FORMATS[(n + len(scenario)) % 3], scenario, n, q)
    feasibility("json", "pbr", 4, 1e-3)
    feasibility("text", "pbr", 3, 1.0)
    feasibility("csv", "mz", 8, 1.0)
    feasibility("json", "mz", 3, 0.0)
    # Inside the tolerance band the verdict and the predicate disagree today.
    add("feasibility", "json", ["--q", "1e-4"], scenario="pbr", lambda_size=4, q=1e-4, known_fault=True)
    return calls


class CliSession:
    name = "cli-session"
    min_ops = 50
    tail_pct = 80
    trace_min_ops = 1
    expected_spans = (
        "import.cli", "cli.main", "report.render", "scenarios.zero_outcome_table", "scenarios.pbr_target_rows",
        "quantum.born_distribution", "ontic.feasibility", "ontic.monte_carlo", "scipy.linprog",
    )

    def setup(self, seed: int, rec) -> None:
        self.rec = rec
        self.env = child_env()
        self.script = cli_script(seed)
        self.spans_file = OUT / f"spans-{os.getpid()}.json"
        self.call({"argv": ["--version"]})  # page cache warm-up; untimed

    def round(self, index: int) -> list[dict]:
        return self.script

    def call(self, op: dict) -> subprocess.CompletedProcess:
        if self.rec is None:
            argv = [sys.executable, "-m", "pbrcheck", *op["argv"]]
        else:
            self.spans_file.unlink(missing_ok=True)  # a child that writes no spans must not leave an old file
            argv = [sys.executable, str(BENCH / "launch.py"), str(self.spans_file), *op["argv"]]
        return subprocess.run(argv, capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)

    def adopt(self, rec, output, parent: int) -> None:
        with open(self.spans_file) as f:
            rec.adopt(json.load(f), parent, rec.op)
        self.spans_file.unlink()

    def check(self, op: dict, output) -> list[str]:
        return checks.cli_problems(op, output.returncode, output.stdout)


# ------------------------------------------------------------- verdict-sweep

def random_mass_pair(rng, n: int, disjoint: bool):
    """Random masses on n states: disjoint supports, or total-variation overlap >= 1e-3."""
    while True:
        if disjoint:
            split = int(rng.integers(1, n))
            m0 = [*rng.dirichlet([1.0] * split), *[0.0] * (n - split)]
            m1 = [*[0.0] * split, *rng.dirichlet([1.0] * (n - split))]
        else:
            m0, m1 = list(rng.dirichlet([1.0] * n)), list(rng.dirichlet([1.0] * n))
        if disjoint or sum(min(a, b) for a, b in zip(m0, m1) if a > checks.EPS_ZERO and b > checks.EPS_ZERO) >= 1e-3:
            return [float(x) for x in m0], [float(x) for x in m1]


def verdict_instances(seed: int) -> list[dict]:
    """99 instances: 42 random PBR pairs (n = 2..8), 36 overlap_pair grid points, 21 mz preparations.

    Every overlap is 0 or at least 1e-3, outside the band where the LP and
    the analytic predicate may disagree.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    pbr_targets = np.array(checks.PRODUCT_ROWS)
    instances = []

    def add(kind, m0, m1):
        if kind == "pbr":
            joints, targets, expected = checks.pbr_joints(m0, m1), checks.PRODUCT_ROWS, not checks.supports_overlap(m0, m1)
        else:
            mix = [(a + b) / 2 for a, b in zip(m0, m1)]
            joints, targets, expected = [checks.outer(mix, mix)], [[0.25] * 4], True
        instances.append({
            "kind": kind, "n": len(m0), "expected": expected, "joints": joints, "targets": targets,
            "args": ([np.array(j) for j in joints], pbr_targets if kind == "pbr" else np.array(targets)),
        })

    for n in range(2, 9):
        for i in range(6):
            add("pbr", *random_mass_pair(rng, n, disjoint=i % 2 == 0))
        for i in range(3):
            add("mz", *random_mass_pair(rng, n, disjoint=False))
    for n in range(3, 9):
        for q in [0.0, *sorted(10 ** rng.uniform(-3, 0, size=5))]:
            add("pbr", *checks.overlap_masses(n, float(q)))
    order = rng.permutation(len(instances))
    return [dict(instances[i], index=k) for k, i in enumerate(order)]


class VerdictSweep:
    name = "verdict-sweep"
    min_ops = 1000
    tail_pct = 99
    trace_min_ops = 1000
    expected_spans = ("ontic.feasibility", "scipy.linprog")

    def setup(self, seed: int, rec) -> None:
        self.pbrcheck = import_pbrcheck()
        self.instances = verdict_instances(seed)
        self.checked = set()
        for inst in self.instances[:3]:
            self.call(inst)

    def round(self, index: int) -> list[dict]:
        return self.instances

    def call(self, inst: dict):
        return self.pbrcheck.feasibility(*inst["args"])

    def check(self, inst: dict, verdict) -> list[str]:
        witness = None if verdict.witness is None else verdict.witness.table
        certificate = verdict.certificate
        # A verdict identical to one already checked for this instance needs no second check.
        key = (inst["index"], verdict.feasible,
               None if witness is None else witness.tobytes(), None if certificate is None else certificate.tobytes())
        if key in self.checked:
            return []
        problems = checks.verdict_problems(
            inst["expected"], inst["joints"], inst["targets"], verdict.feasible,
            None if witness is None else witness.tolist(),
            None if certificate is None else certificate.reshape(len(inst["joints"]), -1).tolist(),
        )
        if not problems:
            self.checked.add(key)
        return problems


# --------------------------------------------------------------- mc-sampling

MC_SAMPLES = 1_000_000


def mc_models(seed: int) -> list[dict]:
    """psi-ontic (four device pairs), mz-constant, and four random overlapping models on 3..8 states."""
    import numpy as np

    rng = np.random.default_rng(seed)
    pairs, table = checks.psi_ontic_model()
    models = [{"label": f"psi-ontic {p}", "a": a, "b": b, "table": table} for p, (a, b) in zip(checks.PREPARATIONS, pairs)]
    models.append({"label": "mz-constant", "a": [1 / 3] * 3, "b": [1 / 3] * 3, "table": [[[0.25] * 4] * 3] * 3})
    for n in [*rng.integers(3, 8, size=3).tolist(), 8]:
        a, b = random_mass_pair(rng, n, disjoint=False)
        models.append({"label": f"random n={n}", "a": a, "b": b, "table": rng.dirichlet([1.0] * 4, size=(n, n)).tolist()})
    for m in models:
        m["expected"] = checks.mc_expected(m["a"], m["b"], m["table"])
    return models


class McSampling:
    name = "mc-sampling"
    min_ops = 100
    tail_pct = 90
    trace_min_ops = 1
    expected_spans = ("ontic.monte_carlo",)

    def setup(self, seed: int, rec) -> None:
        import numpy as np

        pbrcheck = self.pbrcheck = import_pbrcheck()
        self.seed = seed
        self.seed_sequence = np.random.SeedSequence
        self.models = mc_models(seed)
        for m in self.models:
            space = pbrcheck.OnticSpace(len(m["a"]))
            m["args"] = (
                pbrcheck.EpistemicDistribution(space, np.array(m["a"])),
                pbrcheck.EpistemicDistribution(space, np.array(m["b"])),
                pbrcheck.ResponseFunction(np.array(m["table"])),
            )
        self.first = None
        self.call(self.round(0)[0])

    def round(self, index: int) -> list[dict]:
        """One call per model, then the first call again with the same seed."""
        ops = [{"model": m, "seed": (self.seed, index, i)} for i, m in enumerate(self.models)]
        return ops + [dict(ops[0], repeat=True)]

    def call(self, op: dict):
        m = op["model"]
        return self.pbrcheck.monte_carlo(*m["args"], MC_SAMPLES, self.seed_sequence(op["seed"]))

    def check(self, op: dict, freqs) -> list[str]:
        freqs = freqs.tolist()
        label = op["model"]["label"]
        if op.get("repeat"):
            return [] if freqs == self.first else [f"{label}: the same seed gave different counts"]
        if op["seed"][2] == 0:
            self.first = freqs
        return [f"{label}: {p}" for p in checks.frequency_problems(freqs, op["model"]["expected"], MC_SAMPLES)]


WORKLOADS = {w.name: w for w in (CliSession, VerdictSweep, McSampling)}
