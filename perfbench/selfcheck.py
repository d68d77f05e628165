"""Feed every benchmark check one wrong answer; each must flag it.

Usage (from the root of the repository): ``python3 perfbench/selfcheck.py``.
Exits 1 if a check accepts a wrong answer or rejects a right one.  The file
name keeps it out of pytest's default ``test_*.py`` collection.
"""

from __future__ import annotations

import json
import subprocess
import sys

import checks
from workloads import ROOT, child_env, import_pbrcheck, verdict_instances


def cli(argv) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "-m", "pbrcheck", *argv], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=120)
    return proc.returncode, proc.stdout


def main() -> int:
    pbrcheck = import_pbrcheck()
    cases = []  # (what, problems, should_flag)

    instances = verdict_instances(0)
    feasible = next(i for i in instances if i["kind"] == "pbr" and i["expected"] and i["n"] >= 3)
    infeasible = next(i for i in instances if i["kind"] == "pbr" and not i["expected"])
    good = pbrcheck.feasibility(*feasible["args"])
    bad = pbrcheck.feasibility(*infeasible["args"])
    witness = good.witness.table.tolist()
    duals = bad.certificate.reshape(4, -1)

    cases.append(("right witness", checks.verdict_problems(True, feasible["joints"], feasible["targets"], True, witness), False))
    tampered = json.loads(json.dumps(witness))
    cell = next(c for row in tampered for c in row if max(c) > 0.1)
    k = cell.index(max(cell))
    cell[k] -= 0.1
    cell[(k + 1) % 4] += 0.1
    cases.append(("tampered witness", checks.witness_problems(feasible["joints"], feasible["targets"], tampered), True))
    cases.append(("flipped verdict", checks.verdict_problems(False, infeasible["joints"], infeasible["targets"], True, witness), True))
    cases.append(("right certificate", checks.certificate_problems(infeasible["joints"], infeasible["targets"], duals.tolist()), False))
    bound = float(checks.certificate_bound(infeasible["joints"], infeasible["targets"], duals.tolist()))
    scaled = (duals * (0.5 * checks.EPS_LP / bound)).tolist()
    cases.append(("certificate scaled below EPS_LP", checks.certificate_problems(infeasible["joints"], infeasible["targets"], scaled), True))

    expected = checks.mc_expected([0.5, 0.5], [0.3, 0.7], [[[0.1, 0.2, 0.3, 0.4]] * 2] * 2)
    samples = 10**6
    exact = [round(p * samples) / samples for p in expected]
    cases.append(("exact frequencies", checks.frequency_problems(exact, expected, samples), False))
    biased = list(exact)
    shift = round(2 * checks.frequency_bound(expected[0], samples) * samples) / samples
    biased[0] += shift
    biased[1] -= shift
    cases.append(("biased frequencies", checks.frequency_problems(biased, expected, samples), True))

    feas_call = {"command": "feasibility", "format": "json", "scenario": "pbr", "lambda_size": 3, "q": 0.0}
    code, doc = cli(["--format", "json", "feasibility", "--lambda-size", "3", "--q", "0.0"])
    cases.append(("right feasibility document", checks.cli_problems(feas_call, code, doc), False))
    cases.append(("feasibility with a wrong exit code", checks.cli_problems(feas_call, 3, doc), True))
    mc_call = {"command": "montecarlo", "format": "json", "model": "mz-constant", "samples": 100_000}
    code, doc = cli(["--format", "json", "montecarlo", "--model", "mz-constant", "--seed", "5"])
    cases.append(("right montecarlo document", checks.cli_problems(mc_call, code, doc), False))
    cases.append(("montecarlo with a wrong exit code", checks.cli_problems(mc_call, 3 - code, doc), True))
    table_call = {"command": "pbr-table", "format": "csv"}
    code, doc = cli(["--format", "csv", "pbr-table"])
    cases.append(("pbr-table with a wrong exit code", checks.cli_problems(table_call, 3, doc), True))
    cases.append(("pbr-table with a wrong row", checks.cli_problems(table_call, code, doc.replace("0.5", "0.49", 1)), True))

    # The known fault inside the tolerance band, and the two ways its check can pass.
    band_call = {"command": "feasibility", "format": "json", "scenario": "pbr", "lambda_size": 4, "q": 1e-4}
    code, doc = cli(["--format", "json", "feasibility", "--q", "1e-4"])
    cases.append(("feasible with contradiction_predicted (known fault)", checks.cli_problems(band_call, code, doc), True))
    payload = json.loads(doc)
    payload["extras"]["agreement"] = False
    cases.append(("disagreement stated, exit 3", checks.cli_problems(band_call, 3, json.dumps(payload)), False))
    cases.append(("disagreement stated, exit 0", checks.cli_problems(band_call, 0, json.dumps(payload)), True))

    missed = 0
    for what, problems, should_flag in cases:
        ok = bool(problems) == should_flag
        missed += not ok
        print(f"{'ok    ' if ok else 'WRONG '} {what}: {'flagged' if problems else 'accepted'}"
              + (f" ({problems[0]})" if problems else ""))
    print(f"{len(cases) - missed}/{len(cases)} checks behave")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
