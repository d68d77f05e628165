"""Checks of pbrcheck's answers, made apart from the program.

Nothing here calls pbrcheck.  Reference values come from kets and the
entangled basis written out by hand, explicit loops and ``fractions.Fraction``;
each check returns a list of problems, empty when the answer is right.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction

#: Total violation of the statistics that a verdict may leave (feasible) or
#: must prove every response function exceeds (infeasible).
EPS_LP = 1e-7
#: Mass at or below this is float dust, not support.
EPS_ZERO = 1e-12
#: Born rows and overlaps are reproduced to this absolute accuracy.
ROW_TOL = 1e-12
#: Response rows sum to 1 within this.
SUM_TOL = 1e-9
#: Chance that a correct sampler fails one frequency check.
MC_FALSE_ALARM = 1e-9

SQRT2 = math.sqrt(2.0)
KETS = {"0": (1.0, 0.0), "1": (0.0, 1.0), "+": (1 / SQRT2, 1 / SQRT2), "-": (1 / SQRT2, -1 / SQRT2)}
PREPARATIONS = ("00", "0+", "+0", "++")


def tensor(a, b) -> list:
    return [complex(x) * complex(y) for x in a for y in b]


def _add(a, b, scale) -> list:
    return [(x + y) * scale for x, y in zip(a, b)]


XI = (
    _add(tensor(KETS["0"], KETS["1"]), tensor(KETS["1"], KETS["0"]), 1 / SQRT2),
    _add(tensor(KETS["0"], KETS["-"]), tensor(KETS["1"], KETS["+"]), 1 / SQRT2),
    _add(tensor(KETS["+"], KETS["1"]), tensor(KETS["-"], KETS["0"]), 1 / SQRT2),
    _add(tensor(KETS["+"], KETS["-"]), tensor(KETS["-"], KETS["+"]), 1 / SQRT2),
)


def born_row(state) -> list:
    row = []
    for outcome in XI:
        amplitude = 0j
        for o, s in zip(outcome, state):
            amplitude += o.conjugate() * s
        row.append(abs(amplitude) ** 2)
    return row


PRODUCT_ROWS = [born_row(tensor(KETS[a], KETS[b])) for a, b in PREPARATIONS]
_MZ_KET = [x / math.sqrt(2 + SQRT2) for x in _add(KETS["0"], KETS["+"], 1.0)]
MZ_ROW = born_row(tensor(_MZ_KET, _MZ_KET))


def theta_rows(theta: float) -> list:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    pair = ((c, s), (c, -s))
    return [born_row(tensor(a, b)) for a in pair for b in pair]


def overlap_masses(n: int, q: float) -> tuple[list, list]:
    """The pair with overlap ``q`` that ``pbrcheck feasibility --lambda-size n --q q`` builds."""
    m0, m1 = [0.0] * n, [0.0] * n
    if q == 0.0:
        m0[0], m1[n - 1] = 1.0, 1.0
        return m0, m1
    m0[0], m1[n - 1] = 1.0 - q, 1.0 - q
    for i in range(1, n - 1):
        m0[i] += q / (n - 2)
        m1[i] += q / (n - 2)
    return m0, m1


def supports_overlap(m0, m1) -> bool:
    return any(a > EPS_ZERO and b > EPS_ZERO for a, b in zip(m0, m1))


def outer(a, b) -> list:
    return [[x * y for y in b] for x in a]


def pbr_joints(m0, m1) -> list:
    by_char = {"0": m0, "+": m1}
    return [outer(by_char[a], by_char[b]) for a, b in PREPARATIONS]


def _close(values, expected, tol=ROW_TOL) -> bool:
    return len(values) == len(expected) and all(
        len(r) == len(e) and all(abs(x - y) <= tol for x, y in zip(r, e)) for r, e in zip(values, expected)
    )


# ------------------------------------------------------------------- verdicts

def witness_problems(joints, targets, table, eps=EPS_LP) -> list:
    """Non-negative rows summing to 1 that miss the statistics by at most ``eps`` in total."""
    n, k = len(joints[0]), len(targets[0])
    if len(table) != n or any(len(row) != n or any(len(cell) != k for cell in row) for row in table):
        return ["witness has the wrong shape"]
    problems = []
    for l1 in range(n):
        for l2 in range(n):
            cell = table[l1][l2]
            if min(cell) < 0.0 or abs(sum(cell) - 1.0) > SUM_TOL:
                problems.append(f"witness row ({l1}, {l2}) is not a distribution: {cell}")
    miss = 0.0
    for joint, target in zip(joints, targets):
        for out in range(k):
            predicted = 0.0
            for l1 in range(n):
                for l2 in range(n):
                    predicted += joint[l1][l2] * table[l1][l2][out]
            miss += abs(predicted - target[out])
    if not miss <= eps:
        problems.append(f"witness misses the statistics by {miss:.3e} in total (> {eps:g})")
    return problems


def certificate_bound(joints, targets, duals) -> Fraction:
    """Exact lower bound on every response function's total violation, proved by ``duals``.

    With ``|y| <= 1`` and response rows that are distributions,
    ``V >= sum y[p][k] target[p][k] - sum_pairs max_k sum_p joint_p[pair] y[p][k]``.
    """
    k = len(targets[0])
    y = [[Fraction(float(v)) for v in row] for row in duals]
    bound = Fraction(0)
    for p, target in enumerate(targets):
        for out in range(k):
            bound += y[p][out] * Fraction(float(target[out]))
    n = len(joints[0])
    for l1 in range(n):
        for l2 in range(n):
            gains = []
            for out in range(k):
                gain = Fraction(0)
                for p, joint in enumerate(joints):
                    gain += Fraction(float(joint[l1][l2])) * y[p][out]
                gains.append(gain)
            bound -= max(gains)
    return bound


def certificate_problems(joints, targets, duals, eps=EPS_LP) -> list:
    if len(duals) != len(joints) or any(len(row) != len(targets[0]) for row in duals):
        return ["certificate has the wrong shape"]
    if any(abs(float(v)) > 1.0 for row in duals for v in row):
        return ["certificate duals leave [-1, 1]"]
    bound = certificate_bound(joints, targets, duals)
    if not bound > eps:
        return [f"certificate proves only {float(bound):.3e} (<= {eps:g})"]
    return []


def verdict_problems(expected_feasible, joints, targets, feasible, witness=None, certificate=None) -> list:
    """Verdict against the expected one, with its witness or certificate re-derived."""
    if feasible != expected_feasible:
        return [f"verdict {'feasible' if feasible else 'infeasible'}, expected the opposite"]
    if feasible:
        return ["feasible verdict without a witness"] if witness is None else witness_problems(joints, targets, witness)
    if certificate is None:
        return ["infeasible verdict without a certificate"]
    return certificate_problems(joints, targets, certificate)


# ---------------------------------------------------------------- Monte Carlo

def mc_expected(mass_a, mass_b, table) -> list:
    """sum_{l1, l2} mu_a(l1) mu_b(l2) xi(k | l1, l2), by loops."""
    k = len(table[0][0])
    expected = [0.0] * k
    for l1, a in enumerate(mass_a):
        for l2, b in enumerate(mass_b):
            for out in range(k):
                expected[out] += a * b * table[l1][l2][out]
    return expected


def frequency_bound(p: float, samples: int, false_alarm: float = MC_FALSE_ALARM) -> float:
    """Deviation of a binomial frequency that Bernstein's inequality makes rarer than ``false_alarm``."""
    p = min(max(p, 0.0), 1.0)
    log_term = math.log(2.0 / false_alarm)
    excess = log_term / 3 + math.sqrt((log_term / 3) ** 2 + 2 * samples * p * (1 - p) * log_term)
    return excess / samples + 1e-12


def frequency_problems(freqs, expected, samples: int) -> list:
    if len(freqs) != len(expected):
        return [f"{len(freqs)} frequencies for {len(expected)} outcomes"]
    problems = []
    for out, (f, p) in enumerate(zip(freqs, expected)):
        if abs(f * samples - round(f * samples)) > 1e-6:
            problems.append(f"outcome {out}: frequency {f!r} is no count over {samples}")
        if abs(f - p) > frequency_bound(p, samples):
            problems.append(f"outcome {out}: frequency {f:.6g} vs expected {p:.6g} at {samples} samples")
    return problems


# ------------------------------------------------------------------- CLI calls

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _text_value(raw: str):
    if raw in ("True", "False"):
        return raw == "True"
    if _NUMBER.fullmatch(raw):
        return float(raw)
    if raw.startswith("[") and raw.endswith("]") and "[" not in raw[1:]:
        return [float(x) for x in _NUMBER.findall(raw)]
    return raw


def parse_document(fmt: str, stdout: str) -> tuple[list, dict]:
    """(tables as lists of float rows, fields) of a rendered document.

    JSON fields are its extras plus ``status``, ``witness`` and ``agreement``
    of the first verdict; text fields are its ``key: value`` lines; CSV has
    no fields and one table holding every row.
    """
    if fmt == "json":
        doc = json.loads(stdout)
        fields = dict(doc["extras"])
        if doc["verdicts"]:
            verdict = doc["verdicts"][0]
            fields.update({k: verdict[k] for k in ("status", "witness", "agreement") if k in verdict})
        return [t["probabilities"] for t in doc["tables"]], fields
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(stdout)))
        return [[[float(x) for x in row] for row in rows[1:]]], {}
    tables, fields, table = [], {}, None
    for line in stdout.splitlines():
        if line.startswith("table:"):
            table = []
            tables.append(table)
        elif table is not None:
            if not line.strip():
                table = None
            elif not line.startswith("row "):
                table.append([0.0 if cell == "0*" else float(cell) for cell in line.split()[1:]])
        elif line.startswith("verdict ["):
            fields["status"] = line.split("]: ", 1)[1].strip()
        elif ": " in line:
            key, raw = line.split(": ", 1)
            fields[key] = _text_value(raw.strip())
    return tables, fields


def cli_problems(call: dict, code: int, stdout: str) -> list:
    """Exit code and document of one ``pbrcheck`` call, by command."""
    command, fmt = call["command"], call["format"]
    if command == "version":
        ok = code == 0 and re.fullmatch(r"pbrcheck, version \S+\n", stdout)
        return [] if ok else [f"--version: exit {code}, output {stdout!r}"]
    try:
        tables, fields = parse_document(fmt, stdout)
        return _document_problems(call, code, tables, fields)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed {fmt} document (exit {code}): {exc!r}"]


def _document_problems(call, code, tables, fields) -> list:
    command = call["command"]
    problems = []

    def expect(cond, message):
        if not cond:
            problems.append(message)

    if command == "pbr-table":
        expect(code == 0, f"exit {code}, expected 0")
        expect(_close(tables[0], PRODUCT_ROWS), "Born rows differ from the product rows")
        if fields:
            expect(fields.get("zero_pattern_matches_pairing") is True, "zero pattern not reported as the pairing")
    elif command == "mz":
        expect(code == 0, f"exit {code}, expected 0")
        expect(_close(tables[0], [[0.25] * 4]), f"mz row is not 1/4 everywhere: {tables[0]}")
        if fields:
            expect(fields.get("verdict") == "compatible", "mz not reported compatible")
    elif command == "theta":
        theta = call["theta"]
        expect(code == 0, f"exit {code}, expected 0")
        expect(_close(tables[0], theta_rows(theta)), "theta Born rows differ")
        if fields:
            expect(abs(fields.get("overlap", math.inf) - math.cos(theta)) <= ROW_TOL, "overlap is not cos(theta)")
    elif command == "feasibility":
        problems += _feasibility_problems(call, code, tables, fields)
    elif command == "montecarlo":
        problems += _montecarlo_problems(call, code, tables, fields)
    else:
        problems.append(f"unknown command {command!r}")
    return problems


def _feasibility_problems(call, code, tables, fields) -> list:
    scenario, n, q = call["scenario"], call["lambda_size"], call["q"]
    m0, m1 = overlap_masses(n, q)
    if scenario == "pbr":
        joints, targets = pbr_joints(m0, m1), PRODUCT_ROWS
        contradiction = supports_overlap(m0, m1)
    else:
        mix = [(a + b) / 2 for a, b in zip(m0, m1)]
        joints, targets, contradiction = [outer(mix, mix)], [MZ_ROW], False
    problems = []
    if not _close(tables[0], targets):
        problems.append("target statistics differ from the Born rows")
    if fields:
        status = fields.get("status")
        if abs(fields.get("q_measured", math.inf) - q) > ROW_TOL:
            problems.append(f"q_measured {fields.get('q_measured')} differs from the requested {q}")
        if status not in ("feasible", "infeasible"):
            return problems + [f"no verdict status (exit {code})"]
        if scenario == "pbr":
            predicted = fields.get("contradiction_predicted")
            if predicted is not contradiction:
                problems.append(f"contradiction_predicted is {predicted}, overlap says {contradiction}")
            if (status == "feasible") == bool(predicted):
                if not (fields.get("agreement") is False and code == 3):
                    problems.append(
                        f"status {status} contradicts contradiction_predicted: {predicted} "
                        f"without agreement: false and exit 3 (exit {code})"
                    )
                return problems
        if (status == "feasible") != (code == 0):
            problems.append(f"status {status} but exit {code}")
        if status == "feasible" and "witness" in fields:
            problems += witness_problems(joints, targets, fields["witness"])
    if 0.0 < q < 1e-3 and scenario == "pbr":
        return problems  # inside the tolerance band only consistency is checked
    expected_code = 3 if contradiction else 0
    if code != expected_code:
        problems.append(f"exit {code}, expected {expected_code}")
    return problems


def psi_ontic_model() -> tuple[list, list]:
    """(device pairs as point masses, response table) of the psi-ontic model on two states."""
    point = {"0": [1.0, 0.0], "+": [0.0, 1.0]}
    table = [[PRODUCT_ROWS[2 * s1 + s2] for s2 in range(2)] for s1 in range(2)]
    return [(point[a], point[b]) for a, b in PREPARATIONS], table


def _montecarlo_problems(call, code, tables, fields) -> list:
    samples = call["samples"]
    if call["model"] == "psi-ontic":
        pairs, table = psi_ontic_model()
    else:
        pairs, table = [([1 / 3] * 3, [1 / 3] * 3)], [[[0.25] * 4] * 3] * 3
    expected = [mc_expected(a, b, table) for a, b in pairs]
    rows = [row for t in tables for row in t]
    if len(rows) != 2 * len(pairs):
        return [f"{len(rows)} table rows, expected {2 * len(pairs)}"]
    problems = []
    for i, exp in enumerate(expected):
        problems += frequency_problems(rows[i], exp, samples)
    if not _close(rows[len(pairs):], expected):
        problems.append("target distributions differ from the model's")
    if code not in (0, 3):
        problems.append(f"exit {code}")
    if fields and fields.get("within_bounds") is not (code == 0):
        problems.append(f"within_bounds {fields.get('within_bounds')} but exit {code}")
    return problems
