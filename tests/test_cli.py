"""End-to-end tests of the command line: exit codes, formats, determinism."""

import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pbrcheck
from pbrcheck import (
    EPS_ZERO,
    OnticSpace,
    constant_response,
    monte_carlo,
    pbr_target_rows,
    point_mass,
    state_assignment_response,
    uniform,
)
from pbrcheck import ontic, quantum, scenarios
from pbrcheck.cli import main
from pbrcheck.report import ReportDocument
from pbrcheck.scenarios import mz_scenario


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env() -> dict:
    """Environment of a ``python -m pbrcheck`` child: this checkout's ``src``, buffered stdout."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# --- exit code contract ---


class TestExitCodes:
    def test_pbr_overlapping_is_infeasible(self, capsys):
        code, _, _ = run(capsys, "feasibility", "--scenario", "pbr", "--q", "0.3")
        assert code == 3

    def test_pbr_disjoint_is_feasible(self, capsys):
        code, _, _ = run(capsys, "feasibility", "--scenario", "pbr", "--q", "0")
        assert code == 0

    def test_mz_overlapping_is_feasible(self, capsys):
        code, _, _ = run(capsys, "feasibility", "--scenario", "mz", "--q", "0.3")
        assert code == 0

    def test_bad_lambda_size_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "feasibility", "--lambda-size", "9")
        assert code == 1

    def test_overlap_needs_room_for_a_middle_block(self, capsys):
        code, _, err = run(capsys, "feasibility", "--lambda-size", "2", "--q", "0.5")
        assert code == 1
        assert "3 ontic states" in err

    @pytest.mark.parametrize(
        "argv, flags",
        [(["pbr-table"], ["-u"]), (["pbr-table"], []), (["--help"], ["-u"]), (["--help"], [])],
        ids=["unbuffered", "buffered", "help-unbuffered", "help-buffered"],
    )
    def test_io_error_exits_two(self, argv, flags):
        """A document or the help written to a full disk exits 2, whether the write or the last flush fails."""
        with open("/dev/full", "w") as sink:
            proc = subprocess.run(
                [sys.executable, *flags, "-m", "pbrcheck", *argv],
                stdout=sink,
                stderr=subprocess.PIPE,
                env=child_env(),
            )
        assert proc.returncode == 2

    def test_broken_pipe_returns_two_in_process(self, monkeypatch):
        class BrokenPipe(io.StringIO):
            def write(self, s):
                raise BrokenPipeError(32, "Broken pipe")

        stdout = BrokenPipe()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["pbr-table"]) == 2
        assert sys.stdout is stdout

    def test_closed_pipe_reader_exits_two(self):
        """A document, the version and the help alike exit 2 and say why."""
        for argv in (["pbr-table"], ["--version"], ["--help"], ["feasibility", "--help"]):
            reader, writer = os.pipe()
            os.close(reader)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "pbrcheck", *argv],
                    stdout=writer,
                    stderr=subprocess.PIPE,
                    env=child_env(),
                )
            finally:
                os.close(writer)
            assert proc.returncode == 2, argv
            assert b"I/O error" in proc.stderr, argv


USAGE_ERRORS = [
    ("--format xml pbr-table", "invalid choice: 'xml'"),
    *(
        (f"--tolerance {t} pbr-table", "zero-flag threshold must be a real number in (0, inf)")
        for t in ("-1", "0", "nan", "inf")
    ),
    ("feasibility --lambda-size 0", "invalid choice: 0"),
    ("feasibility --lambda-size 9", "invalid choice: 9"),
    *((f"feasibility --q {q}", "overlap q must be a real number in [0, 1]") for q in ("-0.1", "1.5", "nan")),
    ("feasibility --lambda-size 2 --q 0.5", "at least 3 ontic states"),
    ("montecarlo --samples 0", f"samples must be an integer in [1, {2**63}), got 0"),
    ("montecarlo --seed -1", "seed must be an integer in [0, inf), got -1"),
    ("montecarlo --samples 100000000000000000000", f"samples must be an integer in [1, {2**63}), got {10**20}"),
    ("theta", "required: --theta"),
    *((f"theta --theta {theta}", f"theta must be a real number in (0, {math.pi})") for theta in ("0", "3.5")),
    ("no-such-command", "invalid choice: 'no-such-command'"),
    ("pbr-table --bogus", "unrecognized arguments: --bogus"),
    ("--lam 4 pbr-table", "invalid choice: '4'"),
    ("feasibility --lam 5", "unrecognized arguments: --lam 5"),
    ("", "required: COMMAND"),
    ("--format json", "required: COMMAND"),
]


@pytest.mark.parametrize("argv, reason", USAGE_ERRORS, ids=[argv or "no command" for argv, _ in USAGE_ERRORS])
def test_usage_error_exits_one_with_usage_and_reason(capsys, argv, reason):
    """Whether argparse or a parameter's domain rejects it, a usage error prints
    nothing on stdout, and on stderr a usage line and an error line that says why."""
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert lines[0].startswith("usage: pbrcheck")
    assert lines[-1].startswith("pbrcheck") and ": error: " in lines[-1] and reason in lines[-1]


@pytest.mark.parametrize("argv", [["--help"], ["feasibility", "--help"]], ids=" ".join)
def test_help_returns_zero(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: pbrcheck")


def test_version_wins_over_a_following_command(capsys):
    assert run(capsys, "--version", "pbr-table") == (0, f"pbrcheck, version {pbrcheck.__version__}\n", "")


# --- pbr-table ---


class TestPbrTable:
    def test_text_has_exactly_four_zero_flagged_cells(self, capsys):
        code, out, _ = run(capsys, "pbr-table")
        assert code == 0
        assert out.count("0*") == 4

    def test_json_row_sums_and_revalidation(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "pbr-table")
        assert code == 0
        doc = ReportDocument.from_json(out)
        table = doc.tables[0]
        np.testing.assert_allclose(table.row_sums(), 1.0, atol=1e-9)
        assert doc.extras["zero_pattern_matches_pairing"] is True

    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "pbr-table")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["xi1", "xi2", "xi3", "xi4"]
        data = rows[1:]
        assert len(data) == 4
        assert all(len(r) == 4 for r in data)
        assert all(float(x) >= 0 for r in data for x in r)

    def test_loose_display_tolerance_breaks_the_pattern(self, capsys):
        """--tolerance only moves display flags, and the exit check follows them."""
        code, out, _ = run(capsys, "--tolerance", "0.3", "pbr-table")
        assert code == 3
        assert out.count("0*") == 12


# --- mz ---


class TestMz:
    def test_reports_normalization_and_verdict(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "mz")
        assert code == 0
        doc = ReportDocument.from_json(out)
        assert abs(doc.extras["normalization_sq"] - 0.292893218813452) <= 1e-12
        assert doc.extras["verdict"] == "compatible"
        probs = np.array(doc.tables[0].probabilities)
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_table_is_the_mz_scenario(self, capsys):
        _, out, _ = run(capsys, "--format", "json", "mz")
        table = ReportDocument.from_json(out).tables[0]
        setup = mz_scenario()
        np.testing.assert_array_equal(table.probabilities, setup.targets)
        assert table.row_labels == setup.labels
        assert table.title == "Psi vs measurement basis"

    def test_text_contains_verdict(self, capsys):
        code, out, _ = run(capsys, "mz")
        assert code == 0
        assert "compatible" in out


# --- theta ---


class TestTheta:
    def test_overlap_at_pi_over_three(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "theta", "--theta", str(math.pi / 3))
        assert code == 0
        doc = ReportDocument.from_json(out)
        assert abs(doc.extras["overlap"] - 0.5) <= 1e-12

    def test_orthogonal_pair(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "theta", "--theta", str(math.pi / 2))
        assert code == 0
        doc = ReportDocument.from_json(out)
        assert abs(doc.extras["overlap"]) <= 1e-12
        np.testing.assert_allclose(doc.tables[0].row_sums(), 1.0, atol=1e-9)


# --- feasibility ---


class TestFeasibilityCommand:
    def test_infeasible_document_names_a_constraint(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "feasibility", "--q", "0.3")
        assert code == 3
        doc = ReportDocument.from_json(out)
        verdict = doc.verdicts[0]
        assert verdict["status"] == "infeasible"
        assert "cannot satisfy" in verdict["violated_constraint"]
        assert doc.extras["contradiction_predicted"] is True

    def test_feasible_document_carries_a_witness(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "feasibility", "--q", "0")
        assert code == 0
        doc = ReportDocument.from_json(out)
        verdict = doc.verdicts[0]
        assert verdict["status"] == "feasible"
        witness = np.array(verdict["witness"])
        assert witness.shape == (4, 4, 4)
        np.testing.assert_allclose(witness.sum(axis=2), 1.0, atol=1e-7)
        assert verdict["max_residual"] <= 1e-7

    def test_measured_overlap_matches_request(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "feasibility", "--q", "0.25", "--lambda-size", "6")
        assert code == 3
        doc = ReportDocument.from_json(out)
        assert abs(doc.extras["q_measured"] - 0.25) <= 1e-12

    @pytest.mark.parametrize(
        "q, status, agreement, exit_code",
        [
            # Overlap 1e-4 forces a violation of only 2e-8, below EPS_LP, so
            # the LP finds a response function the predicate rules out.
            ("1e-4", "feasible", False, 3),
            ("0", "feasible", True, 0),
            ("0.3", "infeasible", True, 3),
        ],
    )
    def test_document_states_agreement_with_the_predicate(self, capsys, q, status, agreement, exit_code):
        code, out, _ = run(capsys, "--format", "json", "feasibility", "--q", q)
        doc = ReportDocument.from_json(out)
        verdict = doc.verdicts[0]
        assert verdict["status"] == status
        assert doc.extras["agreement"] is agreement
        assert code == exit_code
        if status == "feasible":  # at q = 1e-4 the LP's witness, one response row per reached pair
            assert verdict["max_residual"] <= 1e-7

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            ("--format json feasibility --scenario mz --lambda-size 8 --q 1.0", 0),
            ("feasibility --lambda-size 3 --q 1.0", 3),
        ],
    )
    def test_exit_code_at_full_overlap(self, capsys, argv, exit_code):
        """Identical preparations reproduce mz's single Born row, but not PBR's four."""
        assert run(capsys, *argv.split())[0] == exit_code


def test_text_document_states_the_scenario_once(capsys):
    """Each run parameter once, and V* = 2 q**2 = 0.18 once, as the interval that the zero-cell dual (its float
    less a proven error) and the compensation witness pin."""
    code, out, _ = run(capsys, "feasibility", "--q", "0.3")
    assert code == 3
    assert [line for line in out.splitlines() if line.startswith("scenario:")] == ["scenario: feasibility-pbr"]
    assert out.count("[1.800e-01, 1.800e-01]") == 1


@pytest.mark.parametrize(
    "argv, parameters, dropped",
    [
        (["feasibility", "--q", "0.3"], {"scenario", "lambda_size", "q"}, {"scenario", "lambda_size", "q_requested"}),
        (["theta", "--theta", "1.0"], {"theta"}, {"theta"}),
    ],
    ids=["feasibility", "theta"],
)
def test_json_extras_repeat_no_run_parameter(capsys, argv, parameters, dropped):
    """Each run parameter appears once, in ``metadata.parameters``."""
    _, out, _ = run(capsys, "--format", "json", *argv)
    doc = ReportDocument.from_json(out)
    assert set(doc.metadata["parameters"]) == parameters
    assert not dropped & set(doc.extras)


# --- montecarlo ---


class TestMonteCarloCommand:
    def test_psi_ontic_within_bounds(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "montecarlo", "--samples", "20000", "--seed", "12"
        )
        assert code == 0
        doc = ReportDocument.from_json(out)
        assert doc.extras["within_bounds"] is True
        assert len(doc.tables) == 2
        assert doc.tables[0].row_labels == ("|00>", "|0+>", "|+0>", "|++>")

    def test_mz_constant_within_bounds(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "montecarlo", "--samples", "20000",
            "--seed", "2", "--model", "mz-constant",
        )
        assert code == 0
        doc = ReportDocument.from_json(out)
        np.testing.assert_allclose(np.array(doc.tables[1].probabilities), 0.25)

    def test_mz_constant_computes_no_born_row(self, capsys, monkeypatch):
        """The constant model's targets are its own quarter row, not the mz Born row."""
        born, calls = quantum.born_distribution, []

        def counted(*args):
            calls.append(args)
            return born(*args)

        for module in (quantum, scenarios):
            monkeypatch.setattr(module, "born_distribution", counted)
        run(capsys, "montecarlo", "--samples", "100", "--model", "psi-ontic")
        assert len(calls) == 4
        calls.clear()
        run(capsys, "montecarlo", "--samples", "100", "--model", "mz-constant")
        assert calls == []

    @staticmethod
    def run_with_one_cell_off(capsys, monkeypatch, offset):
        """The command's document when the |00> cell of 0.25 is off by ``offset``
        (and its 0.5 cell by ``-offset``) at 1e5 samples, every other cell exact."""

        def exact_but_one_cell(mu_a, mu_b, response, samples, seed):
            freq = np.einsum("i,j,ijk->k", mu_a.mass, mu_b.mass, response.table)
            return freq + np.array([0.0, offset, 0.0, -offset]) if seed.spawn_key == (0,) else freq

        monkeypatch.setattr("pbrcheck.cli.monte_carlo", exact_but_one_cell)
        code, out, _ = run(capsys, "--format", "json", "montecarlo", "--seed", "57")
        return code, ReportDocument.from_json(out)

    def test_bound_covers_all_12_cells_together(self, capsys, monkeypatch):
        """0.00412 lies beyond 3 sigma (0.00411) but within z sigma (0.00505),
        the bound that covers all 12 cells together."""
        code, doc = self.run_with_one_cell_off(capsys, monkeypatch, 0.00412)
        assert code == 0
        assert doc.extras["within_bounds"] is True
        assert doc.extras["max_abs_deviation"] == pytest.approx(0.00412, abs=1e-12)
        assert doc.extras["max_abs_deviation"] > 3.0 * math.sqrt(0.25 * 0.75 / 100_000)
        assert doc.extras["z"] == pytest.approx(3.689, abs=1e-3)
        targets = np.array(doc.tables[1].probabilities)
        sigma = np.sqrt(targets * (1.0 - targets) / 100_000)
        np.testing.assert_allclose(doc.extras["deviation_bounds"], doc.extras["z"] * sigma)

    def test_deviation_beyond_the_bound_exits_3(self, capsys, monkeypatch):
        code, doc = self.run_with_one_cell_off(capsys, monkeypatch, 0.0051)
        assert code == 3
        assert doc.extras["within_bounds"] is False
        assert doc.extras["max_abs_deviation"] == pytest.approx(0.0051, abs=1e-12)

    @pytest.mark.parametrize("model", ["psi-ontic", "mz-constant"])
    def test_bound_misses_at_the_nominal_rate(self, capsys, model):
        """Over seeds 0-1499 at 1e4 samples a correct sampler misses the bound at
        most 12 times.  The nominal rate is at most 0.27%, about 4 expected
        misses, and P(Poisson(4.05) >= 13) is about 5e-4."""
        samples = 10_000
        if model == "psi-ontic":
            space = OnticSpace(2)
            by_char = {"0": point_mass(space, 0), "+": point_mass(space, 1)}
            device_pairs = [(by_char[a], by_char[b]) for a, b in ("00", "0+", "+0", "++")]
            response = state_assignment_response((0, 1), pbr_target_rows())
            targets = pbr_target_rows()
        else:
            mu = uniform(OnticSpace(3))
            device_pairs, response, targets = [(mu, mu)], constant_response(3, [0.25] * 4), np.full((1, 4), 0.25)
        cells = np.count_nonzero((targets > EPS_ZERO) & (targets < 1.0 - EPS_ZERO))
        z = statistics.NormalDist().inv_cdf(1.0 - 0.0027 / (2 * cells))
        bounds = z * np.sqrt(targets * (1.0 - targets) / samples)

        def frequencies(seed):
            return np.array([
                monte_carlo(a, b, response, samples, np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
                for i, (a, b) in enumerate(device_pairs)
            ])

        # The rule above is the command's own: its document at seed 0 agrees.
        code, out, _ = run(
            capsys, "--format", "json", "montecarlo", "--samples", str(samples), "--seed", "0", "--model", model
        )
        doc = ReportDocument.from_json(out)
        np.testing.assert_array_equal(doc.tables[0].probabilities, frequencies(0))
        np.testing.assert_array_equal(doc.tables[1].probabilities, targets)
        assert doc.extras["z"] == z
        np.testing.assert_array_equal(doc.extras["deviation_bounds"], bounds)
        assert doc.extras["within_bounds"] is (code == 0)

        misses = sum(not np.all(np.abs(frequencies(seed) - targets) <= bounds) for seed in range(1500))
        assert misses <= 12

    def test_exit_code_follows_the_document_at_1e8_samples(self, capsys):
        """About 3000 sample blocks per preparation, where the other tests draw a few."""
        code, out, _ = run(capsys, "--format", "json", "montecarlo", "--samples", "100000000")
        assert code == (0 if ReportDocument.from_json(out).extras["within_bounds"] else 3)

    def test_same_seed_is_byte_identical(self, capsys):
        args = ("--format", "json", "montecarlo", "--samples", "5000", "--seed", "123")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_single_sample_document_is_valid(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "montecarlo", "--samples", "1", "--seed", "0")
        doc = ReportDocument.from_json(out)
        freq = np.array(doc.tables[0].probabilities)
        assert np.all(np.isin(freq, [0.0, 1.0]))
        assert code in (0, 3)


# --- documents revalidate across all commands ---


ALL_COMMANDS = [
    ("pbr-table",),
    ("mz",),
    ("theta", "--theta", "1.0"),
    ("feasibility", "--scenario", "pbr", "--q", "0.3"),
    ("feasibility", "--scenario", "mz", "--q", "0.3", "--lambda-size", "5"),
    ("montecarlo", "--samples", "2000", "--seed", "1"),
    ("montecarlo", "--samples", "2000", "--seed", "1", "--model", "mz-constant"),
]


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: " ".join(a))
def test_json_round_trip(capsys, argv):
    """Every JSON document re-parses and revalidates its table invariants."""
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code in (0, 3)
    doc = ReportDocument.from_json(out)
    for table in doc.tables:
        np.testing.assert_allclose(table.row_sums(), 1.0, atol=1e-9)
    assert json.loads(doc.to_json()) == json.loads(out)


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: " ".join(a))
def test_text_and_csv_render(capsys, argv):
    """The human formats render non-empty ASCII for every command."""
    for fmt in ("text", "csv"):
        code, out, _ = run(capsys, "--format", fmt, *argv)
        assert code in (0, 3)
        assert out.strip()
        assert out.isascii()


ENTRYPOINT_CASES = [
    *(("--format", "json", *argv) for argv in ALL_COMMANDS),
    ("theta", "--theta", "0"),
    ("feasibility", "--q", "0.3"),
]


@pytest.mark.parametrize("argv", ENTRYPOINT_CASES, ids=lambda a: " ".join(a))
def test_console_script_runs(capsys, argv):
    """The process delivers exactly what ``main`` produces in-process, flushed in full."""
    proc = subprocess.run(
        [sys.executable, "-m", "pbrcheck", *argv], capture_output=True, text=True, env=child_env()
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, *argv)


def test_console_script_with_stdout_closed():
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m pbrcheck pbr-table >&-', sys.executable],
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
    )
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.mark.parametrize("stream, argv, code", [("stdout", "theta --theta 0", 1), ("stderr", "--version", 0)])
def test_entrypoint_flushes_what_main_leaves_pending(stream, argv, code):
    """Output that ``main`` leaves in a stream's buffer still reaches the reader."""
    script = f"import sys; from pbrcheck import cli; sys.{stream}.write('pending'); cli.entrypoint()"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv.split()], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == code
    assert getattr(proc, stream) == "pending"


def test_the_traced_entry_points_are_reached(capsys, monkeypatch):
    """Each entry point the benchmark's tracer wraps by name is called by the commands a traced session runs.

    As the tracer does, each function is replaced on every binding in the loaded pbrcheck modules, so a
    call that goes round the module binding counts nothing.  scipy's ``linprog`` is held by
    ``test_only_lp_commands_import_scipy``."""
    counts = {}

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    modules = [m for name, m in list(sys.modules.items()) if name == "pbrcheck" or name.startswith("pbrcheck.")]
    entry_points = [
        (ontic, "feasibility"),
        (ontic, "monte_carlo"),
        (scenarios, "zero_outcome_table"),
        (scenarios, "pbr_target_rows"),
        (quantum, "born_distribution"),
    ]
    for module, attr in entry_points:
        func, name = getattr(module, attr), f"{module.__name__}.{attr}"
        counts[name], traced = 0, counted(name, func)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is func:
                    monkeypatch.setattr(m, key, traced)
    counts["ReportDocument.render"] = 0
    monkeypatch.setattr(ReportDocument, "render", counted("ReportDocument.render", ReportDocument.render))
    for argv in (
        ["pbr-table"], ["mz"], ["theta", "--theta", "1.0"], ["feasibility", "--q", "0.3"],
        ["feasibility", "--scenario", "mz", "--q", "0.5"], ["montecarlo", "--samples", "1000"],
    ):
        main(argv)
    capsys.readouterr()
    assert [name for name, count in counts.items() if count == 0] == [], counts


def test_only_lp_commands_import_scipy():
    """scipy is loaded by the first LP verdict, and by nothing before it.

    Feasible verdicts whose witness needs no LP load none: disjoint supports
    (pbr, q = 0) and the single mz preparation.  Nor does an overlapping pbr
    instance outside the band, whose V* the zero-cell dual and the
    compensation witness pin.  Inside the band (q = 1e-4) the LP decides.
    No command loads click."""
    script = """
import json, sys
import pbrcheck
from pbrcheck import cli
loaded = {"import pbrcheck": "scipy" in sys.modules}
for argv in (
    ["--version"], ["pbr-table"], ["mz"], ["theta", "--theta", "1.0"], ["montecarlo", "--samples", "1000"],
    ["feasibility"], ["feasibility", "--scenario", "mz", "--q", "0.5"], ["feasibility", "--q", "0.3"],
):
    cli.main(argv)
    loaded[" ".join(argv)] = "scipy" in sys.modules
cli.main(["feasibility", "--q", "1e-4"])
loaded["feasibility --q 1e-4"] = "scipy.optimize" in sys.modules
loaded["click"] = "click" in sys.modules
print(json.dumps(loaded), file=sys.stderr)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stderr.splitlines()[-1])
    assert loaded == {
        "import pbrcheck": False,
        "--version": False,
        "pbr-table": False,
        "mz": False,
        "theta --theta 1.0": False,
        "montecarlo --samples 1000": False,
        "feasibility": False,
        "feasibility --scenario mz --q 0.5": False,
        "feasibility --q 0.3": False,
        "feasibility --q 1e-4": True,
        "click": False,
    }
