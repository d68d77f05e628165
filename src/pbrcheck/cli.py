"""Command line front end.

Every subcommand prints one report document to stdout (text, JSON or CSV) and
signals its verdict through the exit code:

    0  success / feasible
    1  usage error: anything argparse rejects, and a parameter outside its
       domain (a ``DomainError`` raised by any command)
    2  I/O error: any failed write of the document, the help or the version,
       including a full disk and a closed pipe
    3  check failed (infeasible, or a verified property did not hold)
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys

import numpy as np

from . import __version__
from .errors import DomainError
from .ontic import (
    EPS_LP,
    OnticSpace,
    constant_response,
    joint,
    mixture,
    monte_carlo,
    overlap,
    overlap_pair,
    pbr_contradiction,
    point_mass,
    state_assignment_response,
    uniform,
)
from .ontic import feasibility as solve_feasibility
from .quantum import EPS_NORM, EPS_PROB, EPS_ZERO, as_int, as_real
from .report import ReportDocument, verdict_summary
from .scenarios import (
    ZERO_PAIRING,
    Scenario,
    mz_joint_state,
    mz_normalization_sq,
    mz_preparation_state,
    mz_scenario,
    pbr_scenario,
    theta_pair,
    theta_table,
    zero_outcome_table,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_CHECK_FAILED = 3


class _Exit(Exception):
    """``(code, text)``: ``main`` writes ``text`` to stderr and returns ``code``, where argparse would exit."""


class _Parser(argparse.ArgumentParser):
    # Every parser, subcommands included, takes exactly the spellings it
    # declares: no -h, and no prefixes such as --lam.
    def __init__(self, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="show this help and exit")

    def _print_message(self, message, file=None):
        _write(message)  # only ever help and --version, both for stdout

    def exit(self, status=0, message=None):
        raise _Exit(status, message or "")

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _tolerance(text: str) -> float:
    try:
        return as_real(float(text), "zero-flag threshold", 0, math.inf, closed=False)
    except ValueError as exc:  # float's refusal of text that is no number, or the reader's DomainError
        raise argparse.ArgumentTypeError(str(exc)) from None


def _metadata(args, seed=None, **parameters) -> dict:
    return {
        "version": __version__,
        "seed": seed,
        "tolerances": {
            "norm": EPS_NORM,
            "prob": EPS_PROB,
            "zero_flag": args.tolerance,
            "lp": EPS_LP,
        },
        "parameters": parameters,
    }


def _write(text: str) -> None:
    """Write and flush to stdout; a failed write raises ``OSError`` into ``main``."""
    if sys.stdout is not None:  # None when fd 1 was closed at start: nothing to write to
        sys.stdout.write(text)
        sys.stdout.flush()


def _emit(args, doc: ReportDocument, ok: bool) -> int:
    _write(doc.render(args.format))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def pbr_table_cmd(args) -> int:
    """Born table of the four announced product preparations against the xi basis.

    Exits 0 iff the zero pattern is exactly the expected preparation/outcome
    pairing (the diagonal), 3 otherwise.
    """
    table = zero_outcome_table(zero_threshold=args.tolerance)
    flagged = {(row, col) for row, col in np.argwhere(table.zero_flags).tolist()}
    pattern_ok = flagged == set(ZERO_PAIRING)
    doc = ReportDocument(
        scenario="pbr-table",
        tables=[table],
        metadata=_metadata(args),
        extras={
            "zero_flag_count": int(table.zero_flags.sum()),
            "zero_pattern_matches_pairing": pattern_ok,
        },
    )
    return _emit(args, doc, pattern_ok)


def mz_cmd(args) -> int:
    """Which-way-free (Mach-Zehnder) preparation: state, normalization, compatibility.

    Exits 0 iff all four outcome probabilities exceed the zero-flag threshold.
    """
    setup = mz_scenario()
    table = setup.table(setup.targets, args.tolerance, "Psi vs measurement basis")
    psi = mz_preparation_state()
    joint_state = mz_joint_state()
    doc = ReportDocument(
        scenario="mz",
        tables=[table],
        metadata=_metadata(args),
        extras={
            "normalization_sq": mz_normalization_sq(),
            "preparation_amplitudes": [[z.real, z.imag] for z in psi],
            "joint_amplitudes": [[z.real, z.imag] for z in joint_state],
            "verdict": "compatible" if table.compatible else "incompatible",
        },
    )
    return _emit(args, doc, table.compatible)


def theta_cmd(args) -> int:
    """Overlap and xi-basis Born table for the tunable state pair."""
    pair = theta_pair(args.theta)
    table = theta_table(pair, zero_threshold=args.tolerance)
    doc = ReportDocument(
        scenario="theta",
        tables=[table],
        metadata=_metadata(args, theta=args.theta),
        extras={"overlap": pair.overlap},
    )
    return _emit(args, doc, True)


def feasibility_cmd(args) -> int:
    """Can an epistemic model with the given overlap reproduce the quantum statistics?

    Exits 0 when feasible, 3 when infeasible.  For ``--scenario pbr`` the
    document also says whether the LP verdict agrees with the analytic
    predicate (``agreement``); it exits 3 when they disagree.
    """
    scenario, lambda_size, q = args.scenario, args.lambda_size, args.q
    mu0, mu1 = overlap_pair(OnticSpace(lambda_size), q)
    if scenario == "pbr":
        setup, devices = pbr_scenario(), (mu0, mu1)
    else:
        setup, devices = mz_scenario(), (mixture(mu0, mu1),)
    verdict = solve_feasibility([joint(a, b) for a, b in setup.device_pairs(*devices)], setup.targets)
    extras = {
        "q_measured": overlap(mu0, mu1).q,
        "preparations": list(setup.labels),
        "mu0": mu0.mass.tolist(),
        "mu1": mu1.mass.tolist(),
    }
    if setup.zero_pairing:
        predicted = pbr_contradiction(mu0, mu1, setup.zero_pairing)
        extras["contradiction_predicted"] = predicted
        extras["agreement"] = verdict.feasible != predicted
    doc = ReportDocument(
        scenario=f"feasibility-{scenario}",
        tables=[setup.table(setup.targets, args.tolerance, "target statistics")],
        verdicts=[verdict_summary("epistemic-model-lp", verdict)],
        metadata=_metadata(args, seed=args.seed, scenario=scenario, lambda_size=lambda_size, q=q),
        extras=extras,
    )
    return _emit(args, doc, verdict.feasible and extras.get("agreement", True))


def montecarlo_cmd(args) -> int:
    """Sample a model and compare empirical frequencies with the targets.

    Exits 0 iff every deviation stays within z binomial standard deviations,
    where z gives a correct sampler a 0.27% chance of a miss on any of its m
    non-degenerate cells together (two-sided, Bonferroni over the m cells).
    """
    samples, model = args.samples, args.model
    seed = as_int(args.seed, "seed")  # each device pair draws from its own SeedSequence, built here
    if model == "psi-ontic":
        setup = pbr_scenario()
        space = OnticSpace(2)
        device_pairs = setup.device_pairs(point_mass(space, 0), point_mass(space, 1))
        response = state_assignment_response((0, 1), setup.targets)
    else:
        setup = Scenario(("Psi",), ((0, 0),), np.array([[0.25] * 4]))  # mz wiring; no Born row computed
        space = OnticSpace(3)
        device_pairs = setup.device_pairs(uniform(space))
        response = constant_response(space.size, setup.targets[0])
    targets = setup.targets
    empirical = np.array(
        [
            monte_carlo(mu_a, mu_b, response, samples, np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            for i, (mu_a, mu_b) in enumerate(device_pairs)
        ]
    )
    cells = int(np.count_nonzero((targets > EPS_ZERO) & (targets < 1.0 - EPS_ZERO)))
    z = statistics.NormalDist().inv_cdf(1.0 - 0.0027 / (2 * cells))
    bounds = z * np.sqrt(targets * (1.0 - targets) / samples)
    deviations = np.abs(empirical - targets)
    within = bool(np.all(deviations <= bounds))
    tol = args.tolerance
    doc = ReportDocument(
        scenario=f"montecarlo-{model}",
        tables=[
            setup.table(empirical, tol, "empirical frequencies"),
            setup.table(targets, tol, "target distributions"),
        ],
        metadata=_metadata(args, seed=seed, samples=samples, model=model),
        extras={
            "max_abs_deviation": float(deviations.max()),
            "z": z,
            "deviation_bounds": bounds.tolist(),
            "within_bounds": within,
        },
    )
    return _emit(args, doc, within)


def _parser() -> _Parser:
    default = " (default: %(default)s)"
    parser = _Parser(
        prog="pbrcheck", description="Check which preparation scenarios admit overlapping epistemic models."
    )
    parser.add_argument("--version", action="version", version=f"pbrcheck, version {__version__}")
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text", help="JSON is canonical" + default)
    parser.add_argument("--tolerance", type=_tolerance, default=EPS_PROB, help="zero-flag display threshold" + default)
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(name, run):
        sub = commands.add_parser(name, help=(run.__doc__ or "").partition("\n")[0], description=run.__doc__)
        sub.set_defaults(run=run, parser=sub)
        return sub

    command("pbr-table", pbr_table_cmd)
    command("mz", mz_cmd)
    theta = command("theta", theta_cmd)
    theta.add_argument("--theta", type=float, required=True, help="pair angle in radians, strictly inside (0, pi)")
    feasibility = command("feasibility", feasibility_cmd)
    feasibility.add_argument("--scenario", choices=("pbr", "mz"), default="pbr", help=default)
    feasibility.add_argument("--lambda-size", type=int, choices=range(1, 9), default=4, metavar="1..8", help=default)
    feasibility.add_argument("--q", type=float, default=0.0, help="total-variation overlap of the pair" + default)
    feasibility.add_argument("--seed", type=int, default=0, help="recorded in the metadata only" + default)
    montecarlo = command("montecarlo", montecarlo_cmd)
    montecarlo.add_argument("--samples", type=int, default=100_000, help=default)
    montecarlo.add_argument("--seed", type=int, default=0, help=default)
    montecarlo.add_argument("--model", choices=("psi-ontic", "mz-constant"), default="psi-ontic", help=default)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code; never raises ``SystemExit``."""
    try:
        args = _parser().parse_args(argv)
        try:
            return args.run(args)
        except DomainError as exc:  # commands write only at the end, so nothing is on stdout yet
            args.parser.error(str(exc))
    except _Exit as stop:
        code, text = stop.args
    except OSError as exc:
        code, text = EXIT_IO, f"pbrcheck: I/O error: {exc}\n"
    if sys.stderr is not None:  # None when fd 2 was closed at start
        try:
            sys.stderr.write(text)
        except OSError:
            pass
    return code


def entrypoint() -> None:
    """Run the CLI as a process: ``main()``, then end it with ``os._exit``.

    Both streams are flushed first, and a failed flush exits 2.  To run the CLI
    in-process, call ``main``: it returns the exit code and never exits.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the fd was closed at start
            try:
                stream.flush()
            except OSError:
                code = EXIT_IO
    # Skips interpreter teardown, 11-15 % of a process: 15-20 ms of a 135 ms
    # pbr-table run, 52-67 ms of a 500 ms LP run with scipy loaded (medians of
    # 15 runs on a 2-CPU Xeon).  Sound only while nothing pbrcheck needs runs
    # at exit: pbrcheck registers no atexit handler, and the one
    # scipy.optimize adds, logging.shutdown, has no pbrcheck logging to flush.
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
