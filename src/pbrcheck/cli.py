"""Command line front end.

Every subcommand prints one report document to stdout (text, JSON or CSV) and
signals its verdict through the exit code:

    0  success / feasible
    1  usage error (bad parameters)
    2  I/O error: any failed write of the document, including a full disk
       and a closed pipe
    3  check failed (infeasible, or a verified property did not hold)
"""

from __future__ import annotations

import math
import os
import statistics
import sys

import click
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
from .quantum import EPS_NORM, EPS_PROB, EPS_ZERO
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


def _metadata(ctx, seed=None, **parameters) -> dict:
    return {
        "version": __version__,
        "seed": seed,
        "tolerances": {
            "norm": EPS_NORM,
            "prob": EPS_PROB,
            "zero_flag": ctx.obj["tolerance"],
            "lp": EPS_LP,
        },
        "parameters": parameters,
    }


def _io_error(exc: OSError) -> int:
    try:
        print(f"pbrcheck: I/O error: {exc}", file=sys.stderr)
    except OSError:
        pass
    return EXIT_IO


def _write(ctx, text: str) -> None:
    # Caught here, because click turns a broken pipe that reaches it into
    # sys.exit(1), even outside standalone mode.
    try:
        click.echo(text, nl=False)
    except OSError as exc:
        ctx.exit(_io_error(exc))


def _emit(ctx, doc: ReportDocument) -> None:
    _write(ctx, doc.render(ctx.obj["format"]))


def _version(ctx, _param, value) -> None:
    # Stands in for click.version_option, whose own write would turn a broken pipe into exit 1.
    if value and not ctx.resilient_parsing:
        _write(ctx, f"pbrcheck, version {__version__}\n")
        ctx.exit()


@click.group()
@click.option(
    "--version", is_flag=True, expose_value=False, is_eager=True, callback=_version, help="Show the version and exit."
)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json", "csv"]),
    default="text",
    show_default=True,
    help="Output format; JSON is the canonical machine format.",
)
@click.option(
    "--tolerance",
    type=float,
    default=None,
    help=f"Zero-flag display threshold (display only; default {EPS_PROB}).",
)
@click.pass_context
def cli(ctx, fmt, tolerance):
    """Check which preparation scenarios admit overlapping epistemic models."""
    if tolerance is None:
        tolerance = EPS_PROB
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise click.UsageError(f"--tolerance must be a positive finite number, got {tolerance}")
    ctx.obj = {"format": fmt, "tolerance": tolerance}


@cli.command("pbr-table")
@click.pass_context
def pbr_table_cmd(ctx):
    """Born table of the four announced product preparations against the xi basis.

    Exits 0 iff the zero pattern is exactly the expected preparation/outcome
    pairing (the diagonal), 3 otherwise.
    """
    table = zero_outcome_table(zero_threshold=ctx.obj["tolerance"])
    flagged = {(row, col) for row, col in np.argwhere(table.zero_flags).tolist()}
    pattern_ok = flagged == set(ZERO_PAIRING)
    doc = ReportDocument(
        scenario="pbr-table",
        tables=[table],
        metadata=_metadata(ctx),
        extras={
            "zero_flag_count": int(table.zero_flags.sum()),
            "zero_pattern_matches_pairing": pattern_ok,
        },
    )
    _emit(ctx, doc)
    if not pattern_ok:
        ctx.exit(EXIT_CHECK_FAILED)


@cli.command("mz")
@click.pass_context
def mz_cmd(ctx):
    """Which-way-free (Mach-Zehnder) preparation: state, normalization, compatibility.

    Exits 0 iff all four outcome probabilities exceed the zero-flag threshold.
    """
    setup = mz_scenario()
    table = setup.table(setup.targets, ctx.obj["tolerance"], "Psi vs measurement basis")
    psi = mz_preparation_state()
    joint_state = mz_joint_state()
    doc = ReportDocument(
        scenario="mz",
        tables=[table],
        metadata=_metadata(ctx),
        extras={
            "normalization_sq": mz_normalization_sq(),
            "preparation_amplitudes": [[z.real, z.imag] for z in psi],
            "joint_amplitudes": [[z.real, z.imag] for z in joint_state],
            "verdict": "compatible" if table.compatible else "incompatible",
        },
    )
    _emit(ctx, doc)
    if not table.compatible:
        ctx.exit(EXIT_CHECK_FAILED)


@cli.command("theta")
@click.option("--theta", required=True, type=float, help="Pair angle in radians, strictly inside (0, pi).")
@click.pass_context
def theta_cmd(ctx, theta):
    """Overlap and xi-basis Born table for the tunable state pair."""
    try:
        pair = theta_pair(theta)
    except DomainError as exc:
        raise click.UsageError(str(exc)) from exc
    table = theta_table(pair, zero_threshold=ctx.obj["tolerance"])
    doc = ReportDocument(
        scenario="theta",
        tables=[table],
        metadata=_metadata(ctx, theta=theta),
        extras={"theta": pair.theta, "overlap": pair.overlap},
    )
    _emit(ctx, doc)


@cli.command("feasibility")
@click.option("--scenario", type=click.Choice(["pbr", "mz"]), default="pbr", show_default=True)
@click.option("--lambda-size", type=int, default=4, show_default=True, help="Number of ontic states (1..8).")
@click.option("--q", type=float, default=0.0, show_default=True, help="Total-variation overlap of the two distributions.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.pass_context
def feasibility_cmd(ctx, scenario, lambda_size, q, seed):
    """Can an epistemic model with the given overlap reproduce the quantum statistics?

    Exits 0 when feasible, 3 when infeasible.  For ``--scenario pbr`` the
    document also says whether the LP verdict agrees with the analytic
    predicate (``agreement``); it exits 3 when they disagree.
    """
    if not 1 <= lambda_size <= 8:
        raise click.UsageError(f"--lambda-size must lie in [1, 8], got {lambda_size}")
    if not 0.0 <= q <= 1.0:
        raise click.UsageError(f"--q must lie in [0, 1], got {q}")
    space = OnticSpace(lambda_size)
    try:
        mu0, mu1 = overlap_pair(space, q)
    except DomainError as exc:
        raise click.UsageError(str(exc)) from exc
    if scenario == "pbr":
        setup, devices = pbr_scenario(), (mu0, mu1)
    else:
        setup, devices = mz_scenario(), (mixture(mu0, mu1),)
    verdict = solve_feasibility([joint(a, b) for a, b in setup.device_pairs(*devices)], setup.targets)
    extras = {
        "scenario": scenario,
        "lambda_size": lambda_size,
        "q_requested": q,
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
        tables=[setup.table(setup.targets, ctx.obj["tolerance"], "target statistics")],
        verdicts=[verdict_summary("epistemic-model-lp", verdict)],
        metadata=_metadata(ctx, seed=seed, scenario=scenario, lambda_size=lambda_size, q=q),
        extras=extras,
    )
    _emit(ctx, doc)
    if not (verdict.feasible and extras.get("agreement", True)):
        ctx.exit(EXIT_CHECK_FAILED)


@cli.command("montecarlo")
@click.option("--samples", type=int, default=100_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--model", type=click.Choice(["psi-ontic", "mz-constant"]), default="psi-ontic", show_default=True)
@click.pass_context
def montecarlo_cmd(ctx, samples, seed, model):
    """Sample a model and compare empirical frequencies with the targets.

    Exits 0 iff every deviation stays within z binomial standard deviations,
    where z gives a correct sampler a 0.27% chance of a miss on any of its m
    non-degenerate cells together (two-sided, Bonferroni over the m cells).
    """
    if samples < 1:
        raise click.UsageError(f"--samples must be at least 1, got {samples}")
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
    tol = ctx.obj["tolerance"]
    doc = ReportDocument(
        scenario=f"montecarlo-{model}",
        tables=[
            setup.table(empirical, tol, "empirical frequencies"),
            setup.table(targets, tol, "target distributions"),
        ],
        metadata=_metadata(ctx, seed=seed, samples=samples, model=model),
        extras={
            "max_abs_deviation": float(deviations.max()),
            "z": z,
            "deviation_bounds": bounds.tolist(),
            "within_bounds": within,
        },
    )
    _emit(ctx, doc)
    if not within:
        ctx.exit(EXIT_CHECK_FAILED)


def main(argv=None) -> int:
    """Dispatch the CLI, mapping every outcome onto the documented exit codes."""
    try:
        # In non-standalone mode click returns ctx.exit codes instead of
        # raising SystemExit.
        rv = cli.main(args=argv, standalone_mode=False, prog_name="pbrcheck")
        if isinstance(rv, int):
            return rv
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.Abort:
        return EXIT_USAGE
    except OSError as exc:
        return _io_error(exc)
    return EXIT_OK


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
