"""Tests for the ontological-model layer."""

import contextlib
import inspect
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pbrcheck
from pbrcheck import (
    EPS_LP,
    EPS_PROB,
    EPS_ZERO,
    DomainError,
    EpistemicDistribution,
    MeasurementBasis,
    OnticSpace,
    PbrCheckError,
    ProbabilityTable,
    ResponseFunction,
    ThetaPair,
    ZERO_PAIRING,
    born_distribution,
    constant_response,
    feasibility,
    inner,
    is_orthonormal_basis,
    joint,
    ket,
    mixture,
    monte_carlo,
    normalize,
    overlap,
    overlap_pair,
    pbr_contradiction,
    pbr_target_rows,
    point_mass,
    product_preparation,
    state_assignment_response,
    tensor,
    theta_pair,
    theta_table,
    uniform,
    zero_outcome_table,
)
from pbrcheck import ontic
from pbrcheck.ontic import _MC_BLOCK, _block_counts, _certified_bound, _validate_instance, _witness
from pbrcheck.quantum import as_state
from pbrcheck.report import ReportDocument
from pbrcheck.scenarios import device_pairs, mz_scenario, pbr_scenario, xi_basis

import oracles
from strategies import JSON_VALUES, distributions, probability_rows


def dist(*mass):
    space = OnticSpace(len(mass))
    return EpistemicDistribution(space, np.array(mass, dtype=float))


def pbr_instance(mu0, mu1):
    """The four product joints and Born target rows of the announced scenario."""
    by_char = {"0": mu0, "+": mu1}
    preparations = [joint(by_char[a], by_char[b]) for a, b in ("00", "0+", "+0", "++")]
    return preparations, list(pbr_target_rows())


# --- spaces and distributions ---


class TestDistributions:
    def test_space_needs_positive_size(self):
        for size in (0, True, 2.0):
            with pytest.raises(DomainError, match=r"ontic space size must be an integer in \[1, inf\)"):
                OnticSpace(size)

    def test_space_size_of_any_integer_type(self):
        assert OnticSpace(np.int64(3)) == OnticSpace(3)
        assert type(OnticSpace(np.int64(3)).size) is int

    def test_mass_must_sum_to_one(self):
        with pytest.raises(DomainError):
            dist(0.5, 0.4)

    def test_mass_must_be_nonnegative(self):
        with pytest.raises(DomainError):
            dist(1.2, -0.2)

    def test_zero_mass_states_allowed(self):
        d = dist(0.5, 0.0, 0.5)
        np.testing.assert_array_equal(np.flatnonzero(d.mass), [0, 2])

    def test_point_mass_and_uniform(self):
        space = OnticSpace(4)
        np.testing.assert_array_equal(point_mass(space, 2).mass, [0, 0, 1, 0])
        np.testing.assert_allclose(uniform(space).mass, 0.25)

    def test_mixture(self):
        space = OnticSpace(2)
        mix = mixture(point_mass(space, 0), point_mass(space, 1))
        np.testing.assert_allclose(mix.mass, [0.5, 0.5])


# --- overlap ---


class TestOverlap:
    def test_disjoint_supports(self):
        report = overlap(dist(1, 0), dist(0, 1))
        assert report.overlap_states == ()
        assert report.q == 0.0

    def test_identical_distributions(self):
        report = overlap(dist(0.5, 0.5), dist(0.5, 0.5))
        assert report.overlap_states == (0, 1)
        assert report.q == 1.0

    def test_partial_overlap_by_hand(self):
        """min(mu0, mu1) sums to 0.3 on the single shared state."""
        report = overlap(dist(0.7, 0.3, 0.0), dist(0.0, 0.3, 0.7))
        assert report.overlap_states == (1,)
        assert abs(report.q - 0.3) <= 1e-15

    def test_matches_scalar_oracle_on_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            m0, m1 = oracles.random_mass_pair(rng, n, disjoint=bool(rng.integers(2)))
            space = OnticSpace(n)
            report = overlap(EpistemicDistribution(space, m0), EpistemicDistribution(space, m1))
            idx, q = oracles.min_overlap(m0, m1)
            assert list(report.overlap_states) == idx
            assert abs(report.q - q) <= 1e-15

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(29)
        space = OnticSpace(5)
        for _ in range(25):
            a = EpistemicDistribution(space, rng.dirichlet(np.ones(5)))
            b = EpistemicDistribution(space, rng.dirichlet(np.ones(5)))
            assert overlap(a, b).q == overlap(b, a).q

    def test_dust_does_not_create_overlap(self):
        """Mass at or below 1e-12 contributes neither region nor q."""
        report = overlap(dist(1.0 - 1e-13, 1e-13), dist(0.0, 1.0))
        assert report.overlap_states == ()
        assert report.q == 0.0

    def test_space_mismatch(self):
        with pytest.raises(DomainError, match="different ontic spaces"):
            overlap(dist(1, 0), dist(1, 0, 0))


# --- joints ---


class TestJoint:
    def test_point_masses(self):
        space = OnticSpace(3)
        j = joint(point_mass(space, 1), point_mass(space, 2))
        expected = np.zeros((3, 3))
        expected[1, 2] = 1.0
        np.testing.assert_array_equal(j, expected)

    def test_uniform_times_uniform(self):
        space = OnticSpace(2)
        np.testing.assert_allclose(joint(uniform(space), uniform(space)), 0.25)

    def test_outer_product_by_hand(self):
        j = joint(dist(0.7, 0.3), dist(0.4, 0.6))
        np.testing.assert_allclose(j, [[0.28, 0.42], [0.12, 0.18]], atol=1e-15)

    def test_marginals_recover_factors(self):
        rng = np.random.default_rng(31)
        space = OnticSpace(4)
        for _ in range(25):
            a = EpistemicDistribution(space, rng.dirichlet(np.ones(4)))
            b = EpistemicDistribution(space, rng.dirichlet(np.ones(4)))
            j = joint(a, b)
            np.testing.assert_allclose(j.sum(axis=1), a.mass, atol=1e-12)
            np.testing.assert_allclose(j.sum(axis=0), b.mass, atol=1e-12)

    def test_space_mismatch(self):
        with pytest.raises(DomainError, match="different ontic spaces"):
            joint(dist(1, 0), dist(1, 0, 0))


# --- the analytic contradiction predicate ---


class TestContradiction:
    def test_disjoint_supports_are_fine(self):
        assert not pbr_contradiction(dist(1, 0), dist(0, 1), ZERO_PAIRING)

    def test_overlap_contradicts(self):
        assert pbr_contradiction(dist(0.7, 0.3, 0.0), dist(0.0, 0.3, 0.7), ZERO_PAIRING)

    def test_identical_distributions_contradict(self):
        assert pbr_contradiction(dist(0.5, 0.5), dist(0.5, 0.5), ZERO_PAIRING)

    def test_partial_pairing_kills_no_contradiction(self):
        """Without a zero constraint for every outcome the argument cannot close."""
        partial = ((0, 0), (1, 1), (2, 2))
        assert not pbr_contradiction(dist(0.5, 0.5), dist(0.5, 0.5), partial)


# --- response functions ---


class TestResponses:
    def test_constant_response(self):
        resp = constant_response(3, [0.25, 0.25, 0.25, 0.25])
        assert resp.size == 3 and resp.outcome_count == 4
        np.testing.assert_allclose(resp.table[2, 1], 0.25)

    def test_rows_must_normalize(self):
        with pytest.raises(DomainError):
            constant_response(2, [0.5, 0.4])

    def test_state_assignment_reads_off_born_rows(self):
        resp = state_assignment_response((0, 1), pbr_target_rows())
        rows = pbr_target_rows()
        np.testing.assert_array_equal(resp.table[0, 0], rows[0])
        np.testing.assert_array_equal(resp.table[0, 1], rows[1])
        np.testing.assert_array_equal(resp.table[1, 0], rows[2])
        np.testing.assert_array_equal(resp.table[1, 1], rows[3])


# --- feasibility ---


class TestFeasibility:
    def test_psi_ontic_witness_by_construction(self):
        """The read-off-the-state witness satisfies every constraint directly."""
        space = OnticSpace(2)
        mu0, mu1 = point_mass(space, 0), point_mass(space, 1)
        preparations, targets = pbr_instance(mu0, mu1)
        witness = state_assignment_response((0, 1), pbr_target_rows())
        assert oracles.witness_total_miss(preparations, targets, witness.table) <= 1e-12

    def test_psi_ontic_is_feasible(self):
        space = OnticSpace(2)
        preparations, targets = pbr_instance(point_mass(space, 0), point_mass(space, 1))
        verdict = feasibility(preparations, targets)
        assert verdict.feasible
        assert verdict.max_residual <= 1e-7
        assert oracles.witness_total_miss(preparations, targets, verdict.witness.table) <= 1e-7

    def test_overlapping_model_is_infeasible(self):
        space = OnticSpace(4)
        mu0, mu1 = overlap_pair(space, 0.3)
        preparations, targets = pbr_instance(mu0, mu1)
        verdict = feasibility(preparations, targets)
        assert not verdict.feasible
        assert verdict.witness is None
        assert "cannot satisfy" in verdict.violated_constraint

    def test_disjoint_supports_with_a_small_mass_are_feasible(self):
        """Disjoint supports with one mass of 5.3e-4 admit the Born-row witness."""
        space = OnticSpace(4)
        mu0 = EpistemicDistribution(space, [1.0, 0.0, 0.0, 0.0])
        mu1 = EpistemicDistribution(
            space, [0.0, 0.050054409088434546, 0.9494146021829335, 0.0005309887286319477]
        )
        preparations, targets = pbr_instance(mu0, mu1)
        verdict = feasibility(preparations, targets)
        assert verdict.feasible
        assert oracles.witness_total_miss(preparations, targets, verdict.witness.table) <= EPS_LP

    def test_verdict_is_monotone_in_overlap(self):
        """Once overlap makes the model infeasible it stays infeasible for every
        larger q, and each infeasible verdict carries duals that an exact
        oracle confirms bound the violation above EPS_LP."""
        qs = (0.0, 1e-11, 1e-10, 1e-9, 1e-8, 1e-6, 1e-4, 1e-3, 0.3)
        runs = []
        for q in qs:
            preparations, targets = pbr_instance(*overlap_pair(OnticSpace(4), q))
            runs.append((preparations, targets, feasibility(preparations, targets)))
        feasible = [verdict.feasible for _, _, verdict in runs]
        assert not feasible[-1]
        first = feasible.index(False)
        assert not any(feasible[first:]), dict(zip(qs, feasible))
        for preparations, targets, verdict in runs[:first]:
            assert oracles.witness_total_miss(preparations, targets, verdict.witness.table) <= EPS_LP
        for preparations, targets, verdict in runs[first:]:
            assert verdict.violated_constraint.startswith("cannot satisfy:")
            assert verdict.violation_bound > EPS_LP
            assert np.all(np.abs(verdict.certificate) <= 1.0)
            assert oracles.certified_violation_bound(preparations, targets, verdict.certificate) > EPS_LP

    def test_one_reached_pair(self):
        """Both devices always emit the same state, so one pair carries every joint."""
        preparations, targets = pbr_instance(*overlap_pair(OnticSpace(3), 1.0))
        verdict = feasibility(preparations, targets)
        assert not verdict.feasible
        assert oracles.certified_violation_bound(preparations, targets, verdict.certificate) > EPS_LP

    def test_single_preparation_uniform_target_is_feasible(self):
        """Any overlapping device distribution supports the constant-1/4 witness."""
        space = OnticSpace(5)
        mu0, mu1 = overlap_pair(space, 0.6)
        mu_dev = mixture(mu0, mu1)
        target = np.full(4, 0.25)
        witness = constant_response(space.size, target)
        assert oracles.witness_total_miss([joint(mu_dev, mu_dev)], [target], witness.table) <= 1e-12
        verdict = feasibility([joint(mu_dev, mu_dev)], [target])
        assert verdict.feasible

    def test_agreement_with_analytic_predicate(self):
        """LP verdict == analytic contradiction predicate on random instances."""
        rng = np.random.default_rng(37)
        for trial in range(40):
            n = int(rng.integers(2, 5))
            space = OnticSpace(n)
            disjoint = trial % 2 == 0
            m0, m1 = oracles.random_mass_pair(rng, n, disjoint=disjoint)
            mu0 = EpistemicDistribution(space, m0)
            mu1 = EpistemicDistribution(space, m1)
            preparations, targets = pbr_instance(mu0, mu1)
            verdict = feasibility(preparations, targets)
            contradiction = pbr_contradiction(mu0, mu1, ZERO_PAIRING)
            assert verdict.feasible == (not contradiction), (trial, n, m0, m1)

    def test_shape_validation(self):
        with pytest.raises(DomainError, match="1 preparations for 2 target rows"):
            feasibility([np.full((2, 2), 0.25)], [np.full(4, 0.25), np.full(4, 0.25)])
        with pytest.raises(DomainError, match="must all be"):
            feasibility(
                [np.full((2, 2), 0.25), np.full((3, 3), 1 / 9)],
                [np.full(4, 0.25), np.full(4, 0.25)],
            )

    def test_target_validation(self):
        with pytest.raises(DomainError):
            feasibility([np.full((2, 2), 0.25)], [np.array([0.9, 0.9, 0.1, 0.1])])

    @pytest.mark.parametrize(
        "preparations, targets, error, message",
        [
            ([], [], DomainError, "0 preparations for 0 target rows"),
            ([np.full(4, 0.25)], [np.full(4, 0.25)], DomainError, r"must all be \(-1, -1\), got \(4,\)"),
            ([np.full((2, 2), 0.25), np.full(4, 0.25)], [np.full(2, 0.5)] * 2, DomainError, r"got \(4,\)"),
            ([np.array([[1.5, -0.5], [0.0, 0.0]])], [np.full(2, 0.5)], DomainError, "each joint must be"),
            ([np.full((2, 2), 0.3)], [np.full(2, 0.5)], DomainError, "each joint must be"),
            ([np.full((2, 2), 0.25)] * 2, [np.full(2, 0.5), np.full(3, 1 / 3)], DomainError, "same outcome count"),
            ([np.full((2, 2), 0.25)], [np.full((2, 2), 0.25)], DomainError, "same outcome count"),
            ([np.full((2, 2), 0.25)], [np.array([1.5, -0.5])], DomainError, "each target row must be"),
            ([np.full((2, 2), 0.25 + EPS_PROB)], [np.full(2, 0.5)], DomainError, "each joint must be"),
            ([np.array([[math.nan, 0.5], [0.25, 0.25]])], [np.full(2, 0.5)], DomainError, "each joint must be"),
            ([np.full((2, 2), 0.25)], [np.array([math.nan, 0.5])], DomainError, "each target row must be"),
        ],
    )
    def test_validation_errors(self, preparations, targets, error, message):
        with pytest.raises(error, match=message):
            feasibility(preparations, targets)

    def test_joints_of_valid_distributions_are_accepted(self):
        """A mass may miss 1 by EPS_PROB, so a joint of two may miss by about twice that."""
        a = EpistemicDistribution(OnticSpace(2), [0.5 + 9e-10, 0.5])
        b = uniform(OnticSpace(2))
        preparations = [joint(a, a), joint(a, b), joint(b, a), joint(b, b)]
        verdict = feasibility(preparations, pbr_target_rows())
        assert not verdict.feasible  # a and b overlap on both states
        assert oracles.certified_violation_bound(preparations, pbr_target_rows(), verdict.certificate) > EPS_LP

    def test_joint_sums_carry_rounding_past_the_product_bound(self):
        """This mass sums to 1 + 0.99999999 * EPS_PROB; the float sum of its joint
        misses 1 by 1.6e-16 more than (1 + EPS_PROB)**2 - 1."""
        a = dist(0.49912212665708044, 0.05660200123932083, 0.4257249041337798, 0.018550968969818983)
        assert abs(joint(a, a).sum() - 1.0) > 2 * EPS_PROB + EPS_PROB**2
        assert feasibility([joint(a, a)], [np.full(4, 0.25)]).feasible


@contextlib.contextmanager
def counted_linprog(alter=lambda res: None):
    """The ``(args, kwargs)`` of each ``scipy.optimize.linprog`` call inside the block; ``alter`` edits each result."""
    import scipy.optimize

    calls, solve = [], scipy.optimize.linprog

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        res = solve(*args, **kwargs)
        alter(res)
        return res

    scipy.optimize.linprog = counted
    try:
        yield calls
    finally:
        scipy.optimize.linprog = solve


#: An overlapping PBR pair (q = 0.265) whose V*, about 0.159, lies above the zero-cell dual's 0.140:
#: the compensation witness does not pin it, so its verdict needs the LP.
LP_PAIR = (
    np.array([0.39546198954297845, 0.5930180594914135, 0.011519950965607977]),
    np.array([0.0010397580548109561, 0.25215560168911316, 0.7468046402560758]),
)


def violation_interval(verdict):
    """The two ends of the interval in which an infeasible verdict states that V* lies, as printed."""
    interval = r"cannot satisfy: the minimal total violation lies in \[(\S+), (\S+)\](; .*)?"
    return re.fullmatch(interval, verdict.violated_constraint).group(1, 2)


def zero_cell_dual(targets):
    """PBR's zero-cell dual: -1 on target cells at or below EPS_ZERO, +1 elsewhere."""
    return np.where(np.ravel(targets) <= EPS_ZERO, -1.0, 1.0)


class TestLpCalls:
    """The LP runs only when preparations that expect different rows reach a common pair,
    and the zero-cell dual and the compensation witness do not already pin V*."""

    @pytest.mark.parametrize("n", range(2, 9))
    def test_disjoint_pbr_instances_solve_no_lp(self, n):
        preparations, targets = pbr_instance(*overlap_pair(OnticSpace(n), 0.0))
        with counted_linprog() as calls:
            verdict = feasibility(preparations, targets)
        assert (len(calls), verdict.feasible) == (0, True)
        assert oracles.witness_total_miss(preparations, targets, verdict.witness.table) <= EPS_LP

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("q", [0.0, 1e-4, 0.5, 1.0])
    def test_single_preparation_instances_solve_no_lp(self, n, q):
        """The mz preparation, with its own target row or with a Born row that has a zero."""
        m0, m1 = (mu.mass for mu in overlap_pair(OnticSpace(n), q))
        preparations, mz_targets = scenario_instance(m0, m1, pbr=False)
        for targets in (mz_targets, [pbr_target_rows()[0]]):
            with counted_linprog() as calls:
                verdict = feasibility(preparations, targets)
            assert (len(calls), verdict.feasible) == (0, True)
            assert oracles.witness_total_miss(preparations, targets, verdict.witness.table) <= EPS_LP

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("q, feasible", [(1e-4, True), (1e-3, False), (0.3, False), (1.0, False)])
    def test_overlapping_pbr_instances_solve_one_lp(self, n, q, feasible):
        """At most one: inside the band (2 q**2 <= EPS_LP) one LP decides, outside it none runs."""
        preparations, targets = pbr_instance(*overlap_pair(OnticSpace(n), q))
        with counted_linprog() as calls:
            verdict = feasibility(preparations, targets)
        assert (len(calls), verdict.feasible) == (int(feasible), feasible)

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("q", [1e-3, 0.3, 1.0])
    def test_overlap_pairs_outside_the_band_are_pinned_without_an_lp(self, n, q):
        """The zero-cell dual proves V* >= 2 q**2 and the compensation witness misses by no more,
        so the verdict carries the dual and states V* as the interval [2 q**2, 2 q**2]."""
        preparations, targets = pbr_instance(*overlap_pair(OnticSpace(n), q))
        with counted_linprog() as calls:
            verdict = feasibility(preparations, targets)
        assert (len(calls), verdict.feasible) == (0, False)
        np.testing.assert_array_equal(verdict.certificate, zero_cell_dual(targets))
        exact = oracles.certified_violation_bound(preparations, targets, verdict.certificate)
        assert float(exact) == pytest.approx(2 * q**2)
        assert violation_interval(verdict) == (f"{2 * q**2:.3e}",) * 2

    @pytest.mark.parametrize(
        "instance, pairs",
        [
            (lambda: pbr_instance(*overlap_pair(OnticSpace(4), 1e-4)), 16),
            (lambda: scenario_instance(*LP_PAIR, pbr=True), 9),
        ],
        ids=["overlap-pair-4-1e-4", "lp-pair"],
    )
    def test_the_lp_has_one_response_row_per_reached_pair(self, instance, pairs):
        """No two pairs share a column, even where their joints are proportional across the preparations."""
        preparations, targets = instance()
        with counted_linprog() as calls:
            feasibility(preparations, targets)
        (_, kwargs), = calls
        p, k = len(targets), len(targets[0])
        assert kwargs["A_eq"].shape == (pairs + p * k, k * pairs + 2 * p * k)

    def test_a_pair_the_zero_cell_dual_bounds_loosely_solves_one_lp(self):
        preparations, targets = scenario_instance(*LP_PAIR, pbr=True)
        with counted_linprog() as calls:
            verdict = feasibility(preparations, targets)
        assert (len(calls), verdict.feasible) == (1, False)
        zero_cell = oracles.certified_violation_bound(preparations, targets, zero_cell_dual(targets))
        assert zero_cell > EPS_LP and verdict.violation_bound >= zero_cell
        assert oracles.certified_violation_bound(preparations, targets, verdict.certificate) > EPS_LP


@pytest.fixture
def fraction_calls(monkeypatch):
    """The arrays passed to ``ontic._fractions``, through which every exact comparison reads its floats."""
    calls, fractions = [], ontic._fractions
    monkeypatch.setattr(ontic, "_fractions", lambda values: calls.append(values) or fractions(values))
    return calls


#: One float below ``EPS_LP``, ``EPS_LP`` and one above.
AROUND_EPS_LP = [math.nextafter(EPS_LP, 0.0), EPS_LP, math.nextafter(EPS_LP, 1.0)]


class TestExactComparisons:
    """A float within its proven error of ``EPS_LP`` leaves the verdict to the exact quantity, and only then."""

    @pytest.mark.parametrize("bound", AROUND_EPS_LP, ids=["below", "at", "above"])
    def test_a_certificate_bound_at_the_threshold_is_decided_exactly(self, bound, fraction_calls):
        """Two preparations share one pair; the duals (1, -1) and (-1, 1) gain nothing on it, so they prove
        exactly ``t0[0] - t0[1] - t1[0] + t1[1]``, here ``bound``."""
        joints, targets, duals = [[[1.0]], [[1.0]]], [[bound, 0.0], [0.0, 0.0]], np.array([1.0, -1.0, -1.0, 1.0])
        estimate = _certified_bound(np.ravel(joints).reshape(2, 1), np.array(targets), duals)
        exact = oracles.certified_violation_bound(joints, targets, duals)
        assert estimate.value == bound and exact == Fraction(bound)
        assert estimate.exceeds_eps_lp() == (exact > EPS_LP) and fraction_calls
        assert estimate.floor() <= exact

    @pytest.mark.parametrize("miss", AROUND_EPS_LP, ids=["below", "at", "above"])
    def test_a_witness_miss_at_the_threshold_is_decided_exactly(self, miss, fraction_calls):
        """One preparation on one pair, answered with (1, 0) where the target row is (1, ``miss``)."""
        targets = np.array([[1.0, miss]])
        rows, misses = _witness(np.ones((1, 1)), targets, np.array([[1.0, 0.0]]))
        exact = oracles.witness_total_miss(np.ones((1, 1, 1)), targets, [[[1.0, 0.0]]])
        assert misses.sum() == miss and exact == Fraction(miss)
        assert (rows is None) == (exact > EPS_LP) and fraction_calls

    @pytest.mark.parametrize("pbr", [True, False], ids=["pbr", "mz"])
    @pytest.mark.parametrize("q", [0.0, 1e-3, 0.3, 1.0])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_overlap_pairs_need_no_exact_arithmetic(self, n, q, pbr, fraction_calls):
        m0, m1 = (mu.mass for mu in overlap_pair(OnticSpace(n), q))
        feasibility(*scenario_instance(m0, m1, pbr))
        assert fraction_calls == []

    def test_the_lp_pair_needs_no_exact_arithmetic(self, fraction_calls):
        assert not feasibility(*scenario_instance(*LP_PAIR, pbr=True)).feasible
        assert fraction_calls == []


class TestWitnessTable:
    """A feasible verdict's table gives each reached pair its witness row and every other pair 1/k."""

    def test_unreached_pairs_answer_uniformly(self):
        """At q = 0 on 5 states each PBR preparation reaches one pair, that of its two point masses."""
        preparations, targets = scenario_instance(*(mu.mass for mu in overlap_pair(OnticSpace(5), 0.0)), pbr=True)
        table = feasibility(preparations, targets).witness.table
        expected = np.full((5, 5, 4), 0.25)
        for joint_p, row in zip(preparations, targets):
            assert np.count_nonzero(joint_p) == 1
            expected[np.unravel_index(np.argmax(joint_p), joint_p.shape)] = row / row.sum()
        np.testing.assert_array_equal(table, expected)

    @pytest.mark.parametrize(("pbr", "q"), [(True, 0.0), (True, 1e-5), (False, 0.3), (False, 1.0)])
    @pytest.mark.parametrize("n", range(3, 9))
    def test_max_residual_is_the_largest_exact_residual(self, n, pbr, q):
        preparations, targets = scenario_instance(*(mu.mass for mu in overlap_pair(OnticSpace(n), q)), pbr)
        verdict = feasibility(preparations, targets)
        exact = oracles.witness_max_residual(preparations, targets, verdict.witness.table)
        assert abs(Fraction(verdict.max_residual) - exact) <= 1e-15

    def test_max_residual_counts_the_row_normalizations(self):
        """A target row whose float sum is 1 - 2**-52: renormalized, it misses each target by 2**-54 and sums
        to 1 - 2**-53, both exact in float, so its normalization alone sets ``max_residual``."""
        preparations = [np.array([[1.0]])]
        targets = [np.array([0.336993749943085, 0.36473423229002216, 0.29827201776689255])]
        verdict = feasibility(preparations, targets)
        table = verdict.witness.table
        assert max(oracles.witness_misses(preparations, targets, table)) == Fraction(1, 2**54)
        assert Fraction(verdict.max_residual) == oracles.witness_max_residual(preparations, targets, table)
        assert verdict.max_residual == 2.0**-53

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 13: max_residual reads float row sums")
    def test_max_residual_counts_a_row_sum_that_rounds_to_one(self):
        """The target row sums to 1 + 2**-53, which rounds to 1.0 in float, so no renormalization shows its residual."""
        preparations, targets = [np.array([[1.0]])], [np.array([0.5, 0.5 + 2**-53])]
        verdict = feasibility(preparations, targets)
        exact = oracles.witness_max_residual(preparations, targets, verdict.witness.table)
        assert Fraction(verdict.max_residual) == exact


@pytest.mark.parametrize(
    "m0, m1, bound",
    [
        ((0.9999928315487476, 7.16845125237146e-06), (0.22855521138794843, 0.7714447886120516), 0.10448),
        ((0.7412871902642045, 0.25871280973579547), (4.903795582282414e-07, 0.9999995096204418), 0.13387),
        (
            (0.22866607587756888, 6.092183470596456e-07, 0.029971289984644954, 3.7055958345589873e-09,
             5.526241531304472e-05, 0.7413067587985303),
            (0.005165968513992291, 0.9350807507371915, 0.007536573659173087, 4.079384141422742e-05,
             0.052175913228427385, 1.98016367368666e-11),
            3.2555e-4,
        ),
    ],
    ids=["n2-mu0-dust", "n2-mu1-dust", "n6"],
)
def test_pairs_where_the_lp_solver_fails_are_infeasible(m0, m1, bound):
    """Overlapping PBR pairs on which HiGHS fails; PBR's zero-cell dual proves each infeasible by ``bound``."""
    preparations, targets = scenario_instance(np.array(m0), np.array(m1), pbr=True)
    verdict = feasibility(preparations, targets)
    assert not verdict.feasible
    exact = oracles.certified_violation_bound(preparations, targets, verdict.certificate)
    assert exact > EPS_LP
    assert float(exact) == pytest.approx(bound, rel=1e-4)


def test_a_failed_solve_the_zero_cell_dual_cannot_decide_raises():
    """At q = 1e-4 the zero-cell dual proves only 2 q**2 = 2e-8 <= EPS_LP, and both solves fail, so no proof holds."""

    def fail(res):
        res.status, res.message = 4, "forced failure"

    preparations, targets = pbr_instance(*overlap_pair(OnticSpace(4), 1e-4))
    with counted_linprog(fail) as calls, pytest.raises(PbrCheckError) as raised:
        feasibility(preparations, targets)
    assert [kwargs["method"] for _, kwargs in calls] == ["highs", "highs-ipm"]
    assert type(raised.value) is PbrCheckError
    assert str(raised.value) == (
        "neither verdict is proved: LP solver failed: forced failure; the zero-cell dual proves only 2.000e-08; "
        "interior-point LP solver failed: forced failure"
    )


def test_an_lp_certificate_that_falls_short_leaves_the_verdict_to_the_zero_cell_dual():
    """With its duals zeroed the LP proves nothing, and the zero-cell dual proves 0.140 on ``LP_PAIR``, so the
    interior-point LP is not solved."""

    def zero_duals(res):
        res.eqlin.marginals[:] = 0.0

    preparations, targets = scenario_instance(*LP_PAIR, pbr=True)
    with counted_linprog(zero_duals) as calls:
        verdict = feasibility(preparations, targets)
    assert (len(calls), verdict.feasible) == (1, False)
    np.testing.assert_array_equal(verdict.certificate, zero_cell_dual(targets))
    exact = oracles.certified_violation_bound(preparations, targets, verdict.certificate)
    assert exact > EPS_LP and float(exact) == pytest.approx(0.14014839144808652)
    assert violation_interval(verdict) == ("1.401e-01", "1.591e-01")
    assert verdict.violated_constraint.endswith(
        "; the LP witness misses by 1.591e-01 in total, its certificate proves only 0.000e+00"
    )


#: Random PBR pair 10 of ``default_rng(12345)`` (n = 5, Dirichlet alpha = 0.4, mu0 drawn first), on which HiGHS's
#: methods return different optimal duals and LP witnesses, whose largest misses lie in different rows.
METHOD_PAIR = (
    np.array([0.00520920360531786, 0.07424914509180115, 0.18383073120164875, 0.06956755989437904, 0.6671433602068533]),
    np.array(
        [0.9678462363667059, 0.007557381744395446, 0.0020169250424539494, 0.00012223625834755379, 0.022457220588097248]
    ),
)


@pytest.mark.parametrize("masses", [LP_PAIR, METHOD_PAIR], ids=["lp-pair", "random-pair-10"])
def test_an_infeasible_message_does_not_depend_on_the_solver_method(masses, monkeypatch):
    """The verdict states only what the instance fixes, so each of HiGHS's methods gives the same text."""
    import scipy.optimize

    solve, methods, used = scipy.optimize.linprog, ("highs", "highs-ds", "highs-ipm"), []
    preparations, targets = scenario_instance(*masses, pbr=True)
    answers = set()
    for method in methods:

        def forced(*args, chosen=method, **kwargs):
            used.append(chosen)
            return solve(*args, **{**kwargs, "method": chosen})

        monkeypatch.setattr(scipy.optimize, "linprog", forced)
        verdict = feasibility(preparations, targets)
        answers.add((verdict.status, verdict.violated_constraint))
    assert used == list(methods)
    assert len(answers) == 1, answers


#: Overlapping PBR pairs (mu0, mu1, exact V*) whose V* lies just above EPS_LP.  "random-pair-i" is pair i of
#: the 15000-pair set drawn from ``default_rng(12345)``: n = 2 + i % 7 and alpha = (0.1, 0.4, 1)[i % 3], then mu0
#: and mu1 from ``dirichlet([alpha] * n)`` in that order.
NEAR_TOLERANCE_PAIRS = {
    "skewed-pair": (
        (0.9999999886938188, 1.1306181061344677e-08), (8.50545002443362e-08, 0.9999999149454998), 1.927213e-7
    ),
    "random-pair-51": (
        (6.9696070744825e-08, 5.903666774761079e-05, 5.313230651746964e-18, 0.9999408936361817),
        (0.9997477525051621, 3.9779312068262834e-10, 0.0002522210586811195, 2.6038363543478062e-08),
        1.913664e-7,
    ),
    "random-pair-651": (
        (0.9999998563866711, 1.436133288440751e-07), (9.27475839395887e-08, 0.999999907252416), 4.727218e-7
    ),
    "random-pair-2751": (
        (0.9999999895032324, 1.0496767651365694e-08), (5.0508429614349005e-08, 0.9999999494915705), 1.220104e-7
    ),
    "random-pair-14295": (
        (0.9999999152335453, 8.47438330727662e-08, 2.262155824220014e-11),
        (2.591729895663506e-09, 0.9997601374801972, 0.0002398599280728558),
        1.747118e-7,
    ),
}


def near_tolerance_instance(name):
    """Joints and targets of the PBR scenario on pair ``name`` of :data:`NEAR_TOLERANCE_PAIRS`."""
    m0, m1, _ = NEAR_TOLERANCE_PAIRS[name]
    return scenario_instance(np.array(m0), np.array(m1), pbr=True)


@pytest.mark.parametrize("name", ["skewed-pair", "random-pair-2751", "random-pair-14295"])
def test_pairs_just_above_the_tolerance_are_proved_infeasible(name):
    """HiGHS's default duals prove about half of V*, and the zero-cell dual almost nothing, so the
    interior-point LP's duals prove these pairs infeasible."""
    preparations, targets = near_tolerance_instance(name)
    with counted_linprog() as calls:
        verdict = feasibility(preparations, targets)
    assert [kwargs["method"] for _, kwargs in calls] == ["highs", "highs-ipm"]
    assert not verdict.feasible
    assert oracles.certified_violation_bound(preparations, targets, verdict.certificate) > EPS_LP


@pytest.mark.parametrize("name", NEAR_TOLERANCE_PAIRS)
def test_the_stated_interval_holds_the_exact_minimal_violation(name):
    """``violation_bound`` is at most the exact V*, and V* at most the interval's printed upper end."""
    preparations, targets = near_tolerance_instance(name)
    verdict = feasibility(preparations, targets)
    exact = oracles.exact_min_violation(preparations, targets)
    assert float(exact) == pytest.approx(NEAR_TOLERANCE_PAIRS[name][2], rel=1e-6)
    upper = violation_interval(verdict)[1]
    half_digit = Fraction(5, 10**4) * Fraction(10) ** int(upper.split("e")[1])  # the upper end is printed by .3e
    assert Fraction(verdict.violation_bound) <= exact <= Fraction(upper) + half_digit


# --- one rule for probability rows ---


def stored(build):
    """The floats that ``build`` stores, or None when validation rejects them."""
    try:
        return build()
    except DomainError:
        return None


@settings(deadline=None, max_examples=300)
@given(probability_rows())
def test_every_layer_accepts_the_same_rows(row):
    """A mass, a response row, a table row and a target row accept exactly the
    finite rows with no entry below -EPS_ZERO whose clipped sum is 1 within
    EPS_PROB, store them with dust clipped and nothing rounded, and never
    write the row given."""
    k, one_pair, given_row = row.size, [np.ones((1, 1))], row.copy()
    clipped = np.maximum(row, 0.0)
    valid = bool(np.isfinite(row).all() and row.min() >= -EPS_ZERO and abs(clipped.sum() - 1.0) <= EPS_PROB)

    def target_row():
        feasibility(one_pair, [row])
        return _validate_instance(one_pair, [row])[1][0]

    rows = [
        stored(lambda: EpistemicDistribution(OnticSpace(k), row).mass),
        stored(lambda: ResponseFunction(row.reshape(1, 1, k)).table[0, 0]),
        stored(lambda: ProbabilityTable(("p",), tuple(map(str, range(k))), [row]).probabilities[0]),
        stored(target_row),
    ]
    assert [r is not None for r in rows] == [valid] * 4
    assert all(r is None or r.tobytes() == clipped.tobytes() for r in rows)
    assert row.tobytes() == given_row.tobytes()


# --- feasibility on edge inputs ---


#: Shares (a, 1 - a) whose second is exactly 2**j times the first as floats, so
#: that every pair with one copy of a split state has a joint exactly 2**j times
#: the joint of the same pair with the other copy.
EXACT_SHARES = ((1 / 2, 1 / 2), (1 / 3, 2 / 3), (1 / 5, 4 / 5), (1 / 9, 8 / 9))
SHARES = st.one_of(st.sampled_from(EXACT_SHARES), st.floats(0.05, 0.95).map(lambda a: (a, 1.0 - a)))


def split_state(mass, state, shares):
    """``mass`` with ``state`` split in two copies: ``a * mass[state]`` stays, ``(1 - a) * mass[state]`` is appended."""
    a, b = shares
    return np.append(np.where(np.arange(mass.size) == state, a * mass, mass), b * mass[state])


@st.composite
def mass_pairs(draw, disjoint=False):
    """Two masses on 2 to 8 states, with dust at 1e-13 and 1e-11 and sums off 1
    by up to 0.99 * EPS_PROB; with ``disjoint`` their supports are split at a
    drawn index."""
    n = draw(st.integers(2, 8))
    if disjoint:
        split = draw(st.integers(1, n - 1))
        m0 = np.concatenate([draw(distributions(split)), np.zeros(n - split)])
        m1 = np.concatenate([np.zeros(split), draw(distributions(n - split))])
        return m0, m1
    return draw(distributions(n)), draw(distributions(n))


def scenario_instance(m0, m1, pbr):
    """Joints and targets of the pbr scenario on ``m0``, ``m1`` or of the mz scenario on their mixture."""
    space = OnticSpace(m0.size)
    mu0, mu1 = EpistemicDistribution(space, m0), EpistemicDistribution(space, m1)
    setup, devices = (pbr_scenario(), (mu0, mu1)) if pbr else (mz_scenario(), (mixture(mu0, mu1),))
    return [joint(a, b) for a, b in device_pairs(*devices)], list(setup.probabilities)


@st.composite
def instances(draw, disjoint=False):
    """Joints and targets of the pbr or mz scenario from two drawn distributions.

    The masses come from :func:`mass_pairs`.  Half of the time one ontic state
    is split in two copies alike in both distributions, so that the LP meets
    pairs whose joints are proportional, or nearly so.
    """
    m0, m1 = draw(mass_pairs(disjoint))
    if draw(st.booleans()):
        state, shares = draw(st.integers(0, m0.size - 1)), draw(SHARES)
        m0, m1 = split_state(m0, state, shares), split_state(m1, state, shares)
    return scenario_instance(m0, m1, disjoint or draw(st.booleans()))


@settings(deadline=None, max_examples=150)
@given(instances())
def test_every_instance_gets_a_checked_verdict(instance):
    preparations, targets = instance
    verdict = feasibility(preparations, targets)
    if verdict.feasible:
        assert oracles.witness_total_miss(preparations, targets, verdict.witness.table) <= EPS_LP
    else:
        exact = oracles.certified_violation_bound(preparations, targets, verdict.certificate)
        assert exact > EPS_LP and verdict.violation_bound <= float(exact)
        lower, upper = violation_interval(verdict)
        assert lower == f"{verdict.violation_bound:.3e}" and float(upper) >= float(lower)


@settings(deadline=None, max_examples=100)
@given(instances())
def test_a_verdict_without_an_lp_is_a_witness_checked_exactly(instance):
    """Or, when infeasible, the zero-cell dual, whose bound is re-derived exactly."""
    preparations, targets = instance
    with counted_linprog() as calls:
        verdict = feasibility(preparations, targets)
    if calls:
        return
    if verdict.feasible:
        assert oracles.witness_total_miss(preparations, targets, verdict.witness.table) <= EPS_LP
    else:
        np.testing.assert_array_equal(verdict.certificate, zero_cell_dual(targets))
        assert oracles.certified_violation_bound(preparations, targets, verdict.certificate) > EPS_LP


@settings(deadline=None, max_examples=100)
@given(instances())
def test_exact_values_equal_the_oracles(instance):
    """The zero-cell bound and the direct witness's total miss, as their ``exact()`` reads every float as a
    Fraction, equal the oracles' explicit loops over the same validated floats."""
    flats, targs = _validate_instance(*instance)
    n = math.isqrt(flats.shape[1])
    joints, duals = flats.reshape(-1, n, n), zero_cell_dual(targs)
    assert _certified_bound(flats, targs, duals).exact() == oracles.certified_violation_bound(joints, targs, duals)
    reached = np.flatnonzero(flats.any(axis=0))
    rows = targs[np.argmax(flats[:, reached] != 0.0, axis=0)]
    table = np.zeros((n * n, targs.shape[1]))
    table[reached] = rows / rows.sum(axis=1, keepdims=True)
    estimates, estimate = [], ontic._Estimate
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ontic, "_Estimate", lambda *args: estimates.append(estimate(*args)) or estimates[-1])
        _witness(flats[:, reached], targs, rows)
    (miss,) = estimates
    assert miss.exact() == oracles.witness_total_miss(joints, targs, table.reshape(n, n, -1))


@settings(deadline=None, max_examples=60)
@given(instances(disjoint=True))
def test_disjoint_supports_are_feasible(instance):
    assert feasibility(*instance).feasible


@settings(deadline=None, max_examples=100)
@given(mass_pairs(), st.booleans(), st.data())
def test_splitting_a_state_keeps_the_verdict(masses, pbr, data):
    """A state split in exact shares changes no verdict."""
    m0, m1 = masses
    state, shares = data.draw(st.integers(0, m0.size - 1)), data.draw(st.sampled_from(EXACT_SHARES))
    whole = feasibility(*scenario_instance(m0, m1, pbr))
    preparations, targets = scenario_instance(split_state(m0, state, shares), split_state(m1, state, shares), pbr)
    verdict = feasibility(preparations, targets)
    assert verdict.feasible == whole.feasible
    if verdict.feasible:
        assert oracles.witness_total_miss(preparations, targets, verdict.witness.table) <= EPS_LP
    else:
        assert oracles.certified_violation_bound(preparations, targets, verdict.certificate) > EPS_LP


# --- Monte Carlo ---


class TestMonteCarlo:
    def setup_method(self):
        self.space = OnticSpace(2)
        self.mu_zero = point_mass(self.space, 0)
        self.mu_plus = point_mass(self.space, 1)
        self.response = state_assignment_response((0, 1), pbr_target_rows())

    def test_deterministic_response_forces_outcome(self):
        forced = constant_response(2, [0.0, 0.0, 1.0, 0.0])
        freq = monte_carlo(self.mu_zero, self.mu_plus, forced, 500, 1)
        np.testing.assert_array_equal(freq, [0, 0, 1, 0])

    def test_same_seed_same_frequencies(self):
        a = monte_carlo(self.mu_zero, self.mu_plus, self.response, 50_000, 99)
        b = monte_carlo(self.mu_zero, self.mu_plus, self.response, 50_000, 99)
        np.testing.assert_array_equal(a, b)

    def test_psi_ontic_matches_born_rows_within_three_sigma(self):
        n = 100_000
        rows = pbr_target_rows()
        devices = {"0": self.mu_zero, "+": self.mu_plus}
        for row, label in zip(rows, ("00", "0+", "+0", "++")):
            freq = monte_carlo(devices[label[0]], devices[label[1]], self.response, n, 12345)
            bound = 3.0 * np.sqrt(row * (1.0 - row) / n)
            assert np.all(np.abs(freq - row) <= bound), label

    def test_constant_quarter_model_within_three_sigma(self):
        n = 100_000
        resp = constant_response(2, [0.25] * 4)
        freq = monte_carlo(uniform(self.space), uniform(self.space), resp, n, 7)
        bound = 3.0 * math.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(freq - 0.25) <= bound)

    def test_zero_probability_outcomes_never_sampled(self):
        freq = monte_carlo(self.mu_zero, self.mu_zero, self.response, 200_000, 5)
        assert freq[0] == 0.0

    def test_block_merge_is_order_independent(self):
        """Summing per-block counts in any order reproduces the full run."""
        samples = 2 * _MC_BLOCK + 1234
        root = np.random.SeedSequence(4242)
        full = monte_carlo(self.mu_zero, self.mu_plus, self.response, samples, 4242)
        counts = np.zeros(4, dtype=np.int64)
        for block in (2, 0, 1):
            block_samples = min(_MC_BLOCK, samples - block * _MC_BLOCK)
            counts += _block_counts(
                self.mu_zero.mass, self.mu_plus.mass, self.response.table,
                block, block_samples, root,
            )
        np.testing.assert_allclose(full, counts / samples, atol=0)

    @pytest.mark.parametrize("odd", ["mass", "response row"])
    def test_sums_off_by_less_than_eps_prob_are_sampled(self, odd):
        """Inputs that validation accepts, though a sum is off 1 by 5e-10."""
        space = OnticSpace(3)
        mass = [0.5 + 5e-10, 0.5, 0.0] if odd == "mass" else [0.5, 0.5, 0.0]
        table = np.full((3, 3, 2), 0.5)
        if odd == "response row":
            table[0, 1] = [0.5 + 5e-10, 0.5]
        mu = EpistemicDistribution(space, np.array(mass))
        freq = monte_carlo(mu, mu, ResponseFunction(table), 2 * _MC_BLOCK, 3)
        assert freq.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(freq - 0.5) <= 5.0 * math.sqrt(0.25 / (2 * _MC_BLOCK)))

    def test_single_sample(self):
        freq = monte_carlo(self.mu_zero, self.mu_plus, self.response, 1, 0)
        assert freq.sum() == 1.0
        assert np.count_nonzero(freq) == 1

    def test_invalid_samples(self):
        for samples in (0, True, 10.0):
            with pytest.raises(DomainError, match=re.escape(f"samples must be an integer in [1, {2**63})")):
                monte_carlo(self.mu_zero, self.mu_plus, self.response, samples, 0)

    def test_samples_of_any_integer_type(self):
        freq = monte_carlo(self.mu_zero, self.mu_plus, self.response, np.int64(1000), 3)
        np.testing.assert_array_equal(freq, monte_carlo(self.mu_zero, self.mu_plus, self.response, 1000, 3))

    def test_samples_beyond_int64_are_rejected(self):
        """The int64 outcome counts cannot hold more than 2**63 - 1 samples."""
        with pytest.raises(DomainError, match=re.escape(f"samples must be an integer in [1, {2**63}), got {2**63}")):
            monte_carlo(self.mu_zero, self.mu_plus, self.response, 2**63, 0)

    def test_space_mismatch(self):
        other = uniform(OnticSpace(3))
        with pytest.raises(DomainError, match="different ontic spaces"):
            monte_carlo(self.mu_zero, other, self.response, 10, 0)


# --- the documented overlap construction ---


class TestOverlapPair:
    @pytest.mark.parametrize("q", [0.0, 0.1, 0.3, 0.75, 1.0])
    def test_requested_overlap_is_delivered(self, q):
        space = OnticSpace(5)
        mu0, mu1 = overlap_pair(space, q)
        assert abs(overlap(mu0, mu1).q - q) <= 1e-12

    def test_disjoint_construction(self):
        mu0, mu1 = overlap_pair(OnticSpace(2), 0.0)
        np.testing.assert_array_equal(mu0.mass, [1, 0])
        np.testing.assert_array_equal(mu1.mass, [0, 1])

    def test_middle_block_carries_the_overlap(self):
        mu0, mu1 = overlap_pair(OnticSpace(4), 0.4)
        np.testing.assert_allclose(mu0.mass, [0.6, 0.2, 0.2, 0.0], atol=1e-15)
        np.testing.assert_allclose(mu1.mass, [0.0, 0.2, 0.2, 0.6], atol=1e-15)

    def test_maximal_overlap_makes_identical_distributions(self):
        mu0, mu1 = overlap_pair(OnticSpace(3), 1.0)
        np.testing.assert_array_equal(mu0.mass, mu1.mass)

    @pytest.mark.parametrize(("size", "q"), [(1, 0.0), (1, 0.5), (2, 0.5), (2, 1.0)])
    def test_impossible_combinations(self, size, q):
        with pytest.raises(DomainError):
            overlap_pair(OnticSpace(size), q)

    @pytest.mark.parametrize("q", [-0.1, 1.1, float("nan")])
    def test_q_domain(self, q):
        with pytest.raises(DomainError):
            overlap_pair(OnticSpace(4), q)


# --- every library rejection is a PbrCheckError ---


HALF = constant_response(2, [0.5, 0.5])
TWO_UNIFORM = [uniform(OnticSpace(2))] * 2

REJECTIONS = [
    ("non-finite amplitudes", lambda: as_state([1.0, math.nan]), "amplitudes must be finite"),
    ("state not unit-norm", lambda: born_distribution([1.0, 1.0], np.eye(2, dtype=complex)), "state must be unit-norm"),
    ("negative seed", lambda: monte_carlo(*TWO_UNIFORM, HALF, 10, -1), "seed must be an integer in [0, inf), got -1"),
    ("joint over two spaces", lambda: joint(uniform(OnticSpace(2)), uniform(OnticSpace(3))), "different ontic spaces"),
    ("inner across dimensions", lambda: inner([1, 0], [1, 0, 0, 0]), "dimension mismatch: 2 vs 4"),
    ("zero vector", lambda: normalize([0.0, 0.0]), "cannot normalize a vector with squared norm"),
    (
        "skewed basis",
        lambda: born_distribution([1.0, 0.0], np.array([[1.0, 0.0], [2**-0.5, 2**-0.5]])),
        "measurement basis is not orthonormal",
    ),
    (
        "mass shape off the space",
        lambda: EpistemicDistribution(OnticSpace(3), [0.5, 0.5]),
        "mass shape (2,) does not match space size 3",
    ),
    ("point mass off the space", lambda: point_mass(OnticSpace(2), 2), "index must be an integer in [0, 2), got 2"),
    ("distribution over an int", lambda: EpistemicDistribution(3, [1.0, 0.0, 0.0]), "space must be an OnticSpace, got 3"),
    ("overlap pair over an int", lambda: overlap_pair(4, 0.3), "space must be an OnticSpace, got 4"),
    ("point mass over an int", lambda: point_mass(2, 0), "space must be an OnticSpace, got 2"),
    ("uniform over an int", lambda: uniform(3), "space must be an OnticSpace, got 3"),
    (
        "response table not square",
        lambda: ResponseFunction(np.full((2, 3, 2), 0.5)),
        "response table must have shape (n, n, outcomes), got (2, 3, 2)",
    ),
    (
        "response over no ontic state",
        lambda: ResponseFunction(np.zeros((0, 0, 4))),
        "response table must have shape (n, n, outcomes), got (0, 0, 4)",
    ),
    (
        "constant response over no state",
        lambda: constant_response(0, [1.0]),
        "size must be an integer in [1, inf), got 0",
    ),
    (
        "outcome rows not 2-D",
        lambda: state_assignment_response([0], [0.5, 0.5]),
        "outcome_rows must be 2-D, got shape (2,)",
    ),
    (
        "outcome rows not one per state pair",
        lambda: state_assignment_response([0], np.full((3, 2), 0.5)),
        "outcome_rows needs one row per ordered state pair, got 3",
    ),
    (
        "assignment off the states",
        lambda: state_assignment_response([0, 2], np.full((4, 2), 0.5)),
        "assignment entry must be an integer in [0, 2), got 2",
    ),
    (
        "empty assignment",
        lambda: state_assignment_response([], np.full((4, 2), 0.5)),
        "response table must have shape (n, n, outcomes), got (0, 0, 2)",
    ),
    (
        "response over another space",
        lambda: monte_carlo(*TWO_UNIFORM, constant_response(3, [0.5, 0.5]), 10, 0),
        "response over 3 states, space has 2",
    ),
    ("2-D state", lambda: as_state(np.eye(2)), "expected a 1-D amplitude vector, got shape (2, 2)"),
    (
        "non-finite basis",
        lambda: MeasurementBasis(np.array([[1.0, 0.0], [0.0, math.inf]])),
        "basis amplitudes must be finite",
    ),
    (
        "1-D outcome set",
        lambda: is_orthonormal_basis([1.0, 0.0]),
        "expected a 2-D array of outcome kets, got shape (2,)",
    ),
    (
        "table shape off its labels",
        lambda: ProbabilityTable(("a",), ("x", "y"), [[0.5], [0.5]]),
        "probability matrix shape (2, 1) does not match 1 row / 2 column labels",
    ),
    *(
        (
            f"zero pairing {pairing!r}",
            lambda pairing=pairing: pbr_contradiction(*overlap_pair(OnticSpace(3), 0.5), pairing),
            f"zero_pairing must be a list of (preparation, outcome) pairs, got {pairing!r}",
        )
        for pairing in ([(1,)], [(0, 0, 9)], 5, None)
    ),
    *(
        (
            f"zero pairing preparation {prep!r}",
            lambda prep=prep: pbr_contradiction(*overlap_pair(OnticSpace(4), 0.3), [(prep, k) for k in range(4)]),
            f"zero_pairing preparation must be an integer in [0, 4), got {prep!r}",
        )
        for prep in ("x", None, 9)
    ),
    (
        "zero pairing outcome 7",
        lambda: pbr_contradiction(*overlap_pair(OnticSpace(4), 0.3), [*ZERO_PAIRING, (0, 7)]),
        "zero_pairing outcome must be an integer in [0, 4), got 7",
    ),
    (
        "zero threshold at 0",
        lambda: ProbabilityTable(("a",), ("x",), [[1.0]], zero_threshold=0.0),
        "zero_threshold must be a real number in (0, inf), got 0.0",
    ),
    *(
        (f"{site} not numbers", reject, f"{name} must be a rectangular array of numbers (")
        for site, reject, name in [
            ("table", lambda: ProbabilityTable(("a",), ("x",), [["a"]]), "probabilities"),
            ("mass", lambda: EpistemicDistribution(OnticSpace(2), ["a", "b"]), "mass"),
            ("constant response", lambda: constant_response(2, ["a"]), "probs"),
            ("feasibility joint", lambda: feasibility([[["a", "b"], [1, 2]]], [[1.0, 0.0]]), "joint"),
            ("state", lambda: born_distribution(["a", 1], xi_basis()), "amplitude vector"),
            ("basis", lambda: MeasurementBasis([["a"]]), "basis outcomes"),
            ("ragged response", lambda: ResponseFunction([[[1.0]], [[1.0, 0.0]]]), "response table"),
            ("ragged feasibility joint", lambda: feasibility([[[1.0], [0.5, 0.5]]], [[1.0]]), "joint"),
            ("numeric-string mass", lambda: EpistemicDistribution(OnticSpace(2), ["0.5", "0.5"]), "mass"),
            ("bool mass", lambda: EpistemicDistribution(OnticSpace(2), [True, False]), "mass"),
            ("numeric-string table", lambda: ProbabilityTable(("a",), ("x", "y"), [["1", 0]]), "probabilities"),
            ("bool feasibility joint", lambda: feasibility([[[True]]], [["1"]]), "joint"),
            ("mass mixing bool", lambda: EpistemicDistribution(OnticSpace(2), [0.0, True]), "mass"),
            ("mass mixing np.bool_", lambda: EpistemicDistribution(OnticSpace(2), [0.0, np.True_]), "mass"),
            (
                "mass mixing a bool array",
                lambda: EpistemicDistribution(OnticSpace(2), [np.array(0.0), np.array(True)]),
                "mass",
            ),
            ("feasibility joint mixing bool", lambda: feasibility([[[True, 0.0], [0.0, 0.0]]], [[1.0, 0.0]]), "joint"),
        ]
    ),
    ("joint of None", lambda: joint(None, None), "distribution must be an EpistemicDistribution, got None"),
    (
        "response not a ResponseFunction",
        lambda: monte_carlo(*TWO_UNIFORM, [[[1.0]]], 10, 0),
        "response must be a ResponseFunction, got [[[1.0]]]",
    ),
    ("theta table of a float", lambda: theta_table(0.5), "pair must be a ThetaPair, got 0.5"),
    ("theta pair of None", lambda: ThetaPair(None), "theta must be a real number in (0, "),
    ("basis of |0> and |+>", lambda: MeasurementBasis(np.array([ket("0"), ket("+")])), "not orthonormal"),
    ("ket label a list", lambda: ket(["0"]), "unknown ket label ['0']"),
    ("preparation label None", lambda: product_preparation(None), "preparation label must be two characters"),
    (
        "feasibility of None",
        lambda: feasibility(None, None),
        "preparations and targets must be sequences of arrays, got None, None",
    ),
    (
        "assignment None",
        lambda: state_assignment_response(None, np.full((4, 2), 0.5)),
        "assignment must be a sequence of state indices, got None",
    ),
    ("2-D constant probs", lambda: constant_response(2, [[0.5, 0.5]]), "probs must be 1-D, got shape (1, 2)"),
    ("mass near the float limit", lambda: EpistemicDistribution(OnticSpace(2), [1e308, 1e308]), "sum is off 1 by inf"),
    ("negative mass", lambda: EpistemicDistribution(OnticSpace(2), [-0.5, 1.5]), "must be nonnegative, got min -0.5"),
    (
        "joint off 1",
        lambda: feasibility([[[0.5, 0.0], [0.0, 0.0]]], [[1.0]]),
        "each joint must be normalized to within 2.00000088917842e-09, but a sum is off 1 by 0.5",
    ),
    ("tensor overflow", lambda: tensor([1e308, 1.0], [1e308, 1.0]), "the tensor product overflows"),
    ("norm overflow", lambda: normalize([1e308, 1e308]), "cannot normalize a vector with squared norm inf"),
]


@pytest.mark.parametrize(("reject", "message"), [r[1:] for r in REJECTIONS], ids=[r[0] for r in REJECTIONS])
def test_library_rejections_are_pbrcheck_errors(reject, message):
    """Every refused input raises the one refusal class, a PbrCheckError and a ValueError, and prints no numpy repr."""
    with pytest.raises(DomainError, match=re.escape(message)) as refused:
        reject()
    assert "np.float64" not in str(refused.value)


# --- value types that hold an array compare by identity ---

#: (type, a builder called twice, for an instance and its twin)
VALUE_TYPES = [
    ("EpistemicDistribution", lambda: uniform(OnticSpace(3))),
    ("ResponseFunction", lambda: constant_response(2, [0.5, 0.5])),
    ("FeasibilityVerdict", lambda: feasibility([np.array([[1.0]])], [np.array([0.5, 0.5])])),
    ("MeasurementBasis", xi_basis),
    ("ProbabilityTable", zero_outcome_table),
    ("ThetaPair", lambda: ThetaPair(1.0)),
]


@pytest.mark.parametrize("build", [v[1] for v in VALUE_TYPES], ids=[v[0] for v in VALUE_TYPES])
def test_value_types_compare_and_hash_without_raising(build):
    """An instance equals itself and hashes; its twin is another object, unless it is a ThetaPair, which is its theta."""
    a, twin = build(), build()
    same_value = isinstance(a, ThetaPair)
    assert a == a
    assert (a == twin) is same_value
    hash(a)
    assert (a in [twin]) is same_value


# --- every scalar parameter is read by one rule ---

#: (site, the call with the scalar, the parameter's name, values it accepts); an int site accepts np.int64 first.
SCALAR_SITES = [
    ("ontic space size", OnticSpace, "ontic space size", [np.int64(3)]),
    ("samples", lambda v: monte_carlo(*TWO_UNIFORM, HALF, v, 0), "samples", [np.int64(10)]),
    ("seed", lambda v: monte_carlo(*TWO_UNIFORM, HALF, 10, v), "seed", [np.int64(3)]),
    ("point mass index", lambda v: point_mass(OnticSpace(2), v), "index", [np.int64(1)]),
    ("constant response size", lambda v: constant_response(v, [0.5, 0.5]), "size", [np.int64(2)]),
    (
        "assignment entry",
        lambda v: state_assignment_response([0, v], np.full((4, 2), 0.5)),
        "assignment entry",
        [np.int64(1)],
    ),
    (
        "overlap q",
        lambda v: overlap_pair(OnticSpace(3), v),
        "overlap q",
        [np.float32(0.3), Fraction(1, 3), np.int64(1)],
    ),
    ("theta", theta_pair, "theta", [np.float32(1.0), Fraction(1, 3), np.int64(1)]),
    ("zero threshold", zero_outcome_table, "zero_threshold", [np.float32(1e-9), Fraction(1, 10**9), np.int64(1)]),
    (
        "zero pairing outcome",
        lambda v: pbr_contradiction(point_mass(OnticSpace(2), 0), point_mass(OnticSpace(2), 1), [(0, 0), (1, v)]),
        "zero_pairing outcome",
        [np.int64(1)],
    ),
]
REFUSED = [
    (site, call, name, value)
    for site, call, name, accepted in SCALAR_SITES
    for value in (True, "1", None, *([1.5] if isinstance(accepted[0], np.integer) else []))
]
ACCEPTED = [(site, call, value) for site, call, _, accepted in SCALAR_SITES for value in accepted]


@pytest.mark.parametrize(("call", "name", "value"), [r[1:] for r in REFUSED], ids=[f"{r[0]}={r[3]!r}" for r in REFUSED])
def test_scalars_of_the_wrong_kind_are_refused_by_name(call, name, value):
    """``bool``, strings, ``None`` and, where an integer is read, a fraction are refused, never coerced."""
    with pytest.raises(DomainError) as refused:
        call(value)
    assert str(refused.value).startswith(f"{name} must be a")
    assert str(refused.value).endswith(f", got {value!r}")


@pytest.mark.parametrize(("call", "value"), [a[1:] for a in ACCEPTED], ids=[f"{a[0]}={a[2]!r}" for a in ACCEPTED])
def test_scalars_of_any_number_type_in_range_are_accepted(call, value):
    call(value)


# --- every public call refuses what it cannot read ---

#: Every public constructor and function, the two that read documents back, and a document's ``render``.
PUBLIC = [
    *(
        (name, obj)
        for name, obj in sorted(vars(pbrcheck).items())
        if callable(obj) and not name.startswith("_") and not (isinstance(obj, type) and issubclass(obj, Exception))
    ),
    ("ProbabilityTable.from_dict", ProbabilityTable.from_dict),
    ("ReportDocument.from_payload", ReportDocument.from_payload),
    ("ReportDocument.render", ReportDocument("document").render),
]


@pytest.mark.parametrize("call", [p[1] for p in PUBLIC], ids=[p[0] for p in PUBLIC])
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_json_like_values_are_read_or_refused(call, data):
    """Fed JSON-like values for any number of the parameters it takes, a call returns or raises DomainError."""
    params = inspect.signature(call).parameters.values()
    required = sum(p.default is p.empty for p in params)
    args = data.draw(st.lists(JSON_VALUES, min_size=required, max_size=len(params)), label="args")
    try:
        call(*args)
    except DomainError:
        pass
