"""Tests for the ontological-model layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbrcheck import (
    EPS_LP,
    EPS_PROB,
    DomainError,
    EpistemicDistribution,
    OnticSpace,
    ResponseFunction,
    SpaceError,
    ZERO_PAIRING,
    constant_response,
    feasibility,
    joint,
    mixture,
    monte_carlo,
    overlap,
    overlap_pair,
    pbr_contradiction,
    pbr_target_rows,
    point_mass,
    state_assignment_response,
    uniform,
)
from pbrcheck.ontic import _MC_BLOCK, _block_counts, check_witness
from pbrcheck.scenarios import mz_scenario, pbr_scenario

import oracles
from strategies import distributions


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
        with pytest.raises(DomainError):
            OnticSpace(0)

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
        with pytest.raises(SpaceError):
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
        with pytest.raises(SpaceError):
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
        assert check_witness(preparations, targets, witness) <= 1e-12

    def test_psi_ontic_is_feasible(self):
        space = OnticSpace(2)
        preparations, targets = pbr_instance(point_mass(space, 0), point_mass(space, 1))
        verdict = feasibility(preparations, targets)
        assert verdict.feasible
        assert verdict.max_residual <= 1e-7
        assert check_witness(preparations, targets, verdict.witness) <= 1e-7

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
        assert check_witness(preparations, targets, verdict.witness) <= EPS_LP

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
            assert check_witness(preparations, targets, verdict.witness) <= EPS_LP
        for preparations, targets, verdict in runs[first:]:
            assert verdict.violated_constraint.startswith("cannot satisfy:")
            assert verdict.violation_bound > EPS_LP
            assert np.all(np.abs(verdict.certificate) <= 1.0)
            assert oracles.certified_violation_bound(preparations, targets, verdict.certificate) > EPS_LP

    def test_single_preparation_uniform_target_is_feasible(self):
        """Any overlapping device distribution supports the constant-1/4 witness."""
        space = OnticSpace(5)
        mu0, mu1 = overlap_pair(space, 0.6)
        mu_dev = mixture(mu0, mu1)
        target = np.full(4, 0.25)
        witness = constant_response(space.size, target)
        assert check_witness([joint(mu_dev, mu_dev)], [target], witness) <= 1e-12
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
        with pytest.raises(SpaceError):
            feasibility([np.full((2, 2), 0.25)], [np.full(4, 0.25), np.full(4, 0.25)])
        with pytest.raises(SpaceError):
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
            ([], [], SpaceError, "0 preparations for 0 target rows"),
            ([np.full(4, 0.25)], [np.full(4, 0.25)], SpaceError, r"must all be \(-1, -1\), got \(4,\)"),
            ([np.full((2, 2), 0.25), np.full(4, 0.25)], [np.full(2, 0.5)] * 2, SpaceError, r"got \(4,\)"),
            ([np.array([[1.5, -0.5], [0.0, 0.0]])], [np.full(2, 0.5)], DomainError, "each joint must be"),
            ([np.full((2, 2), 0.3)], [np.full(2, 0.5)], DomainError, "each joint must be"),
            ([np.full((2, 2), 0.25)] * 2, [np.full(2, 0.5), np.full(3, 1 / 3)], SpaceError, "same outcome count"),
            ([np.full((2, 2), 0.25)], [np.full((2, 2), 0.25)], SpaceError, "same outcome count"),
            ([np.full((2, 2), 0.25)], [np.array([1.5, -0.5])], DomainError, "each target row must be"),
            ([np.full((2, 2), 0.25 + EPS_PROB)], [np.full(2, 0.5)], DomainError, "each joint must be"),
        ],
    )
    def test_validation_errors(self, preparations, targets, error, message):
        with pytest.raises(error, match=message):
            feasibility(preparations, targets)
        with pytest.raises(error, match=message):
            check_witness(preparations, targets, constant_response(2, [0.5, 0.5]))

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


# --- feasibility on edge inputs ---


@st.composite
def instances(draw, disjoint=False):
    """Joints and targets of the pbr or mz scenario from two drawn distributions.

    The masses carry dust at 1e-13 and 1e-11 and sums off 1 by up to
    0.99 * EPS_PROB; with ``disjoint`` their supports are split at a drawn index.
    """
    n = draw(st.integers(2, 8))
    space = OnticSpace(n)
    if disjoint:
        split = draw(st.integers(1, n - 1))
        m0 = np.concatenate([draw(distributions(split)), np.zeros(n - split)])
        m1 = np.concatenate([np.zeros(split), draw(distributions(n - split))])
    else:
        m0, m1 = draw(distributions(n)), draw(distributions(n))
    mu0, mu1 = EpistemicDistribution(space, m0), EpistemicDistribution(space, m1)
    if disjoint or draw(st.booleans()):
        setup, devices = pbr_scenario(), (mu0, mu1)
    else:
        setup, devices = mz_scenario(), (mixture(mu0, mu1),)
    return [joint(a, b) for a, b in setup.device_pairs(*devices)], list(setup.targets)


@settings(deadline=None, max_examples=150)
@given(instances())
def test_every_instance_gets_a_checked_verdict(instance):
    preparations, targets = instance
    verdict = feasibility(preparations, targets)
    if verdict.feasible:
        assert check_witness(preparations, targets, verdict.witness) <= EPS_LP
    else:
        assert oracles.certified_violation_bound(preparations, targets, verdict.certificate) > EPS_LP


@settings(deadline=None, max_examples=60)
@given(instances(disjoint=True))
def test_disjoint_supports_are_feasible(instance):
    assert feasibility(*instance).feasible


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
        with pytest.raises(DomainError):
            monte_carlo(self.mu_zero, self.mu_plus, self.response, 0, 0)

    def test_space_mismatch(self):
        other = uniform(OnticSpace(3))
        with pytest.raises(SpaceError):
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
