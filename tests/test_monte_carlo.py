"""The count sampler against the per-sample oracle, and its properties on edge inputs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import chi2

from pbrcheck import (
    EPS_ZERO,
    EpistemicDistribution,
    OnticSpace,
    ResponseFunction,
    monte_carlo,
    pbr_target_rows,
    point_mass,
    state_assignment_response,
)
from pbrcheck.ontic import _MC_BLOCK, _block_counts

import oracles
from strategies import ENTRY, OFF, distributions

# Fixed before the first run: 200 seeds of 5000 samples per sampler and
# model, each check rejecting at 1e-4, so the 15 checks below together
# wrongly reject a correct sampler with probability below 0.3%.
SEEDS = 200
SAMPLES = 5000
ALPHA = 1e-4


def psi_ontic_models():
    space = OnticSpace(2)
    by_char = {"0": point_mass(space, 0), "+": point_mass(space, 1)}
    response = state_assignment_response((0, 1), pbr_target_rows())
    return [(f"psi-ontic |{a}{b}>", by_char[a], by_char[b], response) for a, b in ("00", "0+", "+0", "++")]


def random_model():
    rng = np.random.default_rng(5)
    space = OnticSpace(5)
    m0, m1 = oracles.random_mass_pair(rng, 5, disjoint=False)
    table = rng.dirichlet(np.ones(4), size=(5, 5))
    return ("random n=5", EpistemicDistribution(space, m0), EpistemicDistribution(space, m1), ResponseFunction(table))


def exact_probabilities(mu_a, mu_b, response):
    return np.einsum("i,j,ijk->k", mu_a.mass, mu_b.mass, response.table)


def oracle_frequencies(mu_a, mu_b, response, samples, seed):
    """Per-sample frequencies over the same block layout as ``monte_carlo``."""
    root = np.random.SeedSequence(seed)
    counts = sum(
        oracles.per_sample_block_counts(
            mu_a.mass, mu_b.mass, response.table, block, min(_MC_BLOCK, samples - start), root
        )
        for block, start in enumerate(range(0, samples, _MC_BLOCK))
    )
    return counts / samples


def pearson(observed, expected):
    return float(np.sum((observed - expected) ** 2 / expected))


@pytest.mark.parametrize("model", [*psi_ontic_models(), random_model()], ids=lambda m: m[0])
def test_count_sampler_matches_the_per_sample_oracle(model):
    """Pooled counts agree (two-sample chi-square), and each sampler's spread
    over seeds is multinomial (summed per-seed chi-square against the exact
    law, two-sided)."""
    _, mu_a, mu_b, response = model
    p = exact_probabilities(mu_a, mu_b, response)
    live = p > EPS_ZERO
    counts = np.array([np.rint(monte_carlo(mu_a, mu_b, response, SAMPLES, s) * SAMPLES) for s in range(SEEDS)])
    oracle = np.array(
        [
            oracles.per_sample_block_counts(
                mu_a.mass, mu_b.mass, response.table, 0, SAMPLES, np.random.SeedSequence(10_000 + s)
            )
            for s in range(SEEDS)
        ]
    )
    for per_seed in (counts, oracle):
        assert np.all(per_seed.sum(axis=1) == SAMPLES)
        assert np.all(per_seed[:, ~live] == 0)
        df = SEEDS * (np.count_nonzero(live) - 1)
        spread = sum(pearson(row[live], SAMPLES * p[live]) for row in per_seed)
        assert chi2.ppf(ALPHA / 2, df) <= spread <= chi2.ppf(1 - ALPHA / 2, df)

    pooled = np.stack([counts.sum(axis=0), oracle.sum(axis=0)])[:, live]
    expected = pooled.sum(axis=1, keepdims=True) * pooled.sum(axis=0) / pooled.sum()
    assert pearson(pooled, expected) <= chi2.ppf(1 - ALPHA, np.count_nonzero(live) - 1)


@pytest.mark.parametrize("samples", [1, 5000, 2 * _MC_BLOCK + 7])
def test_point_masses_with_a_deterministic_response_equal_the_oracle(samples):
    """With nothing left to chance, both samplers put every sample in one outcome."""
    table = np.zeros((2, 2, 4))
    for l1 in range(2):
        for l2 in range(2):
            table[l1, l2, (2 * l1 + l2 + 1) % 4] = 1.0
    response = ResponseFunction(table)
    for _, mu_a, mu_b, _ in psi_ontic_models():
        freq = monte_carlo(mu_a, mu_b, response, samples, 31)
        np.testing.assert_array_equal(freq, oracle_frequencies(mu_a, mu_b, response, samples, 31))
        np.testing.assert_array_equal(freq, exact_probabilities(mu_a, mu_b, response))


# --- properties on edge inputs ---

@st.composite
def models(draw):
    """(mu_a, mu_b, response) on n = 2..8 states, some outcomes impossible."""
    n = draw(st.integers(2, 8))
    k = draw(st.integers(2, 5))
    space = OnticSpace(n)
    mu_a = EpistemicDistribution(space, draw(distributions(n)))
    mu_b = EpistemicDistribution(space, draw(distributions(n)))
    table = draw(arrays(np.float64, (n, n, k), elements=ENTRY))
    silent = np.array(draw(st.lists(st.booleans(), min_size=k, max_size=k).filter(lambda s: not all(s))))
    table[..., silent] = 0.0
    empty = table.sum(axis=2) == 0.0
    table[empty, int(np.argmin(silent))] = 1.0
    table /= table.sum(axis=2, keepdims=True)
    table *= 1.0 + draw(arrays(np.float64, (n, n, 1), elements=st.floats(-OFF, OFF)))
    return mu_a, mu_b, ResponseFunction(table)


_SAMPLES = st.integers(1, 3 * _MC_BLOCK + 100)
_SEEDS = st.integers(0, 2**32 - 1)


@settings(deadline=None, max_examples=60)
@given(models(), _SAMPLES, _SEEDS)
def test_frequencies_are_counts_of_possible_outcomes(model, samples, seed):
    mu_a, mu_b, response = model
    freq = monte_carlo(mu_a, mu_b, response, samples, seed)
    counts = freq * samples
    np.testing.assert_allclose(counts, np.rint(counts), rtol=0, atol=1e-6)
    assert int(np.rint(counts).sum()) == samples
    assert abs(freq.sum() - 1.0) <= 1e-12
    assert np.all(freq[exact_probabilities(mu_a, mu_b, response) == 0.0] == 0.0)
    np.testing.assert_array_equal(freq, monte_carlo(mu_a, mu_b, response, samples, seed))


@settings(deadline=None, max_examples=40)
@given(models(), _SAMPLES, _SEEDS, st.randoms(use_true_random=False))
def test_blocks_in_any_order_reproduce_monte_carlo(model, samples, seed, rnd):
    """Any order of the blocks, over the renormalised inputs, sums to the full run."""
    mu_a, mu_b, response = model
    mass1, mass2 = mu_a.mass / mu_a.mass.sum(), mu_b.mass / mu_b.mass.sum()
    table = response.table / response.table.sum(axis=2, keepdims=True)
    blocks = list(range(-(-samples // _MC_BLOCK)))
    rnd.shuffle(blocks)
    root = np.random.SeedSequence(seed)
    counts = sum(
        _block_counts(mass1, mass2, table, b, min(_MC_BLOCK, samples - b * _MC_BLOCK), root) for b in blocks
    )
    np.testing.assert_array_equal(monte_carlo(mu_a, mu_b, response, samples, seed), counts / samples)
