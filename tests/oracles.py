"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately written with explicit Python loops and
elementary arithmetic, so it shares no code path with the library's
vectorized implementations.  The one exception is
:func:`per_sample_block_counts`, the reference for the count sampler: it
draws every sample with numpy, from one generator per block as the sampler
does, so that it stays fast enough to pool over hundreds of seeds.
"""

import math
from fractions import Fraction

import numpy as np

SQRT2 = math.sqrt(2.0)

# The four entangled outcome kets, expanded by hand from their definitions
# in the computational basis |00>, |01>, |10>, |11>.
XI_VECTORS = (
    (0.0, 1.0 / SQRT2, 1.0 / SQRT2, 0.0),          # (|01> + |10>)/sqrt(2)
    (0.5, -0.5, 0.5, 0.5),                         # (|0-> + |1+>)/sqrt(2)
    (0.5, 0.5, -0.5, 0.5),                         # (|+1> + |-0>)/sqrt(2)
    (1.0 / SQRT2, 0.0, 0.0, -1.0 / SQRT2),         # (|+-> + |-+>)/sqrt(2)
)

# Born rows of the four product preparations |00>, |0+>, |+0>, |++> against
# the xi outcomes, derived by hand (each nonzero amplitude is +-1/2 or
# 1/sqrt(2) up to products of 1/sqrt(2) factors).
PRODUCT_BORN_ROWS = (
    (0.0, 0.25, 0.25, 0.5),
    (0.25, 0.0, 0.5, 0.25),
    (0.25, 0.5, 0.0, 0.25),
    (0.5, 0.25, 0.25, 0.0),
)

# Squared normalization constant of |0> + |+>: 1/(2 + sqrt(2)) = sqrt(2)/(2 sqrt(2) + 2).
MZ_NORMALIZATION_SQ = SQRT2 / (2.0 * SQRT2 + 2.0)


def born_probability(outcome, state) -> float:
    """|<outcome|state>|^2 by explicit accumulation."""
    amplitude = 0j
    for o, s in zip(outcome, state):
        amplitude += complex(o).conjugate() * complex(s)
    return abs(amplitude) ** 2


def born_row(state, outcomes) -> list:
    return [born_probability(o, state) for o in outcomes]


def tensor_by_hand(a, b) -> list:
    out = []
    for x in a:
        for y in b:
            out.append(complex(x) * complex(y))
    return out


def min_overlap(mass0, mass1, eps=1e-12):
    """(overlap indices, q) by scalar comparison, mirroring the definition only."""
    indices, q = [], 0.0
    for i, (a, b) in enumerate(zip(mass0, mass1)):
        if a > eps and b > eps:
            indices.append(i)
            q += min(a, b)
    return indices, q


def random_state(rng, dim) -> np.ndarray:
    """Random unit-norm complex vector."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_orthonormal_basis(rng, dim) -> np.ndarray:
    """Rows of a Haar-ish random unitary (QR of a random complex matrix)."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(m)
    return q


def random_mass_pair(rng, size, disjoint):
    """Random distribution pair over ``size`` states, disjoint supports on request.

    Overlapping pairs are conditioned on a total-variation overlap of at
    least 1e-3 so the feasibility margin stays structural rather than
    numerical dust: the LP and the analytic predicate agree only once the
    violation that overlap forces exceeds EPS_LP = 1e-7, and for
    ``overlap_pair`` on four states that violation is about 2 q**2, which
    passes EPS_LP near q = 2.2e-4.
    """
    while True:
        if disjoint:
            split = int(rng.integers(1, size))
            m0, m1 = np.zeros(size), np.zeros(size)
            m0[:split] = rng.dirichlet(np.ones(split))
            m1[split:] = rng.dirichlet(np.ones(size - split))
        else:
            m0 = rng.dirichlet(np.ones(size))
            m1 = rng.dirichlet(np.ones(size))
        _, q = min_overlap(m0, m1)
        if disjoint or q >= 1e-3:
            return m0, m1


def certified_violation_bound(joints, targets, duals) -> Fraction:
    """Lower bound on every response function's total violation, proved by ``duals``.

    ``duals`` holds one value in [-1, 1] per (preparation, outcome), row-major.
    Every response row is a distribution over outcomes, so the bound is
    sum_{p,k} y[p,k] * target_p[k] - sum_pairs max_k sum_p joint_p[pair] * y[p,k],
    evaluated here in exact rationals by explicit loops.
    """
    k = len(targets[0])
    y = [[Fraction(float(duals[p * k + out])) for out in range(k)] for p in range(len(joints))]
    bound = Fraction(0)
    for p, row in enumerate(targets):
        for out in range(k):
            bound += y[p][out] * Fraction(float(row[out]))
    size = len(joints[0])
    for l1 in range(size):
        for l2 in range(size):
            gains = []
            for out in range(k):
                gain = Fraction(0)
                for p, j in enumerate(joints):
                    gain += Fraction(float(j[l1][l2])) * y[p][out]
                gains.append(gain)
            bound -= max(gains)
    return bound


def exact_min_violation(joints, targets) -> Fraction:
    """The minimal total violation V* of the statistics over every response function, in exact rationals.

    Solves the elastic LP over the reached pairs c (those some joint gives
    mass): minimize sum(s+ + s-) subject to sum_k x[k, c] = 1 for every c and
    sum_c joint_p[c] * x[k, c] + s+[p, k] - s-[p, k] = target_p[k] for every
    preparation p and outcome k, every variable >= 0.  A dense tableau
    simplex over Fractions pivots by Bland's rule, which cannot cycle.  Its
    first basis is feasible, so there is no phase 1: x[0, c] on each
    normalization row, and s+ or s- on each statistics row by the sign of
    its residual there.  The basis is block-triangular, so it is regular.
    """
    k = len(targets[0])
    flat = [[Fraction(float(x)) for row in j for x in row] for j in joints]
    reached = [c for c in range(len(flat[0])) if any(f[c] for f in flat)]
    pairs, stats = len(reached), len(joints) * k
    # Columns: x[out, c] at out * pairs + i for c = reached[i], s+ at k * pairs + r and s- at
    # k * pairs + stats + r for statistics row r = p * k + out, then the right-hand side.
    width = k * pairs + 2 * stats
    tableau, basis = [], []
    for i in range(pairs):
        row = [Fraction(0)] * (width + 1)
        for out in range(k):
            row[out * pairs + i] = Fraction(1)
        row[width] = Fraction(1)
        tableau.append(row)
        basis.append(i)
    for p, target in enumerate(targets):
        for out in range(k):
            r = p * k + out
            row = [Fraction(0)] * (width + 1)
            for i, c in enumerate(reached):
                row[out * pairs + i] = flat[p][c]
            row[k * pairs + r], row[k * pairs + stats + r] = Fraction(1), Fraction(-1)
            row[width] = Fraction(float(target[out]))
            tableau.append(row)
            residual = row[width] - (sum(row[:pairs], Fraction(0)) if out == 0 else 0)
            basis.append(k * pairs + r if residual >= 0 else k * pairs + stats + r)
    cost = [Fraction(0)] * (k * pairs) + [Fraction(1)] * (2 * stats)

    def pivot(r, col):
        tableau[r] = [v / tableau[r][col] for v in tableau[r]]
        for other, row in enumerate(tableau):
            if other != r and row[col]:
                factor = row[col]
                tableau[other] = [a - factor * b for a, b in zip(row, tableau[r])]
        basis[r] = col

    for r, col in enumerate(list(basis)):
        pivot(r, col)
    while True:
        reduced = [cost[j] - sum(cost[b] * row[j] for b, row in zip(basis, tableau)) for j in range(width)]
        entering = next((j for j in range(width) if reduced[j] < 0), None)
        if entering is None:
            return sum((cost[b] * row[width] for b, row in zip(basis, tableau)), Fraction(0))
        # The objective is bounded below by 0, so some entry of the entering column is positive.  Bland's
        # rule leaves by the least ratio, and among equal ratios by the least basic column.
        ratios = [
            (row[width] / row[entering], b, r) for r, (b, row) in enumerate(zip(basis, tableau)) if row[entering] > 0
        ]
        pivot(min(ratios)[2], entering)


def witness_misses(joints, targets, table) -> list:
    """Miss of every statistics equality under the response ``table``, in exact rationals.

    |sum_pairs joint_p[pair] * table[pair][k] - target_p[k]| for every
    preparation p and outcome k, row-major, every float read exactly and
    summed by explicit loops.
    """
    size, k = len(joints[0]), len(targets[0])
    misses = []
    for j, row in zip(joints, targets):
        for out in range(k):
            predicted = Fraction(0)
            for l1 in range(size):
                for l2 in range(size):
                    predicted += Fraction(float(j[l1][l2])) * Fraction(float(table[l1][l2][out]))
            misses.append(abs(predicted - Fraction(float(row[out]))))
    return misses


def witness_total_miss(joints, targets, table) -> Fraction:
    """Total violation of the statistics under the response ``table``, in exact rationals."""
    return sum(witness_misses(joints, targets, table), Fraction(0))


def witness_max_residual(joints, targets, table) -> Fraction:
    """Largest residual under the response ``table``, in exact rationals.

    The residuals are |sum_k table[pair][k] - 1| for every pair and the miss
    of every statistics equality (:func:`witness_misses`).
    """
    residuals = witness_misses(joints, targets, table)
    for plane in table:
        for row in plane:
            total = Fraction(0)
            for x in row:
                total += Fraction(float(x))
            residuals.append(abs(total - 1))
    return max(residuals)


def per_sample_block_counts(mass1, mass2, table, block, n_samples, root) -> np.ndarray:
    """Outcome counts of one sample block, drawn one sample at a time.

    The reference for ``pbrcheck.ontic._block_counts``, with its signature
    and its one generator per block, which draws in this order: device 1's
    and device 2's ontic states by ``Generator.choice``, then the detector's
    uniforms; each sample's outcome is the first whose cumulative response
    reaches its uniform.
    """
    seed = np.random.SeedSequence(entropy=root.entropy, spawn_key=tuple(root.spawn_key) + (block,))
    rng = np.random.default_rng(seed)
    l1 = rng.choice(len(mass1), size=n_samples, p=mass1)
    l2 = rng.choice(len(mass2), size=n_samples, p=mass2)
    cumulative = np.cumsum(np.asarray(table)[l1, l2, :], axis=1)
    u = rng.random(n_samples)
    outcomes = np.minimum((cumulative < u[:, None]).sum(axis=1), cumulative.shape[1] - 1)
    return np.bincount(outcomes, minlength=cumulative.shape[1])
