"""Ontological-model layer: finite ontic spaces, epistemic distributions,
overlap, preparation-independent joints, response functions, and the
feasibility question.

The model under test assigns each preparation a distribution mu over a finite
set of physical states lambda.  Two preparations are "mere information" about
the same underlying reality when their distributions overlap; they describe a
physical property when their supports are disjoint.  Independent devices give
independent physical states, so a pair of preparations induces the product
joint mu_a(l1) * mu_b(l2).  A measurement is modelled by a response function
xi(k | l1, l2): the outcome statistics conditioned on the physical pair that
actually reaches the detector.

Whether such a model can reproduce given quantum statistics is a linear
feasibility question in the response-function entries: nonnegativity,
pointwise normalization, and one linear equality per (preparation, outcome).
:func:`feasibility` decides it with one elastic LP solve and returns either a
re-checked witness or a dual certificate, checked in exact arithmetic, that
bounds the violation every response function must incur;
:func:`pbr_contradiction` is the independent analytic shortcut for the
four-preparation scenario with a zero-outcome pairing that covers every
outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, PbrCheckError, SpaceError
from .quantum import EPS_PROB, EPS_ZERO

#: Tolerance on the total violation of the LP equality constraints (elastic
#: solve, witness re-check and infeasibility certificate).
EPS_LP = 1e-7

#: Fixed Monte Carlo block size; block index, not worker count, determines
#: every draw (see :func:`monte_carlo`).
_MC_BLOCK = 1 << 15


@dataclass(frozen=True)
class OnticSpace:
    """A finite set of physical states, numbered 0 .. size - 1."""

    size: int

    def __post_init__(self):
        if not isinstance(self.size, int) or self.size < 1:
            raise DomainError(f"ontic space size must be a positive integer, got {self.size!r}")


def _require_same_space(a: "EpistemicDistribution", b: "EpistemicDistribution") -> OnticSpace:
    if a.space != b.space:
        raise SpaceError(f"distributions live on different ontic spaces: {a.space} vs {b.space}")
    return a.space


@dataclass(frozen=True)
class EpistemicDistribution:
    """Probability mass over an ontic space, as induced by a preparation."""

    space: OnticSpace
    mass: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.array(self.mass, dtype=np.float64)
        if m.shape != (self.space.size,):
            raise SpaceError(f"mass shape {m.shape} does not match space size {self.space.size}")
        if not np.all(np.isfinite(m)):
            raise DomainError("mass entries must be finite")
        if np.any(m < -EPS_ZERO):
            raise DomainError(f"mass entries must be nonnegative, got min {m.min()!r}")
        m = np.maximum(m, 0.0)
        if abs(m.sum() - 1.0) > EPS_PROB:
            raise DomainError(f"mass must sum to 1 within {EPS_PROB}, got {m.sum()!r}")
        m.setflags(write=False)
        object.__setattr__(self, "mass", m)


def point_mass(space: OnticSpace, index: int) -> EpistemicDistribution:
    """All mass on a single ontic state."""
    if not 0 <= index < space.size:
        raise DomainError(f"index {index} outside ontic space of size {space.size}")
    m = np.zeros(space.size)
    m[index] = 1.0
    return EpistemicDistribution(space, m)


def uniform(space: OnticSpace) -> EpistemicDistribution:
    """Uniform mass over the whole space."""
    return EpistemicDistribution(space, np.full(space.size, 1.0 / space.size))


def mixture(mu_a: EpistemicDistribution, mu_b: EpistemicDistribution) -> EpistemicDistribution:
    """Even mixture ``0.5 * mu_a + 0.5 * mu_b``."""
    space = _require_same_space(mu_a, mu_b)
    return EpistemicDistribution(space, 0.5 * mu_a.mass + 0.5 * mu_b.mass)


@dataclass(frozen=True)
class OverlapReport:
    """Strict-support overlap region and its total-variation mass."""

    overlap_states: tuple[int, ...]
    q: float


def overlap(mu0: EpistemicDistribution, mu1: EpistemicDistribution) -> OverlapReport:
    """Overlap region Delta = {l : mu0(l) > eps and mu1(l) > eps} and q = sum_Delta min.

    q is restricted to Delta so mass dust below ``EPS_ZERO`` can neither
    enlarge the region nor contribute overlap; q > 0 iff Delta is nonempty.
    """
    _require_same_space(mu0, mu1)
    both = (mu0.mass > EPS_ZERO) & (mu1.mass > EPS_ZERO)
    delta = np.flatnonzero(both)
    q = float(np.minimum(mu0.mass, mu1.mass)[both].sum())
    return OverlapReport(tuple(int(i) for i in delta), q)


def joint(mu_a: EpistemicDistribution, mu_b: EpistemicDistribution) -> np.ndarray:
    """Preparation-independent joint over ordered pairs: mass[l1, l2] = mu_a(l1) * mu_b(l2)."""
    _require_same_space(mu_a, mu_b)
    return np.outer(mu_a.mass, mu_b.mass)


def pbr_contradiction(mu0: EpistemicDistribution, mu1: EpistemicDistribution, zero_pairing) -> bool:
    """Analytic verdict: does overlap force the model into a contradiction?

    Every pair (l1, l2) in Delta x Delta lies in the support of all four
    product joints, so each (preparation, outcome) zero constraint in
    ``zero_pairing`` forces that outcome's response to vanish there.  When the
    pairing covers the four outcomes, the response rows on Delta x Delta
    cannot sum to 1, which is the contradiction.  Returns True iff q > 0 and
    the pairing covers the four outcomes.

    The size of the contradiction is proved: the dual ``y = J - 2I`` (-1 on
    the pairing cells, +1 elsewhere), fed to :func:`_certified_bound`, shows
    that every response function misses the statistics by at least ``2 q**2``
    in total.  So this predicate and :func:`feasibility` can disagree only
    while ``2 q**2 <= EPS_LP`` (q up to about 2.2e-4), where the LP may find
    a response function within tolerance although q > 0.  The predicate keeps
    its "q > 0" answer until the benchmark's check of the ``feasibility``
    document accepts one that reads the proved bound.
    """
    report = overlap(mu0, mu1)
    if report.q <= 0.0:
        return False
    killed = {int(k) for _, k in zero_pairing}
    return killed >= set(range(4))


@dataclass(frozen=True)
class ResponseFunction:
    """Outcome distribution of the detector conditioned on the physical pair.

    ``table[l1, l2, k]`` is the probability of outcome ``k`` when the devices
    emitted ontic states ``l1`` and ``l2``; each pair's row sums to 1.
    """

    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = np.array(self.table, dtype=np.float64)
        if t.ndim != 3 or t.shape[0] != t.shape[1] or t.shape[2] < 1:
            raise DomainError(f"response table must have shape (n, n, outcomes), got {t.shape}")
        if not np.all(np.isfinite(t)):
            raise DomainError("response entries must be finite")
        if np.any(t < -EPS_PROB):
            raise DomainError(f"response entries must be nonnegative, got min {t.min()!r}")
        t = np.maximum(t, 0.0)
        sums = t.sum(axis=2)
        if np.any(np.abs(sums - 1.0) > EPS_PROB):
            raise DomainError("every (l1, l2) outcome row must sum to 1")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    @property
    def size(self) -> int:
        return self.table.shape[0]

    @property
    def outcome_count(self) -> int:
        return self.table.shape[2]


def constant_response(size: int, probs) -> ResponseFunction:
    """Response that ignores the physical pair and always answers with ``probs``."""
    p = np.asarray(probs, dtype=np.float64)
    return ResponseFunction(np.broadcast_to(p, (size, size, p.size)).copy())


def state_assignment_response(assignment, outcome_rows) -> ResponseFunction:
    """Response of a detector that reads off which quantum state each lambda encodes.

    ``assignment[l]`` is the per-device state index carried by ontic state
    ``l`` (the psi-ontic picture, where lambda is a state label), and
    ``outcome_rows`` has one outcome distribution per ordered state pair,
    row-major: pair (s1, s2) at index ``s1 * S + s2``.
    """
    assign = np.asarray(list(assignment), dtype=int)
    rows = np.asarray(outcome_rows, dtype=np.float64)
    if rows.ndim != 2:
        raise DomainError(f"outcome_rows must be 2-D, got shape {rows.shape}")
    n_states = int(round(np.sqrt(rows.shape[0])))
    if n_states * n_states != rows.shape[0]:
        raise DomainError(f"outcome_rows needs one row per ordered state pair, got {rows.shape[0]}")
    if np.any(assign < 0) or np.any(assign >= n_states):
        raise DomainError(f"assignment values must index {n_states} states")
    n = assign.size
    table = rows[assign[:, None] * n_states + assign[None, :]]
    return ResponseFunction(table.reshape(n, n, rows.shape[1]))


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the linear feasibility question, with evidence either way."""

    feasible: bool
    witness: ResponseFunction | None = None
    violated_constraint: str | None = None
    max_residual: float | None = None
    #: Infeasible verdicts: duals in [-1, 1], one per (preparation, outcome),
    #: and the lower bound they prove on every response function's total
    #: violation of the statistics.
    certificate: np.ndarray | None = field(default=None, repr=False)
    violation_bound: float | None = None

    @property
    def status(self) -> str:
        return "feasible" if self.feasible else "infeasible"


def _validate_instance(preparations, targets) -> tuple[np.ndarray, np.ndarray]:
    """Stacked joints ``(p, n, n)`` and target rows ``(p, k)`` of a checked instance."""
    preps = [np.asarray(j, dtype=np.float64) for j in preparations]
    targs = [np.asarray(t, dtype=np.float64) for t in targets]
    if not preps or len(preps) != len(targs):
        raise SpaceError(f"{len(preps)} preparations for {len(targs)} target rows")
    n = preps[0].shape[0] if preps[0].ndim == 2 else -1
    wrong = next((j.shape for j in preps if j.shape != (n, n)), None)
    if wrong is not None:
        raise SpaceError(f"joint distributions must all be ({n}, {n}), got {wrong}")
    joints = np.asarray(preps)
    # The sums are tested first: a sum near 1 means the array is not empty.  A
    # joint of two masses each off 1 by up to EPS_PROB is off by their product,
    # plus the rounding of its n * n terms.
    joint_tol = 2 * EPS_PROB + EPS_PROB**2 + n * n * np.finfo(np.float64).eps
    if np.abs(joints.sum(axis=(1, 2)) - 1.0).max() > joint_tol or joints.min() < -EPS_ZERO:
        raise DomainError("each joint must be a probability distribution over pairs")
    k = targs[0].size
    if any(t.ndim != 1 or t.size != k for t in targs):
        raise SpaceError("target rows must all have the same outcome count")
    rows = np.asarray(targs)
    if np.abs(rows.sum(axis=1) - 1.0).max() > EPS_PROB or rows.min() < -EPS_PROB:
        raise DomainError("each target row must be a probability distribution")
    return joints, rows


def _assemble_equalities(flats, targs):
    """Equality system A x = b over x[outcome, pair] >= 0 for the joint columns ``flats``.

    The first ``pairs`` rows are the pointwise normalizations
    ``sum_k x[k, pair] = 1``; then row ``p * k + out`` is the statistics
    equality ``sum_pairs joint_p * x[out, .] = target_p[out]``.
    """
    pairs, k = flats.shape[1], targs.shape[1]
    normalization = np.tile(np.eye(pairs), k)
    statistics = np.einsum("ab,pj->pabj", np.eye(k), flats).reshape(len(flats) * k, k * pairs)
    return np.vstack([normalization, statistics]), np.concatenate([np.ones(pairs), np.ravel(targs)])


def _misses(joints, targs, table) -> np.ndarray:
    """Predicted minus target probability, one entry per (preparation, outcome)."""
    return np.einsum("pij,ijk->pk", joints, table) - targs


def _max_residual(joints, targs, table) -> float:
    """Largest residual of every normalization and statistics equality under ``table``."""
    worst = float(np.max(np.abs(table.sum(axis=2) - 1.0)))
    return max(worst, float(np.max(np.abs(_misses(joints, targs, table)))))


def check_witness(preparations, targets, response: ResponseFunction) -> float:
    """Max absolute residual of all equality constraints under ``response``."""
    joints, targs = _validate_instance(preparations, targets)
    if response.table.shape != joints.shape[1:] + targs.shape[1:]:
        raise SpaceError("response shape does not match the instance")
    return _max_residual(joints, targs, response.table)


def _dyadic(values) -> tuple[np.ndarray, int]:
    """Python integers ``m`` (same shape) and a shift ``e`` with ``values == m / 2**e`` exactly."""
    ratios = [v.as_integer_ratio() for v in np.ravel(values).tolist()]
    shift = max(d.bit_length() - 1 for _, d in ratios)
    ints = [num << (shift - d.bit_length() + 1) for num, d in ratios]
    return np.array(ints, dtype=object).reshape(np.shape(values)), shift


def _certified_bound(flats, targs, y) -> Fraction:
    """Exact lower bound, proved by ``y``, on the total violation of every response function.

    ``flats[p]`` holds joint ``p`` over the pairs (pairs it omits carry no
    mass) and ``y`` one dual in ``[-1, 1]`` per (preparation, outcome).  With
    ``g[pair, k] = sum_p joint_p[pair] * y[p, k]``, every response function
    ``xi`` predicts ``y . predicted = sum_pair sum_k xi(k | pair) g[pair, k]``,
    at most ``sum_pair max_k g[pair, k]`` because each response row is a
    distribution; and ``y . (target - predicted)`` is at most the total
    violation ``V``.  Hence ``V >= y . target - sum_pair max_k g[pair, k]``.
    Every float is read exactly, so the bound does not rest on the solver's
    arithmetic.
    """
    joints, j_shift = _dyadic(flats)
    duals, y_shift = _dyadic(y.reshape(len(flats), -1))
    target, t_shift = _dyadic(targs)
    gain = joints.T.dot(duals)
    return Fraction(int((target * duals).sum()), 1 << (t_shift + y_shift)) - Fraction(
        int(gain.max(axis=1).sum()), 1 << (j_shift + y_shift)
    )


def feasibility(preparations, targets) -> FeasibilityVerdict:
    """Decide whether any response function reproduces the target statistics.

    Looks for ``xi(k | l1, l2) >= 0`` with pointwise sum 1 such that, for every
    preparation ``p`` and outcome ``k``,
    ``sum_pairs joint_p(l1, l2) * xi(k | l1, l2) = target_p(k)``.  One elastic
    LP, ``min 1.(s+ + s-)`` subject to the normalizations and
    ``A_stat x + s+ - s- = b_stat`` with ``x, s >= 0``, finds the minimal total
    violation of the statistics equalities over all response functions, and
    ``EPS_LP`` bounds that minimum for both verdicts:

    * feasible when the optimal ``x``, rows renormalized, misses the
      statistics by at most ``EPS_LP`` in total when substituted back; it is the
      witness (pairs that no preparation reaches answer uniformly), and
      ``max_residual`` its largest residual over every constraint;
    * infeasible when the statistics duals prove, in exact arithmetic, that
      every response function misses them by more than ``EPS_LP`` in total
      (``violation_bound``); ``violated_constraint`` names the row the optimal
      ``x`` misses most.

    Raises :class:`PbrCheckError` when the solver fails or its answer supports
    neither verdict.  Near the threshold this decision and
    :func:`pbr_contradiction` can differ (see there).
    """
    joints, targs = _validate_instance(preparations, targets)
    n, k = joints.shape[1], targs.shape[1]
    flats = joints.reshape(len(joints), n * n)
    # Pairs that no preparation reaches are unconstrained: they stay out of
    # the LP and answer uniformly.
    reached = np.flatnonzero(np.any(flats != 0.0, axis=0))
    flats = flats[:, reached]
    a_eq, b_eq = _assemble_equalities(flats, targs)
    m, n_vars = a_eq.shape
    pairs = reached.size
    slack = np.eye(m)[:, pairs:]
    # Slacks are priced at 1/EPS_LP, so HiGHS's absolute default tolerances
    # resolve violations far below EPS_LP.
    cost = np.concatenate([np.zeros(n_vars), np.full(2 * (m - pairs), 1.0 / EPS_LP)])
    from scipy.optimize import linprog  # imported here so that only LP verdicts pay for scipy

    res = linprog(cost, A_eq=np.hstack([a_eq, slack, -slack]), b_eq=b_eq, bounds=(0.0, None), method="highs")
    if res.status != 0:
        raise PbrCheckError(f"LP solver failed: {res.message}")
    rows = np.full((n * n, k), 1.0 / k)
    rows[reached] = np.maximum(res.x[:n_vars].reshape(k, pairs).T, 0.0)
    table = (rows / rows.sum(axis=1, keepdims=True)).reshape(n, n, k)
    misses = np.abs(_misses(joints, targs, table))
    if misses.sum() <= EPS_LP:
        witness = ResponseFunction(table)
        return FeasibilityVerdict(True, witness=witness, max_residual=_max_residual(joints, targs, witness.table))
    y = np.clip(res.eqlin.marginals[pairs:] * EPS_LP, -1.0, 1.0)
    bound = _certified_bound(flats, targs, y)
    if bound <= EPS_LP:
        raise PbrCheckError(
            f"neither verdict is proved: the witness misses by {misses.sum():.3e} in total, "
            f"the certificate proves only {float(bound):.3e}"
        )
    prep, out = np.unravel_index(np.argmax(misses), misses.shape)
    return FeasibilityVerdict(
        False,
        violated_constraint=(
            f"cannot satisfy: preparation {prep}: outcome {out + 1} probability must equal "
            f"{targs[prep, out]:.12g} (off by {misses[prep, out]:.3e}; "
            f"minimal total violation {res.fun * EPS_LP:.3e}, certified at least {float(bound):.3e})"
        ),
        certificate=y,
        violation_bound=float(bound),
    )


def _block_seed(root: np.random.SeedSequence, block: int) -> np.random.SeedSequence:
    """Sub-seed of a fixed sample block; depends only on (root, block index)."""
    return np.random.SeedSequence(entropy=root.entropy, spawn_key=tuple(root.spawn_key) + (block,))


def _block_counts(mass1, mass2, table, block: int, n_samples: int, root) -> np.ndarray:
    """Outcome counts of one sample block, drawn from its own three sub-streams.

    ``mass1``, ``mass2`` and every row of ``table`` must sum to 1 to within
    rounding, as :func:`monte_carlo` makes them: ``Generator.multinomial``
    rejects a distribution whose leading entries sum to more than 1 + 1e-12.
    """
    dev1, dev2, detector = (np.random.default_rng(s) for s in _block_seed(root, block).spawn(3))
    pairs = dev2.multinomial(dev1.multinomial(n_samples, mass1), mass2)
    return detector.multinomial(pairs, table).sum(axis=(0, 1))


def monte_carlo(
    mu_device1: EpistemicDistribution,
    mu_device2: EpistemicDistribution,
    response: ResponseFunction,
    samples: int,
    seed,
) -> np.ndarray:
    """Empirical outcome frequencies of the sampled model.

    Draws ``l1 ~ mu_device1`` and ``l2 ~ mu_device2`` independently, then an
    outcome from ``response``.  Sampling is reproducible and splittable:
    samples are grouped into fixed-size blocks, block ``c`` derives its
    SeedSequence child via ``spawn_key + (c,)`` and splits it into three
    sub-streams (device 1, device 2, detector).  Draws depend only on the seed
    and the block index, so distributing blocks over any number of workers and
    summing counts reproduces the single-threaded result exactly.

    A block of ``B`` samples draws counts, not samples, in three multinomial
    stages, one per sub-stream: device 1 draws ``c1 ~ Multinomial(B,
    mu_device1)``; device 2 splits each ``c1[l1]`` by ``mu_device2`` into the
    pair counts ``c[l1, l2]``; the detector splits each pair count by the
    response row ``xi(. | l1, l2)``, and the block returns the outcome counts
    summed over all pairs.  The work per block is O(n**2 * outcomes),
    whatever ``B``.  The law of the counts is that of ``B`` samples drawn one
    by one; the counts that a fixed seed gives are not those of a per-sample
    draw.  The masses and the response rows are divided by their sums once
    per call, because validation lets each sum be off 1 by up to
    ``EPS_PROB``.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``.
    """
    space = _require_same_space(mu_device1, mu_device2)
    if response.size != space.size:
        raise SpaceError(f"response over {response.size} states, space has {space.size}")
    if not isinstance(samples, int) or samples < 1:
        raise DomainError(f"samples must be a positive integer, got {samples!r}")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    mass1, mass2 = (mu.mass / mu.mass.sum() for mu in (mu_device1, mu_device2))
    table = response.table / response.table.sum(axis=2, keepdims=True)
    counts = np.zeros(response.outcome_count, dtype=np.int64)
    for block in range(0, (samples + _MC_BLOCK - 1) // _MC_BLOCK):
        block_samples = min(_MC_BLOCK, samples - block * _MC_BLOCK)
        counts += _block_counts(mass1, mass2, table, block, block_samples, root)
    return counts / samples


def overlap_pair(space: OnticSpace, q: float) -> tuple[EpistemicDistribution, EpistemicDistribution]:
    """Deterministic distribution pair with total-variation overlap exactly ``q``.

    Construction: ``mu0 = (1-q) point(first) + q uniform(middle)`` and
    ``mu1 = (1-q) point(last) + q uniform(middle)``, where the middle block is
    the index range 1..size-2.  Needs size >= 3 when q > 0 and size >= 2 when
    q = 0.
    """
    if not (isinstance(q, (int, float)) and np.isfinite(q) and 0.0 <= q <= 1.0):
        raise DomainError(f"overlap q must lie in [0, 1], got {q!r}")
    q = float(q)
    n = space.size
    if q == 0.0:
        if n < 2:
            raise DomainError("q = 0 needs at least 2 ontic states for disjoint point masses")
        return point_mass(space, 0), point_mass(space, n - 1)
    if n < 3:
        raise DomainError("q > 0 needs at least 3 ontic states (endpoints plus a middle block)")
    middle = np.arange(1, n - 1)
    m0 = np.zeros(n)
    m1 = np.zeros(n)
    m0[0] = 1.0 - q
    m1[n - 1] = 1.0 - q
    m0[middle] += q / middle.size
    m1[middle] += q / middle.size
    return EpistemicDistribution(space, m0), EpistemicDistribution(space, m1)
