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
Only overlap can make it fail: while no pair is reached by preparations that
expect different statistics, answering each pair with the target row of the
preparations reaching it is a witness.  Otherwise :func:`feasibility` decides
with one elastic LP solve.  Pairs whose joints are proportional across the
preparations (equal likelihood ratios) are interchangeable, so the LP has one
column per class of such pairs and sees the ontic space only through the
likelihood ratios: states outside the overlap, whose ratios are 0 or infinite,
add only a few classes however many they are.  It returns either a witness,
re-checked over the original pairs, or a dual certificate, checked over the
original pairs in exact arithmetic, that bounds the violation every response
function must incur.  :class:`PbrCheckError` means no verdict: the solver
failed and PBR's zero-cell dual cannot decide, or neither verdict is proved.
:func:`pbr_contradiction` is the independent analytic shortcut for the
four-preparation scenario with a zero-outcome pairing that covers every
outcome.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError, PbrCheckError
from .quantum import EPS_PROB, EPS_ZERO, as_distributions

#: Tolerance on the total violation of the LP equality constraints (elastic
#: solve, witness re-check and infeasibility certificate).
EPS_LP = 1e-7

#: Fixed Monte Carlo block size; block index, not worker count, determines
#: every draw (see :func:`monte_carlo`).
_MC_BLOCK = 1 << 15


def _positive_int(value, what: str) -> int:
    """``value`` as an ``int``: any integer type but ``bool``, at least 1."""
    try:
        number = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = None
    if number is None or number < 1:
        raise DomainError(f"{what} must be a positive integer, got {value!r}")
    return number


@dataclass(frozen=True)
class OnticSpace:
    """A finite set of physical states, numbered 0 .. size - 1."""

    size: int

    def __post_init__(self):
        object.__setattr__(self, "size", _positive_int(self.size, "ontic space size"))


def _require_same_space(a: "EpistemicDistribution", b: "EpistemicDistribution") -> OnticSpace:
    if a.space != b.space:
        raise DomainError(f"distributions live on different ontic spaces: {a.space} vs {b.space}")
    return a.space


@dataclass(frozen=True)
class EpistemicDistribution:
    """Probability mass over an ontic space, as induced by a preparation."""

    space: OnticSpace
    mass: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=np.float64)
        if m.shape != (self.space.size,):
            raise DomainError(f"mass shape {m.shape} does not match space size {self.space.size}")
        object.__setattr__(self, "mass", as_distributions(m, "mass"))


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
        t = np.asarray(self.table, dtype=np.float64)
        if t.ndim != 3 or t.shape[0] != t.shape[1] or t.shape[2] < 1:
            raise DomainError(f"response table must have shape (n, n, outcomes), got {t.shape}")
        object.__setattr__(self, "table", as_distributions(t, "response row"))

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
        raise DomainError(f"{len(preps)} preparations for {len(targs)} target rows")
    n = preps[0].shape[0] if preps[0].ndim == 2 else -1
    wrong = next((j.shape for j in preps if j.shape != (n, n)), None)
    if wrong is not None:
        raise DomainError(f"joint distributions must all be ({n}, {n}), got {wrong}")
    # Two masses each off 1 by EPS_PROB give a joint off by their product, plus n * n roundings.
    joint_tol = 2 * EPS_PROB + EPS_PROB**2 + n * n * np.finfo(np.float64).eps
    joints = as_distributions([j.ravel() for j in preps], "joint", joint_tol)
    k = targs[0].size
    if any(t.ndim != 1 or t.size != k for t in targs):
        raise DomainError("target rows must all have the same outcome count")
    return joints.reshape(-1, n, n), as_distributions(targs, "target row")


def _pair_classes(flats) -> tuple[np.ndarray, np.ndarray]:
    """Class of each pair column of ``flats`` and the summed joints of each class.

    Two pairs whose joints are proportional across the preparations have
    equal likelihood ratios, and the LP cannot tell them apart: with masses
    ``w_a`` and ``w_b``, the shared response ``(w_a xi_a + w_b xi_b) / (w_a +
    w_b)`` on their summed column predicts what ``xi_a`` and ``xi_b`` predict
    together.  Pairs whose profiles ``column / column.sum()`` are equal as
    floats form a class.  Classes are numbered in order of their first pair,
    so when no two pairs merge the columns are ``flats`` itself, in order.
    """
    profiles = np.ascontiguousarray((flats / flats.sum(axis=0)).T)
    classes: dict[bytes, int] = {}
    keys = profiles.view(f"V{profiles[0].nbytes}").ravel().tolist()  # one bytes key per pair
    label = np.array([classes.setdefault(key, len(classes)) for key in keys])
    if len(classes) == len(keys):
        return label, flats
    return label, flats @ (label[:, None] == np.arange(len(classes)))


def _assemble_equalities(columns, targs):
    """Elastic equality system ``A z = b`` over ``z = (x, s+, s-) >= 0``, one column of ``x`` per class.

    ``columns[p, c]`` is the summed joint of class ``c`` under preparation
    ``p``, and ``x[outcome, c]`` the response shared by the pairs of class
    ``c``; so the LP sees the ontic space only through the likelihood ratios
    that tell the classes apart.  The first ``classes`` rows are the
    pointwise normalizations ``sum_k x[k, c] = 1``; then row ``p * k + out``
    is the statistics equality ``sum_c columns[p, c] * x[out, c] + s+ - s- =
    target_p[out]``, with its own slack pair.
    """
    classes, k, stats = columns.shape[1], targs.shape[1], targs.size
    a_eq = np.zeros((classes + stats, k * classes + 2 * stats))
    for out in range(k):
        np.fill_diagonal(a_eq[:classes, out * classes :], 1.0)
        a_eq[classes + out :: k, out * classes : (out + 1) * classes] = columns
    np.fill_diagonal(a_eq[classes:, k * classes :], 1.0)
    np.fill_diagonal(a_eq[classes:, k * classes + stats :], -1.0)
    return a_eq, np.concatenate([np.ones(classes), np.ravel(targs)])


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


def _witness(joints, targs, reached, rows) -> tuple[FeasibilityVerdict | None, np.ndarray]:
    """Feasible verdict whose witness gives pair ``reached[i]`` the row ``rows[i]``, and its misses.

    Rows are renormalized and unreached pairs answer uniformly.  The verdict
    is None when the witness, substituted back over the original joints,
    misses the statistics by more than ``EPS_LP`` in total; otherwise its
    ``max_residual`` is the largest residual of every equality.
    """
    n, k = joints.shape[1], targs.shape[1]
    table = np.full((n * n, k), 1.0 / k)
    table[reached] = rows
    table = (table / table.sum(axis=1, keepdims=True)).reshape(n, n, k)
    misses = np.abs(np.einsum("pij,ijk->pk", joints, table) - targs)
    if misses.sum() > EPS_LP:
        return None, misses
    worst = max(float(np.max(np.abs(table.sum(axis=2) - 1.0))), float(misses.max()))
    return FeasibilityVerdict(True, witness=ResponseFunction(table), max_residual=worst), misses


def feasibility(preparations, targets) -> FeasibilityVerdict:
    """Decide whether any response function reproduces the target statistics.

    Looks for ``xi(k | l1, l2) >= 0`` with pointwise sum 1 such that, for every
    preparation ``p`` and outcome ``k``,
    ``sum_pairs joint_p(l1, l2) * xi(k | l1, l2) = target_p(k)``.  The minimal
    total violation of the statistics equalities over all response functions
    decides, and ``EPS_LP`` bounds it for both verdicts.

    Each reached pair first answers with the target row of the first
    preparation that reaches it, which is exact when all preparations
    reaching a pair expect the same row (disjoint supports, one preparation).
    Only when that witness misses by more than ``EPS_LP``, in the overlap,
    does one elastic LP run: ``min 1.(s+ + s-)`` subject to the
    normalizations and ``A_stat x + s+ - s- = b_stat`` with ``x, s >= 0``.
    The LP has one column per class of reached pairs with proportional joints
    (see :func:`_pair_classes`), so ``x`` holds one response row per class:

    * feasible when the optimal ``x``, each class's row given to every pair of
      the class, passes the same check (see :func:`_witness`); it is the
      witness, constant on each class, and ``max_residual`` its largest
      residual over every constraint;
    * infeasible when the statistics duals prove, in exact arithmetic over the
      original pairs, that every response function misses them by more than
      ``EPS_LP`` in total (``violation_bound``); ``violated_constraint`` names
      the row the optimal ``x`` misses most.

    Classes are found by float equality, which does not make the joints of a
    class exactly proportional, and a bound proved over classes would hold
    only if they were; checking both verdicts over the original pairs keeps
    them proved.

    When the solver fails, PBR's zero-cell dual (-1 on target cells at or
    below ``EPS_ZERO``, +1 elsewhere; see :func:`pbr_contradiction`) may
    still prove infeasibility; ``violated_constraint`` then states only the
    proved bound, since no row is known to be missed most.

    Raises :class:`PbrCheckError` when the solver fails and that dual proves
    at most ``EPS_LP``, or when the solver's answer proves neither verdict.
    Near the threshold this decision and :func:`pbr_contradiction` can
    differ (see there).
    """
    joints, targs = _validate_instance(preparations, targets)
    n, k = joints.shape[1], targs.shape[1]
    flats = joints.reshape(len(joints), n * n)
    # Pairs that no preparation reaches are unconstrained: they stay out of
    # the LP and answer uniformly.
    reached = np.flatnonzero(np.any(flats != 0.0, axis=0))
    flats = flats[:, reached]
    verdict, _ = _witness(joints, targs, reached, targs[np.argmax(flats != 0.0, axis=0)])
    if verdict is not None:
        return verdict
    label, columns = _pair_classes(flats)
    classes = columns.shape[1]
    a_eq, b_eq = _assemble_equalities(columns, targs)
    # Slacks are priced at 1/EPS_LP, so HiGHS's absolute default tolerances
    # resolve violations far below EPS_LP.
    cost = np.concatenate([np.zeros(k * classes), np.full(2 * targs.size, 1.0 / EPS_LP)])
    from scipy.optimize import linprog  # imported here so that only LP verdicts pay for scipy

    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method="highs")
    if res.status != 0:
        y = np.where(targs <= EPS_ZERO, -1.0, 1.0).ravel()
        bound = _certified_bound(flats, targs, y)
        if bound <= EPS_LP:
            raise PbrCheckError(f"LP solver failed: {res.message}")
        missed = f"every response function misses the statistics by at least {float(bound):.3e} in total"
        return FeasibilityVerdict(
            False, violated_constraint=f"cannot satisfy: {missed} (zero-cell dual; LP solver failed)",
            certificate=y, violation_bound=float(bound),
        )
    # Each reached pair takes its class's row.
    rows = np.maximum(res.x[: k * classes].reshape(k, classes).T, 0.0)[label]
    verdict, misses = _witness(joints, targs, reached, rows)
    if verdict is not None:
        return verdict
    y = np.clip(res.eqlin.marginals[classes:] * EPS_LP, -1.0, 1.0)
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
    """Outcome counts of one sample block: its one generator draws device 1, device 2, then the detector.

    ``mass1``, ``mass2`` and every row of ``table`` must sum to 1 to within
    rounding, as :func:`monte_carlo` makes them: ``Generator.multinomial``
    rejects a distribution whose leading entries sum to more than 1 + 1e-12.
    """
    rng = np.random.default_rng(_block_seed(root, block))
    pairs = rng.multinomial(rng.multinomial(n_samples, mass1), mass2)
    return rng.multinomial(pairs, table).sum(axis=(0, 1))


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
    samples are grouped into fixed-size blocks, and block ``c`` builds one
    generator from its SeedSequence child ``spawn_key + (c,)``.  Draws
    depend only on the seed and the block index, so distributing blocks over
    any number of workers and summing counts reproduces the single-threaded
    result exactly.

    A block of ``B`` samples draws counts, not samples, in three multinomial
    stages, in this order from its generator: device 1 draws ``c1 ~
    Multinomial(B, mu_device1)``; device 2 splits each ``c1[l1]`` by
    ``mu_device2`` into the pair counts ``c[l1, l2]``; the detector splits
    each pair count by the response row ``xi(. | l1, l2)`` and the block sums
    the outcome counts over all pairs.  The work per block is O(n**2 * outcomes),
    whatever ``B``.  The law of the counts is that of ``B`` samples drawn one
    by one; the counts that a fixed seed gives are not those of a per-sample
    draw.  The masses and the response rows are divided by their sums once
    per call, because validation lets each sum be off 1 by up to
    ``EPS_PROB``.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``.
    """
    space = _require_same_space(mu_device1, mu_device2)
    if response.size != space.size:
        raise DomainError(f"response over {response.size} states, space has {space.size}")
    samples = _positive_int(samples, "samples")
    # The int64 outcome counts overflow beyond this.  Counts below it are
    # accepted, and a huge one still loops over samples / _MC_BLOCK blocks.
    if samples > 2**63 - 1:
        raise DomainError(f"samples must be at most 2**63 - 1, got {samples}")
    try:
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    except ValueError as exc:  # numpy's message for a negative seed names no parameter
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}") from exc
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
