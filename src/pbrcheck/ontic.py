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
:func:`feasibility` answers it with a witness or a certificate, each checked
exactly against ``EPS_LP`` without trusting the solver, or raises
:class:`PbrCheckError` when no proof holds; its docstring lists its three steps.
:func:`pbr_contradiction` is the independent analytic shortcut for the
four-preparation scenario with a zero-outcome pairing that covers every
outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, PbrCheckError
from .quantum import EPS_PROB, EPS_ZERO, as_array, as_distributions, as_instance, as_int, as_real

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
        object.__setattr__(self, "size", as_int(self.size, "ontic space size", 1))


def _space_size(space) -> int:
    """``space.size``, refused unless ``space`` is an :class:`OnticSpace`."""
    return as_instance(space, OnticSpace, "space").size


def _require_same_space(a: "EpistemicDistribution", b: "EpistemicDistribution") -> OnticSpace:
    a, b = (as_instance(mu, EpistemicDistribution, "distribution") for mu in (a, b))
    if a.space != b.space:
        raise DomainError(f"distributions live on different ontic spaces: {a.space} vs {b.space}")
    return a.space


@dataclass(frozen=True, eq=False)
class EpistemicDistribution:
    """Probability mass over an ontic space, as induced by a preparation."""

    space: OnticSpace
    mass: np.ndarray = field(repr=False)

    def __post_init__(self):
        m, n = as_array(self.mass, "mass"), _space_size(self.space)
        if m.shape != (n,):
            raise DomainError(f"mass shape {m.shape} does not match space size {n}")
        object.__setattr__(self, "mass", as_distributions(m, "mass"))


def point_mass(space: OnticSpace, index: int) -> EpistemicDistribution:
    """All mass on a single ontic state."""
    n = _space_size(space)
    m = np.zeros(n)
    m[as_int(index, "index", 0, n)] = 1.0
    return EpistemicDistribution(space, m)


def uniform(space: OnticSpace) -> EpistemicDistribution:
    """Uniform mass over the whole space."""
    n = _space_size(space)
    return EpistemicDistribution(space, np.full(n, 1.0 / n))


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
    the pairing covers the four outcomes.  Each cell's preparation and outcome
    must be an integer in [0, 4).

    The size of the contradiction is proved: the dual ``y = J - 2I`` (-1 on
    the pairing cells, +1 elsewhere) shows that every response function
    misses the statistics by at least ``2 q**2`` in total.
    :func:`_certified_bound` evaluates that bound in floats with a proven
    error, and in exact rationals only when the float lies within that error
    of ``EPS_LP``.  So this predicate and :func:`feasibility` can disagree only
    while ``2 q**2 <= EPS_LP`` (q up to about 2.2e-4), where the LP may find
    a response function within tolerance although q > 0.  The predicate keeps
    its "q > 0" answer until the benchmark's check of the ``feasibility``
    document accepts one that reads the proved bound.
    """
    if not isinstance(zero_pairing, (list, tuple)) or any(
        not isinstance(cell, (list, tuple)) or len(cell) != 2 for cell in zero_pairing
    ):
        raise DomainError(f"zero_pairing must be a list of (preparation, outcome) pairs, got {zero_pairing!r}")
    cells = [
        (as_int(p, "zero_pairing preparation", 0, 4), as_int(k, "zero_pairing outcome", 0, 4)) for p, k in zero_pairing
    ]
    return overlap(mu0, mu1).q > 0.0 and {k for _, k in cells} >= set(range(4))


@dataclass(frozen=True, eq=False)
class ResponseFunction:
    """Outcome distribution of the detector conditioned on the physical pair.

    ``table[l1, l2, k]`` is the probability of outcome ``k`` when the devices
    emitted ontic states ``l1`` and ``l2``; each pair's row sums to 1.
    """

    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        t = as_array(self.table, "response table")
        if t.ndim != 3 or t.shape[0] != t.shape[1] or 0 in t.shape:
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
    p = as_array(probs, "probs")
    if p.ndim != 1:
        raise DomainError(f"probs must be 1-D, got shape {p.shape}")
    size = as_int(size, "size", 1)
    return ResponseFunction(np.broadcast_to(p, (size, size, p.size)).copy())


def state_assignment_response(assignment, outcome_rows) -> ResponseFunction:
    """Response of a detector that reads off which quantum state each lambda encodes.

    ``assignment[l]`` is the per-device state index carried by ontic state
    ``l`` (the psi-ontic picture, where lambda is a state label), and
    ``outcome_rows`` has one outcome distribution per ordered state pair,
    row-major: pair (s1, s2) at index ``s1 * S + s2``.
    """
    rows = as_array(outcome_rows, "outcome_rows")
    if rows.ndim != 2:
        raise DomainError(f"outcome_rows must be 2-D, got shape {rows.shape}")
    n_states = int(round(np.sqrt(rows.shape[0])))
    if n_states * n_states != rows.shape[0]:
        raise DomainError(f"outcome_rows needs one row per ordered state pair, got {rows.shape[0]}")
    try:
        entries = [as_int(s, "assignment entry", 0, n_states) for s in assignment]
    except TypeError:  # not iterable
        raise DomainError(f"assignment must be a sequence of state indices, got {assignment!r}") from None
    # dtype=int types an empty assignment, whose zero-size table ResponseFunction refuses.
    assign = np.array(entries, dtype=int)
    n = assign.size
    table = rows[assign[:, None] * n_states + assign[None, :]]
    return ResponseFunction(table.reshape(n, n, rows.shape[1]))


@dataclass(frozen=True, eq=False)
class FeasibilityVerdict:
    """Outcome of the linear feasibility question, with evidence either way."""

    feasible: bool
    witness: ResponseFunction | None = None
    violated_constraint: str | None = None
    max_residual: float | None = None
    #: Infeasible verdicts: duals in [-1, 1], one per (preparation, outcome),
    #: and a float at most the bound they prove on every response function's
    #: total violation of the statistics.
    certificate: np.ndarray | None = field(default=None, repr=False)
    violation_bound: float | None = None

    @property
    def status(self) -> str:
        return "feasible" if self.feasible else "infeasible"


def _validate_instance(preparations, targets) -> tuple[np.ndarray, np.ndarray]:
    """Flat joints ``(p, n * n)`` and target rows ``(p, k)`` of a checked instance."""
    try:
        preps, targs = [as_array(j, "joint") for j in preparations], [as_array(t, "target row") for t in targets]
    except TypeError:  # not iterable
        got = f"{preparations!r}, {targets!r}"
        raise DomainError(f"preparations and targets must be sequences of arrays, got {got}") from None
    if not preps or len(preps) != len(targs):
        raise DomainError(f"{len(preps)} preparations for {len(targs)} target rows")
    n = preps[0].shape[0] if preps[0].ndim == 2 else -1
    wrong = next((j.shape for j in preps if j.shape != (n, n)), None)
    if wrong is not None:
        raise DomainError(f"joint distributions must all be ({n}, {n}), got {wrong}")
    # Two masses each off 1 by EPS_PROB give a joint off by their product, plus n * n roundings.
    joint_tol = 2 * EPS_PROB + EPS_PROB**2 + n * n * math.ulp(1.0)
    joints = as_distributions([j.ravel() for j in preps], "joint", joint_tol)
    k = targs[0].size
    if any(t.ndim != 1 or t.size != k for t in targs):
        raise DomainError("target rows must all have the same outcome count")
    return joints, as_distributions(targs, "target row")


def _assemble_equalities(flats, targs):
    """Elastic equality system ``A z = b`` over ``z = (x, s+, s-) >= 0``, one column of ``x`` per pair.

    ``flats[p, c]`` is the joint of reached pair ``c`` under preparation
    ``p``, and ``x[outcome, c]`` that pair's response.  The first ``pairs``
    rows are the pointwise normalizations ``sum_k x[k, c] = 1``; then row
    ``p * k + out`` is the statistics equality ``sum_c flats[p, c] * x[out, c]
    + s+ - s- = target_p[out]``, with its own slack pair.
    """
    pairs, k, stats = flats.shape[1], targs.shape[1], targs.size
    a_eq = np.zeros((pairs + stats, k * pairs + 2 * stats))
    for out in range(k):
        np.fill_diagonal(a_eq[:pairs, out * pairs :], 1.0)
        a_eq[pairs + out :: k, out * pairs : (out + 1) * pairs] = flats
    np.fill_diagonal(a_eq[pairs:, k * pairs :], 1.0)
    np.fill_diagonal(a_eq[pairs:, k * pairs + stats :], -1.0)
    return a_eq, np.concatenate([np.ones(pairs), np.ravel(targs)])


#: Float array to an object array of the ``Fraction`` each entry equals; every finite float is one.
_fractions = np.frompyfunc(Fraction, 1, 1)

#: Unit roundoff of float64.
_U = 2.0**-53


class _Estimate(NamedTuple):
    """A float ``value`` of an exact quantity, off it by at most ``error``; ``exact()`` is the quantity as a Fraction.

    Every ``error`` here rests on one lemma (Higham, *Accuracy and Stability
    of Numerical Algorithms*, 2nd ed., 2002, eq. (3.5) and Lemma 3.3): a sum
    of ``m`` terms, each a float or a product of two floats, evaluated in
    float64 in any order (left to right, pairwise, blocked as BLAS does, with
    or without fused multiply-adds) is off its exact value by at most
    ``gamma_m = m u / (1 - m u) <= 2 m u`` times the sum of the terms'
    absolute values, where ``u = 2**-53`` and ``m u <= 1/2``.  Errors compose:
    ``gamma_a + gamma_b + gamma_a gamma_b <= gamma_(a+b)``, and a maximum of
    computed values is off the exact maximum by at most their largest error.
    Products that underflow add at most ``2**-1075`` each, far less than the
    one ``u`` every ``error`` adds for them.
    """

    value: float
    error: float
    exact: Callable[[], Fraction]

    def exceeds_eps_lp(self) -> bool:
        """Whether the exact quantity exceeds ``EPS_LP``, computing ``exact()`` only within ``error`` of it."""
        # Rounding is monotone and ``error`` is a float, so a computed distance above it is one in exact arithmetic.
        if abs(self.value - EPS_LP) > self.error:
            return self.value > EPS_LP
        return self.exact() > EPS_LP

    def floor(self) -> float:
        """``value - error`` rounded down: a float at most the exact quantity."""
        return math.nextafter(self.value - self.error, -math.inf)


def _certified_bound(flats, targs, y) -> _Estimate:
    """Lower bound, proved by ``y``, on the total violation of every response function.

    ``flats[p]`` holds joint ``p`` over the pairs (pairs it omits carry no
    mass) and ``y`` one dual in ``[-1, 1]`` per (preparation, outcome).  With
    ``g[pair, k] = sum_p joint_p[pair] * y[p, k]``, every response function
    ``xi`` predicts ``y . predicted = sum_pair sum_k xi(k | pair) g[pair, k]``,
    at most ``sum_pair max_k g[pair, k]`` because each response row is a
    distribution; and ``y . (target - predicted)`` is at most the total
    violation ``V``.  Hence ``V >= y . target - sum_pair max_k g[pair, k]``.

    The float evaluation takes ``m = pairs + p + p k + 1`` terms along any
    path (``p`` products per gain, one maximum per pair, ``p k`` products in
    ``y . target``, one subtraction) whose absolute values sum to at most
    ``sum(flats) + sum(targs) < 4 p``, because ``|y| <= 1`` and every
    validated row is nonnegative and sums to less than 2; so it is off the
    bound by at most ``8 m p u`` (see :class:`_Estimate`).  The exact bound
    reads every float as the ``Fraction`` it equals, so neither verdict rests
    on the solver's arithmetic.
    """
    duals = y.reshape(len(flats), -1)
    value = float((targs * duals).sum() - (flats.T @ duals).max(axis=1).sum())
    terms = flats.shape[1] + len(flats) + duals.size + 1

    def exact() -> Fraction:
        gain = _fractions(flats).T @ _fractions(duals)
        return (_fractions(targs) * _fractions(duals)).sum() - gain.max(axis=1).sum()

    return _Estimate(value, (8 * terms * len(flats) + 1) * _U, exact)


def _witness(flats, targs, rows) -> tuple[np.ndarray | None, np.ndarray]:
    """The ``rows`` (one per reached pair) renormalized, or None if they miss by more than ``EPS_LP``; and the misses.

    The rows are substituted back over the joints ``flats`` of the reached
    pairs, and the total miss of the statistics is decided exactly: its float
    sums ``m = pairs + p k + 1`` terms (``pairs`` products and a target per
    miss, then ``p k`` misses) whose absolute values sum to less than ``6 p``,
    since every validated or renormalized row is nonnegative and sums to less
    than 2, so it is off by at most ``12 m p u`` (see :class:`_Estimate`).
    The exact miss reads every float as the ``Fraction`` it equals.
    """
    rows = rows / rows.sum(axis=1, keepdims=True)
    misses = np.abs(flats @ rows - targs)
    terms = flats.shape[1] + misses.size + 1
    total = _Estimate(
        float(misses.sum()),
        (12 * terms * len(flats) + 1) * _U,
        lambda: np.abs(_fractions(flats) @ _fractions(rows) - _fractions(targs)).sum(),
    )
    return (None if total.exceeds_eps_lp() else rows), misses


def _feasible(n: int, reached, rows, misses) -> FeasibilityVerdict:
    """Feasible verdict: pair ``reached[i]`` answers ``rows[i]``, others 1/k; ``max_residual`` of every equality."""
    table = np.full((n * n, rows.shape[1]), 1.0 / rows.shape[1])
    table[reached] = rows
    worst = max(float(np.max(np.abs(table.sum(axis=1) - 1.0))), float(misses.max()))
    return FeasibilityVerdict(True, witness=ResponseFunction(table.reshape(n, n, -1)), max_residual=worst)


def _infeasible(y, lower: float, upper: float, shortfalls) -> FeasibilityVerdict:
    """Infeasible verdict proved by ``y``: V* lies in ``[lower, upper]``, and what failed to prove follows."""
    interval = f"cannot satisfy: the minimal total violation lies in [{lower:.3e}, {upper:.3e}]"
    missed = "; ".join([interval, *shortfalls])
    return FeasibilityVerdict(False, violated_constraint=missed, certificate=y, violation_bound=lower)


def _compensation_rows(flats, targs) -> np.ndarray:
    """Rows of the compensation witness, the primal partner of the zero-cell dual, one per reached pair.

    A pair reached by several preparations answers with their posterior
    mixture ``sum_p joint_p t_p / sum_p joint_p`` of target rows, less every
    outcome that one of their targets puts at or below ``EPS_ZERO`` (the plain
    mixture if that leaves nothing).  The pairs reached by preparation ``p``
    alone share the row ``max(t_p - what the shared pairs give p, 0)``, or
    ``t_p`` if that row is all zero, and so absorb what the shared pairs got
    wrong for ``p``.
    """
    reach = flats > 0.0
    mix = flats.T @ targs / flats.sum(axis=0)[:, None]
    kept = np.where(reach.T @ (targs <= EPS_ZERO), 0.0, mix)
    rows = np.where(kept.sum(axis=1, keepdims=True) > 0.0, kept, mix)
    rows /= rows.sum(axis=1, keepdims=True)
    shared = reach.sum(axis=0) > 1
    owed = np.maximum(targs - flats[:, shared] @ rows[shared], 0.0)
    owed = np.where(owed.sum(axis=1, keepdims=True) > 0.0, owed, targs)
    rows[~shared] = owed[np.argmax(reach[:, ~shared], axis=0)]
    return rows


def feasibility(preparations, targets) -> FeasibilityVerdict:
    """Decide whether any response function reproduces the target statistics.

    Looks for ``xi(k | l1, l2) >= 0`` with pointwise sum 1 such that, for every
    preparation ``p`` and outcome ``k``,
    ``sum_pairs joint_p(l1, l2) * xi(k | l1, l2) = target_p(k)``.  The minimal
    total violation V* of the statistics equalities over all response
    functions decides, and ``EPS_LP`` bounds it for both verdicts.  Three
    steps are taken in this order, and the first proof that holds decides:

    1. The direct witness: each reached pair answers with the target row of
       the first preparation that reaches it, which is exact when all
       preparations reaching a pair expect the same row (disjoint supports,
       one preparation).  A witness holds when its total miss is at most
       ``EPS_LP``: the float sum decides unless it lies within its proven
       error of ``EPS_LP``, and then the exact miss does (:func:`_witness`).
       ``max_residual`` is its largest residual over every constraint.
    2. The LP witness, from one elastic LP, ``min 1.(s+ + s-)`` subject to
       the normalizations and ``A_stat x + s+ - s- = b_stat`` with
       ``x, s >= 0`` (see :func:`_assemble_equalities`): ``x`` holds one
       response row per reached pair, and those rows are checked as in
       step 1.  No LP is solved when PBR's zero-cell dual, -1 on target
       cells at or below ``EPS_ZERO`` and +1 elsewhere (see
       :func:`pbr_contradiction`), proves more than ``EPS_LP`` and the
       compensation witness (:func:`_compensation_rows`) misses by at most
       that bound plus ``EPS_LP``: the two pin V*, so no LP could add
       anything.  That witness proves nothing itself.
    3. The certificates, the LP's statistics duals first and then the
       zero-cell dual: the first that proves every response function misses
       the statistics by more than ``EPS_LP`` in total decides.  Its bound
       is decided as for a witness, by its float value, off it by at most a
       stated error, and by the exact ``Fraction`` when the float lies within
       that error (:func:`_certified_bound`).  ``violation_bound`` is the
       float less its error, rounded down, so it never exceeds the exact
       bound.  ``violated_constraint`` states the interval in which V* lies:
       from that bound to the total miss of the LP witness when the LP was
       solved, and of the compensation witness otherwise.  When the
       zero-cell dual decides after an LP, what the LP failed to prove
       follows.

    When neither certificate proves, the same LP is solved once more by
    HiGHS's interior-point method (``highs-ipm``), and its witness and then
    its duals are checked as in steps 2 and 3.  On skewed instances whose V*
    lies just above ``EPS_LP``, the duals of the default method prove about
    half of V*, and those of the interior-point method prove V*.  When no
    proof holds, :class:`PbrCheckError` names what failed (each solver, or
    each LP witness's miss and its certificate's bound) and what the
    zero-cell dual proved.  Near the threshold this decision and
    :func:`pbr_contradiction` can differ (see there).
    """
    flats, targs = _validate_instance(preparations, targets)
    n, k = math.isqrt(flats.shape[1]), targs.shape[1]
    # Pairs that no preparation reaches are unconstrained: they stay out of
    # every check and answer uniformly.
    reached = np.flatnonzero(np.any(flats != 0.0, axis=0))
    flats = flats[:, reached]
    rows, misses = _witness(flats, targs, targs[np.argmax(flats != 0.0, axis=0)])
    if rows is not None:
        return _feasible(n, reached, rows, misses)
    zero_y = np.where(targs <= EPS_ZERO, -1.0, 1.0).ravel()
    zero = _certified_bound(flats, targs, zero_y)
    # The total miss of the best witness computed bounds V* from above; within
    # EPS_LP of the zero-cell bound below it, it pins V* and no LP is solved.
    upper =_witness(flats, targs, _compensation_rows(flats, targs))[1].sum() if zero.exceeds_eps_lp() else math.inf
    if upper <= zero.floor() + EPS_LP:
        return _infeasible(zero_y, zero.floor(), upper, [])
    pairs = reached.size
    a_eq, b_eq = _assemble_equalities(flats, targs)
    # Slacks are priced at 1/EPS_LP, so HiGHS's absolute default tolerances
    # resolve violations far below EPS_LP.
    cost = np.concatenate([np.zeros(k * pairs), np.full(2 * targs.size, 1.0 / EPS_LP)])
    from scipy.optimize import linprog  # imported here so that only LP verdicts pay for scipy

    certificates, shortfalls = [(zero_y, zero, "the zero-cell dual")], []
    for method, name in (("highs", "LP"), ("highs-ipm", "interior-point LP")):
        res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, None), method=method)
        if res.status != 0:
            shortfalls.append(f"{name} solver failed: {res.message}")
        else:
            rows, misses = _witness(flats, targs, np.maximum(res.x[: k * pairs].reshape(k, pairs).T, 0.0))
            if rows is not None:
                return _feasible(n, reached, rows, misses)
            upper = misses.sum()
            y = np.clip(res.eqlin.marginals[pairs:] * EPS_LP, -1.0, 1.0)
            lp = f"the {name} witness misses by {upper:.3e} in total, its certificate"
            certificates.insert(0, (y, _certified_bound(flats, targs, y), lp))
        for y, bound, prover in certificates:
            if bound.exceeds_eps_lp():
                return _infeasible(y, bound.floor(), upper, shortfalls)
            shortfalls.append(f"{prover} proves only {float(bound.exact()):.3e}")
        certificates = []
    raise PbrCheckError(f"neither verdict is proved: {'; '.join(shortfalls)}")


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

    ``seed`` is a non-negative int or a ``numpy.random.SeedSequence``.
    """
    space = _require_same_space(mu_device1, mu_device2)
    if as_instance(response, ResponseFunction, "response").size != space.size:
        raise DomainError(f"response over {response.size} states, space has {space.size}")
    # The int64 outcome counts overflow at 2**63.  Counts below it are
    # accepted, and a huge one still loops over samples / _MC_BLOCK blocks.
    samples = as_int(samples, "samples", 1, 2**63)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(as_int(seed, "seed"))
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
    q, n = as_real(q, "overlap q", 0, 1), _space_size(space)
    if q == 0.0:
        if n < 2:
            raise DomainError("q = 0 needs at least 2 ontic states for disjoint point masses")
        return point_mass(space, 0), point_mass(space, n - 1)
    if n < 3:
        raise DomainError("q > 0 needs at least 3 ontic states (endpoints plus a middle block)")
    m0 = np.zeros(n)
    m0[1:-1] = q / (n - 2)
    m1 = m0.copy()
    m0[0] = m1[-1] = 1.0 - q
    return EpistemicDistribution(space, m0), EpistemicDistribution(space, m1)
