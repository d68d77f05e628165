"""States, bases and probability tables for the two-device preparation scenarios.

Two independent devices each emit ``|0>`` or ``|+>``.  When the emitted state
is announced (the distinguishable setup of the PBR argument) the pair arrives
as one of four product states, and the entangled four-outcome measurement
built here assigns each product state one outcome it can never produce.  When
the devices recombine both paths without announcing (a Mach-Zehnder style
preparation) each emits ``normalize(|0> + |+>)`` instead, and every outcome
becomes possible.

A scenario is its Born :class:`ProbabilityTable`: one row per preparation
``kets[i] (x) kets[j]``, row-major, against the xi outcomes.  One builder makes
it from the device kets for :func:`pbr_scenario`, :func:`mz_scenario` and
:func:`theta_table`, and :func:`device_pairs` wires the devices' distributions
in the same row order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError
from .quantum import (
    EPS_PROB,
    MeasurementBasis,
    as_array,
    as_distributions,
    as_instance,
    as_real,
    born_distribution,
    inner,
    normalize,
    tensor,
)

_SQRT2 = math.sqrt(2.0)

_KETS = {
    "0": np.array([1.0, 0.0], dtype=np.complex128),
    "1": np.array([0.0, 1.0], dtype=np.complex128),
    "+": np.array([1.0, 1.0], dtype=np.complex128) / _SQRT2,
    "-": np.array([1.0, -1.0], dtype=np.complex128) / _SQRT2,
}

KET_LABELS = ("0", "1", "+", "-")

#: The four product preparations, in the fixed row order used everywhere.
PREPARATIONS = ("00", "0+", "+0", "++")

#: Outcome column labels of the entangled measurement.
XI_LABELS = ("xi1", "xi2", "xi3", "xi4")

#: (preparation row, outcome column) pairs that carry structural zeros:
#: |00> never yields xi1, |0+> never xi2, |+0> never xi3, |++> never xi4.
ZERO_PAIRING = ((0, 0), (1, 1), (2, 2), (3, 3))

_PBR_LABELS = tuple(f"|{p}>" for p in PREPARATIONS)


def ket(label: str) -> np.ndarray:
    """Single-qubit ket for one of the labels ``"0" "1" "+" "-"``.

    Sign convention: ``|+> = (|0> + |1>)/sqrt(2)``, ``|-> = (|0> - |1>)/sqrt(2)``.
    """
    try:
        return _KETS[label].copy()
    except (KeyError, TypeError):  # TypeError: an unhashable label
        raise DomainError(f"unknown ket label {label!r}; expected one of {KET_LABELS}") from None


def product_preparation(label: str) -> np.ndarray:
    """Two-device product state for a label like ``"0+"`` (device 1 then device 2)."""
    if not isinstance(label, str) or label not in PREPARATIONS:
        raise DomainError(f"preparation label must be two characters from '0'/'+', got {label!r}")
    return tensor(ket(label[0]), ket(label[1]))


def xi_basis() -> MeasurementBasis:
    """The four-outcome entangled measurement basis.

    xi1 = (|01> + |10>)/sqrt(2)
    xi2 = (|0-> + |1+>)/sqrt(2)
    xi3 = (|+1> + |-0>)/sqrt(2)
    xi4 = (|+-> + |-+>)/sqrt(2)
    """
    xi1 = (tensor(ket("0"), ket("1")) + tensor(ket("1"), ket("0"))) / _SQRT2
    xi2 = (tensor(ket("0"), ket("-")) + tensor(ket("1"), ket("+"))) / _SQRT2
    xi3 = (tensor(ket("+"), ket("1")) + tensor(ket("-"), ket("0"))) / _SQRT2
    xi4 = (tensor(ket("+"), ket("-")) + tensor(ket("-"), ket("+"))) / _SQRT2
    return MeasurementBasis(np.array([xi1, xi2, xi3, xi4]))


def payload_field(payload, key: str, kind: type = object):
    """``payload[key]`` of a document read back, refused unless ``payload`` is a dict holding a ``kind`` there."""
    if not isinstance(payload, dict) or key not in payload:
        raise DomainError(f"document has no {key!r}")
    if not isinstance(payload[key], kind):
        raise DomainError(f"{key} must be a {kind.__name__}, got {payload[key]!r}")
    return payload[key]


def _labels(labels, what: str) -> tuple[str, ...]:
    """``labels`` as a tuple: a list or tuple of ``str``, never one ``str`` read as its characters."""
    if not isinstance(labels, (list, tuple)) or not all(isinstance(label, str) for label in labels):
        raise DomainError(f"{what} must be a list or tuple of str, got {labels!r}")
    return tuple(labels)


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Preparation-vs-outcome probability matrix with zero flags.

    Rows are checked by :func:`as_distributions` whatever the display threshold,
    so dust is clipped to 0 and nothing is rounded.  Entries at or below
    ``zero_threshold`` are flagged and rendered as exact zeros by the display layers.
    """

    row_labels: tuple[str, ...]
    column_labels: tuple[str, ...]
    probabilities: np.ndarray
    zero_threshold: float = EPS_PROB
    title: str = ""

    def __post_init__(self):
        probs = as_array(self.probabilities, "probabilities")
        rows, cols = _labels(self.row_labels, "row_labels"), _labels(self.column_labels, "column_labels")
        if not isinstance(self.title, str):
            raise DomainError(f"title must be a str, got {self.title!r}")
        if probs.ndim != 2 or probs.shape != (len(rows), len(cols)):
            raise DomainError(
                f"probability matrix shape {probs.shape} does not match "
                f"{len(rows)} row / {len(cols)} column labels"
            )
        threshold = as_real(self.zero_threshold, "zero_threshold", 0, math.inf, closed=False)
        object.__setattr__(self, "zero_threshold", threshold)
        object.__setattr__(self, "probabilities", as_distributions(probs, "table row"))
        object.__setattr__(self, "row_labels", rows)
        object.__setattr__(self, "column_labels", cols)

    @property
    def zero_flags(self) -> np.ndarray:
        """Boolean matrix marking entries at or below the display threshold."""
        return self.probabilities <= self.zero_threshold

    @property
    def compatible(self) -> bool:
        """True iff no entry is flagged zero (every outcome reachable from every row)."""
        return not bool(self.zero_flags.any())

    def row_sums(self) -> np.ndarray:
        return self.probabilities.sum(axis=1)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "row_labels": list(self.row_labels),
            "column_labels": list(self.column_labels),
            "probabilities": self.probabilities.tolist(),
            "zero_threshold": self.zero_threshold,
            "zero_flags": self.zero_flags.tolist(),
            "row_sums": self.row_sums().tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ProbabilityTable":
        """Rebuild a table from :meth:`to_dict` output, revalidating invariants.

        Values pass through unconverted, so the constructor refuses what it
        would refuse from a caller.  The redundant ``zero_flags`` (lists of
        ``bool``) and ``row_sums`` (numbers, read by :func:`as_array`) must
        match what the rebuilt table computes, so a corrupted document fails
        loudly.
        """
        table = cls(
            row_labels=payload_field(payload, "row_labels", list),
            column_labels=payload_field(payload, "column_labels", list),
            probabilities=payload_field(payload, "probabilities", list),
            zero_threshold=payload_field(payload, "zero_threshold"),
            title=payload_field(payload, "title"),
        )
        flags = payload_field(payload, "zero_flags", list)
        if not all(isinstance(row, list) and all(isinstance(f, bool) for f in row) for row in flags):
            raise DomainError(f"zero_flags must be a list of lists of bool, got {flags!r}")
        if flags != table.zero_flags.tolist():
            raise DomainError("serialized zero_flags do not match the probabilities")
        if not np.array_equal(as_array(payload_field(payload, "row_sums", list), "row_sums"), table.row_sums()):
            raise DomainError("serialized row_sums do not match the probabilities")
        return table


def zero_outcome_table(zero_threshold: float = EPS_PROB) -> ProbabilityTable:
    """4x4 Born table of the product preparations against the xi basis.

    Its zero flags are expected to form exactly the pattern in
    :data:`ZERO_PAIRING` (the diagonal).
    """
    title = "product preparations vs xi basis"
    return ProbabilityTable(_PBR_LABELS, XI_LABELS, pbr_target_rows(), zero_threshold, title)


def pbr_target_rows() -> np.ndarray:
    """The four xi-basis Born rows of the product preparations, as a (4, 4) float array."""
    return pbr_scenario().probabilities


def device_pairs(*distributions) -> list[tuple]:
    """The (device 1, device 2) distributions of every preparation, in the row order of :func:`_products`."""
    return list(itertools.product(distributions, repeat=2))


def _products(kets, labels) -> ProbabilityTable:
    """Born table of the products ``kets[i] (x) kets[j]``, row-major, against the xi basis."""
    basis = xi_basis()
    rows = [born_distribution(tensor(a, b), basis) for a, b in device_pairs(*kets)]
    return ProbabilityTable(labels, XI_LABELS, rows)


def pbr_scenario() -> ProbabilityTable:
    """The announced product preparations; a device showing ``0`` uses distribution 0, ``+`` uses 1."""
    return _products([ket("0"), ket("+")], _PBR_LABELS)


@dataclass(frozen=True)
class ThetaPair:
    """The symmetric pair cos(t/2)|0> +/- sin(t/2)|1> that tunes overlap, derived from and compared by ``theta``."""

    theta: float
    psi0: np.ndarray = field(init=False, repr=False, compare=False)
    psi1: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        theta = as_real(self.theta, "theta", 0, math.pi, closed=False)
        c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "psi0", np.array([c, s], dtype=np.complex128))
        object.__setattr__(self, "psi1", np.array([c, -s], dtype=np.complex128))

    @property
    def overlap(self) -> float:
        """<psi0|psi1>, real for this family and equal to cos(theta)."""
        return inner(self.psi0, self.psi1).real


def theta_pair(theta: float) -> ThetaPair:
    """The pair for ``0 < theta < pi``: ``ThetaPair(theta)``."""
    return ThetaPair(theta)


def theta_table(pair: ThetaPair, zero_threshold: float = EPS_PROB) -> ProbabilityTable:
    """Born table of the four ordered products psi_i (x) psi_j against the xi basis.

    No zero pattern is asserted here; the products are measured in the xi
    basis, the one measurement of both scenarios.
    """
    pair = as_instance(pair, ThetaPair, "pair")
    table = _products([pair.psi0, pair.psi1], [f"psi{i}*psi{j}" for i in range(2) for j in range(2)])
    title = f"theta-pair products vs measurement basis (theta={pair.theta:.12g})"
    return replace(table, zero_threshold=zero_threshold, title=title)


def mz_preparation_state() -> np.ndarray:
    """Output ket of one recombining (which-way-free) device: normalize(|0> + |+>).

    Equals cos(pi/8)|0> + sin(pi/8)|1>, the Bloch bisector of |0> and |+>.
    """
    return normalize(ket("0") + ket("+"))


def mz_normalization_sq() -> float:
    """Squared normalization constant of |0> + |+>, i.e. 1/<u|u> for u = |0> + |+>."""
    u = ket("0") + ket("+")
    return 1.0 / float(np.vdot(u, u).real)


def mz_joint_state() -> np.ndarray:
    """Joint state of two independent which-way-free devices, psi (x) psi."""
    psi = mz_preparation_state()
    return tensor(psi, psi)


def mz_scenario() -> ProbabilityTable:
    """The unannounced which-way-free preparation: both devices draw from one distribution."""
    return _products([mz_preparation_state()], ("Psi",))
