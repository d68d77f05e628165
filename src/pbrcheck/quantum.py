"""Dense complex linear algebra for one- and two-qubit pure states.

Everything here is double precision over tiny dimensions (2 and 4), so the
error budgets are generous: unit norms and Gram matrices are trusted to
``EPS_NORM``, probability sums to ``EPS_PROB``.  Global phases are kept
exactly as the caller writes them; every quantity this module reports
(probabilities, Gram entries) is phase-invariant anyway.

Every scalar a caller passes to pbrcheck is read by one rule: :func:`as_int`
takes any ``numbers.Integral`` in ``[low, high)``, :func:`as_real` any
``numbers.Real`` but NaN in a closed or open interval.  Neither takes ``bool``,
and each refusal is a :class:`DomainError` that names the parameter.  Every
array is read by :func:`as_array`, which refuses by name, as entries, what
those refuse as scalars (strings, even numeric ones, and ``bool``), and what
is no rectangular array of numbers (``None``, dicts, ragged nesting).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

#: Tolerance for unit norms and orthonormality checks.
EPS_NORM = 1e-10
#: Tolerance for probability sums and zero flags.
EPS_PROB = 1e-9
#: Squared norms at or below this count as the zero vector, probabilities down to minus this as dust.
EPS_ZERO = 1e-12


def as_distributions(values, what: str, sum_tol: float = EPS_PROB) -> np.ndarray:
    """Read-only float64 copy of ``values`` whose last-axis rows must be probability distributions.

    Entries must be finite and at least ``-EPS_ZERO`` (dust below 0 becomes 0); rows must sum to 1 within ``sum_tol``.
    """
    p = as_array(values, what)
    if not np.isfinite(p).all():
        raise DomainError(f"each {what} must be finite")
    if (p < -EPS_ZERO).any():
        raise DomainError(f"each {what} must be nonnegative, got min {float(p.min())!r}")
    p = np.maximum(p, 0.0)  # a new array, so the caller's is never written
    with np.errstate(over="ignore"):  # entries near the float limit sum to inf, which is refused
        off = np.abs(p.sum(axis=-1) - 1.0)
    if (off > sum_tol).any():
        worst = float(off.max())
        raise DomainError(f"each {what} must be normalized to within {sum_tol!r}, but a sum is off 1 by {worst!r}")
    p.setflags(write=False)
    return p


def as_array(values, what: str, dtype=np.float64) -> np.ndarray:
    """``values`` as a ``dtype`` array, not copied when it is one already.

    Only numbers that cast to ``dtype`` within their kind are read; ``bool``,
    strings and objects are refused, also beside numbers in a list or tuple,
    and so is what numpy cannot shape into an array (ragged nesting).
    """
    try:
        array = np.asarray(values)
        if array.dtype != dtype:
            if array.dtype.kind == "b" or not np.can_cast(array.dtype, dtype, "same_kind"):
                raise TypeError(f"got {array.dtype} entries")
            array = array.astype(dtype)
        if isinstance(values, (list, tuple)) and _holds_bool(values):
            raise TypeError("got bool entries")
    except (TypeError, ValueError) as error:
        raise DomainError(f"{what} must be a rectangular array of numbers ({error})") from None
    return array


def _holds_bool(values) -> bool:
    """Whether the list or tuple ``values``, or one nested in it, holds a ``bool``, a numpy one or a ``bool`` array."""
    return any(
        _holds_bool(v) if isinstance(v, (list, tuple)) else isinstance(v, bool) or getattr(v, "dtype", None) == bool
        for v in values
    )


def as_instance(value, kind: type, what: str):
    """``value``, refused unless it is a ``kind``."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise DomainError(f"{what} must be {article} {kind.__name__}, got {value!r}")
    return value


def as_int(value, what: str, low: int = 0, high: float = math.inf) -> int:
    """``value`` as an ``int`` in ``[low, high)``: any ``numbers.Integral`` but ``bool``."""
    number = int(value) if isinstance(value, numbers.Integral) and not isinstance(value, bool) else math.nan
    if not low <= number < high:
        raise DomainError(f"{what} must be an integer in [{low}, {high}), got {value!r}")
    return number


def as_real(value, what: str, low: float, high: float, closed: bool = True) -> float:
    """``value`` as a ``float`` in ``[low, high]`` (open if not ``closed``): any ``numbers.Real`` but ``bool``."""
    try:
        number = float(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else math.nan
    except OverflowError:  # an int or Fraction beyond every float
        number = math.nan
    if not (low <= number <= high if closed else low < number < high):
        interval = f"[{low}, {high}]" if closed else f"({low}, {high})"
        raise DomainError(f"{what} must be a real number in {interval}, got {value!r}")
    return number


def as_state(values) -> np.ndarray:
    """Coerce ``values`` to a 1-D complex128 amplitude vector.

    Rejects empty, multi-dimensional and non-finite input.
    """
    v = as_array(values, "amplitude vector", np.complex128)
    if v.ndim != 1 or v.size < 1:
        raise DomainError(f"expected a 1-D amplitude vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError("amplitudes must be finite (no NaN/Inf)")
    return v


def tensor(a, b) -> np.ndarray:
    """Tensor product ``a (x) b`` of two amplitude vectors.

    The left factor is the first subsystem: the amplitude at index
    ``i * dim(b) + j`` is ``a[i] * b[j]``.  A product beyond float64 is refused.
    """
    with np.errstate(over="ignore"):
        product = np.kron(as_state(a), as_state(b))
    if not np.all(np.isfinite(product)):
        raise DomainError("the tensor product overflows")
    return product


def inner(a, b) -> complex:
    """Inner product <a|b>, conjugating the left argument."""
    va, vb = as_state(a), as_state(b)
    if va.size != vb.size:
        raise DomainError(f"dimension mismatch: {va.size} vs {vb.size}")
    return complex(np.vdot(va, vb))


def is_normalized(v) -> bool:
    """True iff ``|<v|v> - 1| <= EPS_NORM``."""
    v = as_state(v)
    return bool(abs(np.vdot(v, v).real - 1.0) <= EPS_NORM)


def normalize(v) -> np.ndarray:
    """Return ``v`` scaled to unit norm, direction and phases unchanged."""
    v = as_state(v)
    norm_sq = float(np.vdot(v, v).real)
    if not EPS_ZERO < norm_sq < math.inf:
        raise DomainError(f"cannot normalize a vector with squared norm {norm_sq:.3e}")
    return v / np.sqrt(norm_sq)


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Ordered measurement basis; ``outcomes`` rows are outcome kets.

    Construction refuses what is no basis: the outcomes must be as many as
    the dimensions, finite, and orthonormal within ``EPS_NORM``
    (:func:`is_orthonormal_basis`).  Bases compare by identity.
    """

    outcomes: np.ndarray

    def __post_init__(self):
        m = as_array(self.outcomes, "basis outcomes", np.complex128).copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DomainError(f"a complete basis needs dim outcome vectors of length dim, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise DomainError("basis amplitudes must be finite")
        if not is_orthonormal_basis(m):
            raise DomainError("measurement basis is not orthonormal within EPS_NORM")
        m.setflags(write=False)
        object.__setattr__(self, "outcomes", m)

    @property
    def dim(self) -> int:
        return self.outcomes.shape[0]

    def gram(self) -> np.ndarray:
        """Gram matrix G[i, j] = <outcome_i|outcome_j>."""
        return self.outcomes.conj() @ self.outcomes.T


def is_orthonormal_basis(basis) -> bool:
    """True iff the Gram matrix of the outcome set is the identity within ``EPS_NORM``.

    Accepts a :class:`MeasurementBasis` or a plain ``(k, dim)`` array of
    outcome kets (the set need not be complete for the predicate itself).
    """
    m = basis.outcomes if isinstance(basis, MeasurementBasis) else as_array(basis, "outcome kets", np.complex128)
    if m.ndim != 2 or m.shape[0] < 1:
        raise DomainError(f"expected a 2-D array of outcome kets, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing Gram matrix is not the identity
        gram = m.conj() @ m.T
    return bool(np.max(np.abs(gram - np.eye(m.shape[0]))) <= EPS_NORM)


def born_distribution(state, basis) -> np.ndarray:
    """Born-rule outcome probabilities ``|<outcome_k|state>|^2``.

    ``state`` must be unit-norm and ``basis`` a :class:`MeasurementBasis`, or
    the outcome kets of one, of matching dimension.  The returned float array is
    unclipped; display layers decide what counts as an exact zero.
    """
    v = as_state(state)
    if not isinstance(basis, MeasurementBasis):
        basis = MeasurementBasis(basis)
    if basis.dim != v.size:
        raise DomainError(f"state dim {v.size} does not match basis dim {basis.dim}")
    if not is_normalized(v):
        raise DomainError("state must be unit-norm")
    amplitudes = basis.outcomes.conj() @ v
    probs = np.abs(amplitudes) ** 2
    if abs(probs.sum() - 1.0) > EPS_PROB:
        raise DomainError(f"outcome probabilities sum to {float(probs.sum())!r}, not 1")
    return probs
