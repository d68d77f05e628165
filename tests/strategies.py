"""Hypothesis strategies for edge inputs shared by the sampler and LP tests."""

import math

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from pbrcheck import EPS_PROB

#: How far a drawn sum may miss 1: just inside what validation accepts.
OFF = 0.99 * EPS_PROB
#: An entry is zero, mass dust on either side of EPS_ZERO, or a real mass.
ENTRY = st.one_of(st.sampled_from([0.0, 1e-13, 1e-11]), st.floats(0.05, 1.0))
#: A row entry is non-finite, negative beyond or within the dust bound, zero, dust, or a real mass.
ROW_ENTRY = st.one_of(st.sampled_from([math.nan, math.inf, -1e-11, -1e-13, 0.0, 1e-13]), st.floats(0.05, 1.0))


@st.composite
def distributions(draw, size):
    """Mass with zeros and dust at 1e-13 and 1e-11, its sum off 1 by up to EPS_PROB."""
    mass = np.array(draw(st.lists(ENTRY, min_size=size, max_size=size)))
    big = mass >= 0.05
    assume(big.any())
    mass[big] *= (1.0 - mass[~big].sum()) / mass[big].sum()
    return mass * (1.0 + draw(st.floats(-OFF, OFF)))


@st.composite
def probability_rows(draw):
    """1 to 6 row entries; the real masses are scaled so that the finite entries
    sum to 1, then one of them is moved by up to 2 * EPS_PROB."""
    row = np.array(draw(st.lists(ROW_ENTRY, min_size=1, max_size=6)))
    big = np.isfinite(row) & (row >= 0.05)
    assume(big.any())
    row[big] *= (1.0 - row[np.isfinite(row) & ~big].sum()) / row[big].sum()
    row[np.argmax(big)] += draw(st.floats(-2 * EPS_PROB, 2 * EPS_PROB))
    return row


#: What a JSON document can hold: None, bool, numbers, strings (numeric ones too), and mixed or ragged lists and
#: dicts of them.  Integers stay small, so that a size read from them allocates a few kB at most.
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2, 9),
        st.floats(),
        st.sampled_from(["1", "0.5", "0", "+", "0+"]),
        st.text(max_size=3),
    ),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=16,
)
