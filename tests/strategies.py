"""Hypothesis strategies for edge inputs shared by the sampler and LP tests."""

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from pbrcheck import EPS_PROB

#: How far a drawn sum may miss 1: just inside what validation accepts.
OFF = 0.99 * EPS_PROB
#: An entry is zero, mass dust on either side of EPS_ZERO, or a real mass.
ENTRY = st.one_of(st.sampled_from([0.0, 1e-13, 1e-11]), st.floats(0.05, 1.0))


@st.composite
def distributions(draw, size):
    """Mass with zeros and dust at 1e-13 and 1e-11, its sum off 1 by up to EPS_PROB."""
    mass = np.array(draw(st.lists(ENTRY, min_size=size, max_size=size)))
    big = mass >= 0.05
    assume(big.any())
    mass[big] *= (1.0 - mass[~big].sum()) / mass[big].sum()
    return mass * (1.0 + draw(st.floats(-OFF, OFF)))
