"""Property test: every closed form returns P in [0, 1] or refuses by name."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from levelcross.ddp import ddp_probability
from levelcross.errors import LevelCrossError
from levelcross.znt import glancing_double_crossing, glancing_tunneling

even_n = st.integers(min_value=1, max_value=50).map(lambda k: 2 * k)
log_alpha = st.floats(min_value=-8.0, max_value=4.0).map(lambda x: 10.0**x)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(n=even_n, alpha=log_alpha)
def test_closed_forms_return_probability_or_named_refusal(n, alpha):
    for closed_form in (ddp_probability, glancing_double_crossing, glancing_tunneling):
        try:
            p = closed_form(n, alpha)
        except (LevelCrossError, ValueError):
            continue
        assert isinstance(p, float) and not math.isnan(p)
        assert 0.0 <= p <= 1.0
