import math

import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from hahnchain.special import log_pochhammer, pochhammer, q_pochhammer


def test_pochhammer_empty_product():
    assert pochhammer(3.7, 0) == 1.0


def test_pochhammer_factorial():
    assert pochhammer(1.0, 5) == 120.0


def test_pochhammer_vanishing_factor():
    assert pochhammer(-3.0, 5) == 0.0


def test_pochhammer_rejects_negative_k():
    with pytest.raises(ValueError):
        pochhammer(1.0, -1)


@given(st.floats(min_value=-100, max_value=100), st.integers(min_value=0, max_value=40))
def test_pochhammer_recurrence_is_exact(a, k):
    assert pochhammer(a, k + 1) == pochhammer(a, k) * (a + k)


def test_log_pochhammer_values():
    assert_allclose(log_pochhammer(1.0, 5), math.log(120.0), rtol=1e-14)
    assert_allclose(log_pochhammer(0.5, 2), math.log(0.75), rtol=1e-14)
    assert log_pochhammer(2.0, 0) == 0.0


def test_log_pochhammer_rejects_nonpositive():
    with pytest.raises(ValueError):
        log_pochhammer(0.0, 3)
    with pytest.raises(ValueError):
        log_pochhammer(-1.5, 2)


@pytest.mark.parametrize("a", [0.1, 0.5, 1.0, 3.7, 12.0])
@pytest.mark.parametrize("k", [0, 1, 2, 7, 40])
def test_log_pochhammer_matches_product(a, k):
    assert_allclose(math.exp(log_pochhammer(a, k)), pochhammer(a, k), rtol=1e-12)


def test_q_pochhammer_unit_argument_vanishes():
    assert q_pochhammer(1.0, 0.5, 3) == 0.0


def test_q_pochhammer_hand_value():
    # (1 - 0.5)(1 - 0.25) by hand
    assert_allclose(q_pochhammer(0.5, 0.5, 2), 0.375, rtol=1e-15)


def test_q_pochhammer_empty_product():
    assert q_pochhammer(0.9, 0.3, 0) == 1.0


@given(st.floats(min_value=-2, max_value=2),
       st.floats(min_value=0.01, max_value=0.99),
       st.integers(min_value=0, max_value=40))
def test_q_pochhammer_recurrence_is_exact(a, q, k):
    assert q_pochhammer(a, q, k + 1) == q_pochhammer(a, q, k) * (1.0 - a * q ** k)
