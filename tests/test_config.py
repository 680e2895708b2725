import pytest
from hypothesis import given
from hypothesis import strategies as st

from udisc.config import check_tensor_square, entry_cap
from udisc.errors import CapExceeded


@given(m=st.integers(1, 2**20), k=st.integers(1, 40), cap=st.integers(2**8, 2**40))
def test_tensor_square_refuses_exactly_the_squares_over_budget(m, k, cap):
    with entry_cap(cap):
        if m ** (2 * k) > cap:
            with pytest.raises(CapExceeded, match=f"exceeds the cap of {cap}"):
                check_tensor_square(m, k, "element")
        else:
            assert check_tensor_square(m, k, "element") == m**k
