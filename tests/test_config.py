import contextvars
import sys
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from udisc.config import DEFAULT_ENTRY_CAP, check_factorial, check_tensor_square, entry_cap, resolve_cap
from udisc.errors import CapExceeded


@given(m=st.integers(1, 2**20), k=st.integers(1, 40), cap=st.integers(2**8, 2**40))
def test_tensor_square_refuses_exactly_the_squares_over_budget(m, k, cap):
    with entry_cap(cap):
        if m ** (2 * k) > cap:
            with pytest.raises(CapExceeded, match=f"exceeds the cap of {cap}"):
                check_tensor_square(m, k, "element")
        else:
            assert check_tensor_square(m, k, "element") == m**k


def test_a_thread_reads_the_budget_only_through_a_copied_context(monkeypatch):
    """entry_cap's budget lives in a ContextVar: a thread started inside the block reads
    the default (a new thread starts from an empty context), and one that runs its work
    in contextvars.copy_context() reads the block's budget."""
    monkeypatch.delenv("UDISC_CAP", raising=False)
    seen = {}

    def read(key):
        seen[key] = resolve_cap()

    with entry_cap(10**12):
        threads = [threading.Thread(target=read, args=("plain",)),
                   threading.Thread(target=contextvars.copy_context().run, args=(read, "copied"))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert resolve_cap() == 10**12
    inherited = getattr(sys.flags, "thread_inherit_context", False)
    assert seen == {"plain": 10**12 if inherited else DEFAULT_ENTRY_CAP, "copied": 10**12}
    assert resolve_cap() == DEFAULT_ENTRY_CAP


def test_check_factorial_sizes_the_product_before_forming_it():
    assert check_factorial(4, 3, "coefficients") == 24
    with entry_cap(2**8):
        assert check_factorial(5, 2, "coefficients") == 120  # 240 entries
        with pytest.raises(CapExceeded, match=r"^coefficients with at least 360 complex entries exceeds the cap of 256$"):
            check_factorial(5, 3, "coefficients")
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match=r"^coefficients with at least \d+ complex entries"):
            check_factorial(10**9, 1, "coefficients")
        assert time.perf_counter() - start < 1.0
