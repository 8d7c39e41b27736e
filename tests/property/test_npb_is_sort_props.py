"""The NPB IS counting sort lands the bytes of the stable-argsort gather."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.workloads.npb_is import sorted_payload


def argsort_payload(keys: np.ndarray, size: int, chunk_keys: int) -> bytes:
    """The send payload as IS built it before the counting sort."""
    return keys[np.argsort(keys, kind="stable")][: size * chunk_keys].tobytes()


@st.composite
def rank_keys(draw):
    size = draw(st.integers(min_value=1, max_value=8))
    key_range = size * 1000
    # A handful of distinct values leaves most buckets empty and repeats
    # keys; the full range exercises the max key size*1000-1.
    pool = draw(st.one_of(
        st.just(list(range(key_range))),
        st.lists(st.integers(0, key_range - 1), min_size=1, max_size=4),
        st.just([key_range - 1]),
    ))
    keys = draw(st.lists(st.sampled_from(pool), max_size=600))
    return size, np.array(keys, dtype=np.uint32)


@settings(max_examples=200, deadline=None)
@given(rank_keys())
@example((4, np.full(403, 7, dtype=np.uint32)))       # all equal, 403 % 4 != 0
@example((3, np.array([2999, 0, 2999, 1500, 0], dtype=np.uint32)))
@example((2, np.array([], dtype=np.uint32)))
def test_counting_sort_matches_stable_argsort(case):
    size, keys = case
    chunk_keys = len(keys) // size
    got = sorted_payload(keys, size * 1000, size * chunk_keys)
    assert got == argsort_payload(keys, size, chunk_keys)
