"""Property tests: the pull-reply loss scan against a full rescan.

``_PullState`` keeps a ``first_unreceived`` cursor and per-block received
counts so that each pull reply costs O(1) amortised bookkeeping.  The
reference below is the original quadratic scan: every chunk from 0 up to
the arriving one, and ``all()`` over a block's received flags.  Random
arrival orders and request stamps (including never-requested chunks,
chunks re-stamped after an overlap miss, and the fallback timer's forced
``-(10**18)`` stamp) must give identical answers after every reply.
"""

from hypothesis import given, settings, strategies as st

from repro.openmx.driver import OpenMXDriver, _PullState

FORCED = -(10**18)  # the fallback timer's "re-request now" stamp


def full_scan_lost(state: _PullState, chunk_idx: int) -> list[int]:
    req_time = state.last_request_ns[chunk_idx]
    return [
        c
        for c in range(min(chunk_idx, state.requested_chunks))
        if not state.received[c] and state.last_request_ns[c] <= req_time
    ]


def make_state(nchunks: int, block_chunks: int) -> _PullState:
    return _PullState(
        handle=1, region=None, src_board="b", src_endpoint=0,
        sender_region=0, sender_seq=0, length=nchunks * 8, nchunks=nchunks,
        chunk_bytes=8, block_chunks=block_chunks,
    )


@st.composite
def pull_histories(draw):
    nchunks = draw(st.integers(min_value=1, max_value=40))
    block_chunks = draw(st.integers(min_value=1, max_value=8))
    stamps = draw(st.lists(
        st.one_of(st.just(-1), st.just(FORCED),
                  st.integers(min_value=0, max_value=50)),
        min_size=nchunks, max_size=nchunks,
    ))
    requested = draw(st.integers(min_value=0, max_value=nchunks))
    # Replies arrive in any order; some chunks never arrive (lost), and
    # between replies the receiver may re-stamp a chunk, as a re-request
    # after an overlap miss or a timer round does.
    arrivals = draw(st.permutations(range(nchunks)))
    arrivals = arrivals[: draw(st.integers(min_value=0, max_value=nchunks))]
    restamps = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=nchunks - 1),
                  st.one_of(st.just(FORCED),
                            st.integers(min_value=0, max_value=100))),
        max_size=len(arrivals),
    ))
    return nchunks, block_chunks, stamps, requested, arrivals, restamps


@settings(max_examples=300, deadline=None)
@given(history=pull_histories())
def test_cursor_scan_matches_full_scan(history):
    nchunks, block_chunks, stamps, requested, arrivals, restamps = history
    state = make_state(nchunks, block_chunks)
    state.last_request_ns[:] = stamps
    state.requested_chunks = requested
    for step, chunk in enumerate(arrivals):
        if step < len(restamps):
            c, stamp = restamps[step]
            state.last_request_ns[c] = stamp
        state.mark_received(chunk)
        assert (OpenMXDriver._evidently_lost(state, chunk)
                == full_scan_lost(state, chunk))
        cursor = state.first_unreceived
        assert all(state.received[:cursor])
        assert cursor == nchunks or not state.received[cursor]
        # The fallback timer's scan from the cursor misses nothing.
        assert ([c for c in range(cursor, requested) if not state.received[c]]
                == [c for c in range(requested) if not state.received[c]])
        for block in range(state.nblocks):
            lo = block * block_chunks
            hi = min(lo + block_chunks, nchunks)
            assert state.block_complete(block) == all(state.received[lo:hi])
