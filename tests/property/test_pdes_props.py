"""Property-based twin runs: serial vs an arbitrary partition, byte-identical.

The named strategies (block, stripe, affinity) are three points in the
space of partitions.  The coordinator's contract holds for every point:
hand :func:`~repro.sim.pdes.run_partitioned` *any* assignment of hosts to
shards — shards of uneven size, interleaved host ids, a host alone on its
shard — and the full Open-MX stack must reproduce the serial end state to
the byte, with the same conservative window schedule.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster.builder import ShardPlan
from repro.sim.openmx_shard import OpenmxParams, _OpenmxFactory, run_openmx
from repro.sim.pdes import SeededFaultPlan, run_partitioned

_FAULTS = st.one_of(
    st.none(),
    st.builds(
        SeededFaultPlan,
        seed=st.integers(min_value=0, max_value=2**32),
        drop_per_mille=st.integers(min_value=0, max_value=120),
        dup_per_mille=st.integers(min_value=0, max_value=120),
        delay_per_mille=st.integers(min_value=0, max_value=200),
        delay_quantum_ns=st.sampled_from([1, 1_000, 1_001, 50_000]),
        max_delay_quanta=st.integers(min_value=1, max_value=8),
    ),
)

_PARAMS = st.builds(
    OpenmxParams,
    nhosts=st.integers(min_value=2, max_value=5),
    rounds=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32),
    latency_ns=st.sampled_from([5_000, 20_000, 120_000]),
    fault=_FAULTS,
)


@st.composite
def _twin(draw):
    """A scenario plus an arbitrary plan: shuffle the hosts, then cut the
    order into 2..3 non-empty shards at drawn points."""
    params = draw(_PARAMS)
    order = draw(st.permutations(range(params.nhosts)))
    nshards = draw(st.integers(min_value=2, max_value=min(3, params.nhosts)))
    cuts = sorted(draw(st.lists(
        st.integers(min_value=1, max_value=params.nhosts - 1),
        min_size=nshards - 1, max_size=nshards - 1, unique=True)))
    bounds = [0, *cuts, params.nhosts]
    shards = tuple(tuple(sorted(order[a:b]))
                   for a, b in zip(bounds, bounds[1:]))
    return params, ShardPlan(nhosts=params.nhosts, shards=shards)


@settings(max_examples=12, deadline=None)
@given(twin=_twin())
def test_sharded_twin_run_matches_serial(twin):
    params, plan = twin
    serial = run_openmx(params, 1, mode="inline")
    sharded = run_partitioned(_OpenmxFactory(params), plan,
                              lookahead_ns=params.latency_ns, mode="inline")
    assert sharded["state"] == serial["state"]
    # The conservative window schedule itself is a pure function of global
    # event times, so it cannot depend on the partition either.
    assert sharded["stats"]["windows"] == serial["stats"]["windows"]
    assert sharded["stats"]["advance_ns"] == serial["stats"]["advance_ns"]
