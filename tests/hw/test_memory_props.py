"""Property tests: the lazy frame allocator against the eager free list.

``PhysicalMemory`` hands out never-used frames from a high-water counter
and reuses freed frames LIFO.  The reference model below is the eager
allocator it replaced: a descending list of every pfn, popped from the
end, with freed pfns pushed back on top.  Both must produce the same pfn
for every allocation, the same free/used counts after every step, and run
out of memory at exactly the same step.
"""

import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.hw import PAGE_SIZE, OutOfMemory, PhysicalMemory
from repro.util.units import GIB


class EagerFreeList:
    """Reference model: every free pfn listed up front, lowest on top."""

    def __init__(self, nframes: int):
        self.nframes = nframes
        self.free_pfns = list(range(nframes - 1, -1, -1))
        self.map_count: dict[int, int] = {}

    @property
    def free_frames(self) -> int:
        return len(self.free_pfns)

    @property
    def used_frames(self) -> int:
        return self.nframes - len(self.free_pfns)

    def allocate(self) -> int:
        if not self.free_pfns:
            raise OutOfMemory("reference model exhausted")
        pfn = self.free_pfns.pop()
        self.map_count[pfn] = 1
        return pfn

    def share(self, pfn: int) -> None:
        self.map_count[pfn] += 1

    def free(self, pfn: int) -> None:
        self.map_count[pfn] -= 1
        if self.map_count[pfn] == 0:
            del self.map_count[pfn]
            self.free_pfns.append(pfn)


OPS = st.lists(
    st.tuples(st.sampled_from(["alloc", "alloc", "free", "share"]),
              st.integers(min_value=0, max_value=63)),
    max_size=120,
)


@settings(max_examples=200, deadline=None)
@given(nframes=st.integers(min_value=1, max_value=12), ops=OPS)
def test_lazy_allocator_matches_eager_free_list(nframes, ops):
    mem = PhysicalMemory(nframes * PAGE_SIZE)
    ref = EagerFreeList(nframes)
    live = []  # one entry per mapping reference: the Frame it holds
    for step, (kind, pick) in enumerate(ops):
        if kind == "alloc":
            try:
                expected = ref.allocate()
            except OutOfMemory:
                expected = None
            try:
                frame = mem.allocate()
            except OutOfMemory:
                assert expected is None, f"step {step}: early OutOfMemory"
            else:
                assert frame.pfn == expected, f"step {step}"
                live.append(frame)
        elif live:
            frame = live[pick % len(live)]
            if kind == "share":
                mem.share(frame)
                ref.share(frame.pfn)
                live.append(frame)
            else:
                live.remove(frame)
                mem.free(frame)
                ref.free(frame.pfn)
        assert mem.free_frames == ref.free_frames, f"step {step}"
        assert mem.used_frames == ref.used_frames, f"step {step}"
    assert sorted({f.pfn for f in live}) == sorted(ref.map_count)
    assert {f.pfn for f in mem.iter_used()} == set(ref.map_count)


def test_large_host_costs_what_it_touches():
    tracemalloc.start()
    try:
        mem = PhysicalMemory(2 * GIB)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mem.free_frames == 2 * GIB // PAGE_SIZE
    assert peak < 64 * 1024, f"PhysicalMemory(2 GiB) peaked at {peak} B"
