"""Frozen pre-index VM layer, for interleaved A/B benchmarking.

This module preserves the seed implementations of the VM-layer pieces the
indexed-lookup change rewrote:

* ``SeedAddressSpace`` — ``find_vma`` walks every VMA, ``resident_pages``
  walks every page of the queried range, ``munmap`` scans all VMAs for
  victims, ``read``/``write`` re-fault page by page;
* ``SeedUserRegion`` / ``seed_segments_pages`` — ``_locate`` (and with it
  ``pages_needed`` / ``covers``, the per-packet watermark test) scans the
  segment list linearly; ``segments_pages`` appends page VAs one by one;
* ``SeedLinearRegionIndex`` — the scan-all-regions endpoint notifier
  dispatch: every invalidation tests every declared region's every segment;
* ``SeedPinService`` — ``pin_user_pages`` charges the core once per page
  (one heap event + one core acquisition per pinned page) even when the
  core is uncontended and nothing can observe the intermediate instants.

``python -m repro.sim.bench --ab benchmarks/vm_seed_reference.py vm_churn`` builds
the ``vm_churn`` scenario on this stack and on the current one, strictly
interleaved, and refuses to report a speedup unless both simulations end in
exactly the same state (same final clock, same fault/pin/invalidation
counters, same data digest) — the optimization contract: better asymptotics,
identical simulated behavior.

Copied from the tree as of the PR base commit; do not "improve" this file.
"""

from __future__ import annotations

from repro.hw.memory import PAGE_SIZE, Frame, PhysicalMemory
from repro.hw.cpu import PRIO_KERNEL, CpuCore
from repro.kernel.address_space import BadAddress, Vma, page_align, page_count
from repro.kernel.mmu_notifier import MMUNotifierChain
from repro.hw.memory import OutOfMemory
from repro.obs.metrics import resolve_registry
from repro.openmx.regions import RegionState, Segment

__all__ = ["STACK", "SeedAddressSpace", "SeedLinearRegionIndex",
           "SeedPinService", "SeedUserRegion", "seed_segments_pages"]


class SeedAddressSpace:
    """Seed address space: linear VMA walks, per-page dict re-walks."""

    MMAP_BASE = 0x7000_0000_0000

    def __init__(self, memory: PhysicalMemory, name: str = "proc"):
        self.memory = memory
        self.name = name
        self._vmas: dict[int, Vma] = {}
        self._pages: dict[int, Frame] = {}
        self._swap: dict[int, bytes] = {}
        self._next_mmap = self.MMAP_BASE
        self._free_ranges: dict[int, list[int]] = {}
        self.notifiers = MMUNotifierChain()
        self._orphans: set[Frame] = set()
        self.faults = 0
        self.cow_breaks = 0
        self.swapins = 0

    # -- VMA management ------------------------------------------------------
    def mmap(self, length: int) -> int:
        if length <= 0:
            raise ValueError(f"mmap length must be positive, got {length}")
        size = page_count(0, length) * PAGE_SIZE
        reusable = self._free_ranges.get(size)
        if reusable:
            start = reusable.pop()
        else:
            start = self._next_mmap
            self._next_mmap += size + PAGE_SIZE
        self._vmas[start] = Vma(start, start + size)
        return start

    def mmap_fixed(self, start: int, length: int) -> int:
        if start % PAGE_SIZE:
            raise ValueError(f"unaligned fixed mapping at {start:#x}")
        size = page_count(0, length) * PAGE_SIZE
        for addr in range(start, start + size, PAGE_SIZE):
            if self.find_vma(addr) is not None:
                raise BadAddress(f"fixed mapping overlaps existing VMA at {addr:#x}")
        for rsize, starts in self._free_ranges.items():
            self._free_ranges[rsize] = [
                s for s in starts if s + rsize <= start or s >= start + size
            ]
        self._vmas[start] = Vma(start, start + size)
        return start

    def find_vma(self, addr: int) -> Vma | None:
        for vma in self._vmas.values():
            if addr in vma:
                return vma
        return None

    def is_mapped_range(self, addr: int, length: int) -> bool:
        if length <= 0:
            return False
        va = page_align(addr)
        end = addr + length
        while va < end:
            vma = self.find_vma(va)
            if vma is None:
                return False
            va = vma.end
        return True

    def munmap(self, addr: int, length: int) -> None:
        start = page_align(addr)
        end = start + page_count(addr, length) * PAGE_SIZE
        victims = [v for v in self._vmas.values() if v.start >= start and v.end <= end]
        covered = sum(v.length for v in victims)
        if not victims or covered < (end - start):
            inside = self.find_vma(addr)
            if inside is not None and (inside.start < start or inside.end > end):
                raise BadAddress("partial VMA unmap not supported")
            if not victims:
                raise BadAddress(f"munmap of unmapped range {addr:#x}+{length}")
        self.notifiers.invalidate_range(start, end)
        for vma in victims:
            del self._vmas[vma.start]
            for vpn in range(vma.start // PAGE_SIZE, vma.end // PAGE_SIZE):
                frame = self._pages.pop(vpn, None)
                if frame is not None:
                    self._release_frame(frame)
                self._swap.pop(vpn, None)
            self._free_ranges.setdefault(vma.length, []).append(vma.start)

    def destroy(self) -> None:
        self.notifiers.release()
        for vma in list(self._vmas.values()):
            self.munmap(vma.start, vma.length)

    def _release_frame(self, frame: Frame) -> None:
        if frame.pinned:
            self._orphans.add(frame)
        else:
            self.memory.free(frame)

    # -- page table ---------------------------------------------------------
    def page(self, addr: int) -> Frame | None:
        return self._pages.get(addr // PAGE_SIZE)

    def resident_pages(self, addr: int, length: int) -> int:
        first = addr // PAGE_SIZE
        return sum(
            1
            for vpn in range(first, first + page_count(addr, length))
            if vpn in self._pages
        )

    def fault_in(self, addr: int) -> Frame:
        vpn = addr // PAGE_SIZE
        frame = self._pages.get(vpn)
        if frame is not None:
            return frame
        if self.find_vma(addr) is None:
            raise BadAddress(f"fault on unmapped address {addr:#x} in {self.name}")
        frame = self.memory.allocate()
        swapped = self._swap.pop(vpn, None)
        if swapped is not None:
            frame.write(0, swapped)
            self.swapins += 1
        self._pages[vpn] = frame
        self.faults += 1
        return frame

    # -- data access ---------------------------------------------------------
    def write(self, addr: int, data) -> None:
        offset = 0
        data = memoryview(data)
        while offset < len(data):
            va = addr + offset
            frame = self.fault_in(va)
            in_page = va % PAGE_SIZE
            chunk = min(PAGE_SIZE - in_page, len(data) - offset)
            frame.write(in_page, data[offset : offset + chunk])
            offset += chunk

    def read(self, addr: int, length: int) -> bytes:
        out = bytearray()
        offset = 0
        while offset < length:
            va = addr + offset
            frame = self.fault_in(va)
            in_page = va % PAGE_SIZE
            chunk = min(PAGE_SIZE - in_page, length - offset)
            out += frame.read(in_page, chunk)
            offset += chunk
        return bytes(out)

    # -- pinning hooks -------------------------------------------------------
    def pin_page(self, addr: int) -> Frame:
        frame = self.fault_in(addr)
        self.memory.account_pin(frame)
        return frame

    def unpin_frame(self, frame: Frame) -> None:
        self.memory.account_unpin(frame)
        if not frame.pinned and frame in self._orphans:
            self._orphans.discard(frame)
            self.memory.free(frame)

    @property
    def orphan_count(self) -> int:
        return len(self._orphans)

    # -- VM events -----------------------------------------------------------
    def cow_duplicate(self, addr: int, length: int) -> int:
        start = page_align(addr)
        end = addr + length
        if not self.is_mapped_range(addr, length):
            raise BadAddress(f"COW on unmapped range {addr:#x}+{length}")
        self.notifiers.invalidate_range(start, page_align(end - 1) + PAGE_SIZE)
        duplicated = 0
        for vpn in range(start // PAGE_SIZE, (end - 1) // PAGE_SIZE + 1):
            old = self._pages.get(vpn)
            if old is None or old.pinned:
                continue
            new = self.memory.allocate()
            new.copy_contents_from(old)
            self._pages[vpn] = new
            self.memory.free(old)
            self.cow_breaks += 1
            duplicated += 1
        return duplicated

    def migrate(self, addr: int, length: int) -> int:
        return self.cow_duplicate(addr, length)

    def swap_out(self, addr: int, length: int) -> int:
        start = page_align(addr)
        end = addr + length
        if not self.is_mapped_range(addr, length):
            raise BadAddress(f"swap-out of unmapped range {addr:#x}+{length}")
        self.notifiers.invalidate_range(start, page_align(end - 1) + PAGE_SIZE)
        moved = 0
        for vpn in range(start // PAGE_SIZE, (end - 1) // PAGE_SIZE + 1):
            frame = self._pages.get(vpn)
            if frame is None or frame.pinned:
                continue
            self._swap[vpn] = frame.read(0, PAGE_SIZE)
            del self._pages[vpn]
            self.memory.free(frame)
            moved += 1
        return moved


def seed_segments_pages(segments: tuple[Segment, ...]) -> list[int]:
    """Seed page enumeration: one append per covered page."""
    vas: list[int] = []
    for seg in segments:
        first = (seg.va // PAGE_SIZE) * PAGE_SIZE
        for i in range(page_count(seg.va, seg.length)):
            vas.append(first + i * PAGE_SIZE)
    return vas


class SeedUserRegion:
    """Seed region: ``_locate`` scans segments linearly per call."""

    def __init__(self, region_id: int, aspace, segments: tuple[Segment, ...]):
        if not segments:
            raise ValueError("a region needs at least one segment")
        self.id = region_id
        self.aspace = aspace
        self.segments = tuple(segments)
        self.total_length = sum(s.length for s in segments)
        self.page_vas = seed_segments_pages(self.segments)
        self.npages = len(self.page_vas)
        self.frames: list[Frame | None] = [None] * self.npages
        self.watermark = 0
        self.state = RegionState.UNPINNED
        self.destroyed = False
        self.pin_cancelled = False
        self.active_comms = 0
        self.invalidate_pending = False
        self.pin_epoch = 0
        self.bounce: bytes | None = None
        self._index: list[tuple[int, Segment, int]] = []
        off = 0
        page_idx = 0
        for seg in self.segments:
            self._index.append((off, seg, page_idx))
            off += seg.length
            page_idx += page_count(seg.va, seg.length)

    # -- offset geometry -----------------------------------------------------
    def _locate(self, offset: int) -> tuple[Segment, int, int]:
        if not 0 <= offset < self.total_length:
            raise ValueError(f"offset {offset} outside region of {self.total_length}")
        for seg_off, seg, first_page in self._index:
            if seg_off <= offset < seg_off + seg.length:
                delta = offset - seg_off
                va = seg.va + delta
                page = first_page + (va // PAGE_SIZE - seg.va // PAGE_SIZE)
                return seg, delta, page
        raise AssertionError("unreachable")  # pragma: no cover

    def pages_needed(self, offset: int, length: int) -> int:
        if length <= 0:
            raise ValueError(f"length must be positive, got {length}")
        _, _, last_page = self._locate(offset + length - 1)
        return last_page + 1

    def covers(self, offset: int, length: int) -> bool:
        return self.pages_needed(offset, length) <= self.watermark

    # -- pin state transitions ------------------------------------------------
    def attach_frames(self, start_page: int, frames: list[Frame]) -> None:
        if start_page != self.watermark:
            raise ValueError(
                f"frames attached at page {start_page}, watermark {self.watermark}"
            )
        for i, frame in enumerate(frames):
            self.frames[start_page + i] = frame
        self.watermark = start_page + len(frames)
        if self.watermark == self.npages:
            self.state = RegionState.PINNED

    def take_pinned_frames(self) -> list[Frame]:
        frames = [f for f in self.frames if f is not None]
        self.frames = [None] * self.npages
        self.watermark = 0
        self.state = RegionState.UNPINNED
        self.pin_epoch += 1
        return frames

    def mark_failed(self) -> None:
        self.frames = [None] * self.npages
        self.watermark = 0
        self.state = RegionState.FAILED
        self.pin_epoch += 1

    @property
    def fully_pinned(self) -> bool:
        return self.watermark == self.npages

    # -- data access -----------------------------------------------------------
    def _frame_at(self, offset: int) -> tuple[Frame, int, int]:
        seg, delta, page = self._locate(offset)
        frame = self.frames[page]
        if frame is None:
            raise RuntimeError(
                f"region {self.id}: access at offset {offset} beyond pinned "
                f"watermark (page {page}, watermark {self.watermark})"
            )
        va = seg.va + delta
        in_page = va % PAGE_SIZE
        seg_remaining = seg.length - delta
        avail = min(PAGE_SIZE - in_page, seg_remaining)
        return frame, in_page, avail

    def read(self, offset: int, length: int) -> bytes:
        out = bytearray()
        pos = offset
        remaining = length
        while remaining > 0:
            frame, in_page, avail = self._frame_at(pos)
            chunk = min(avail, remaining)
            out += frame.read(in_page, chunk)
            pos += chunk
            remaining -= chunk
        return bytes(out)

    def write(self, offset: int, data: bytes) -> None:
        pos = offset
        view = memoryview(data)
        done = 0
        while done < len(data):
            frame, in_page, avail = self._frame_at(pos)
            chunk = min(avail, len(data) - done)
            frame.write(in_page, view[done : done + chunk])
            pos += chunk
            done += chunk


class SeedLinearRegionIndex:
    """The seed endpoint-notifier dispatch: scan every region's segments."""

    def __init__(self):
        self._ranges: dict[int, list[tuple[int, int]]] = {}

    def __len__(self) -> int:
        return len(self._ranges)

    def __contains__(self, key: int) -> bool:
        return key in self._ranges

    def add(self, key: int, ranges) -> None:
        if key in self._ranges:
            raise ValueError(f"key {key} already indexed")
        self._ranges[key] = [(s, e) for s, e in ranges]

    def remove(self, key: int) -> None:
        del self._ranges[key]

    def overlapping(self, start: int, end: int) -> list[int]:
        if start >= end:
            return []
        return [
            key
            for key, ranges in self._ranges.items()
            if any(s < end and start < e for s, e in ranges)
        ]


class SeedPinService:
    """Seed pin service: one core acquisition + charge per pinned page."""

    def __init__(self, pin_fraction: float = 0.75, metrics=None, host: str = ""):
        if not 0.0 < pin_fraction < 1.0:
            raise ValueError(f"pin_fraction must be in (0,1), got {pin_fraction}")
        self.pin_fraction = pin_fraction
        self.pins = 0
        self.unpins = 0
        self.pages_pinned = 0
        self.pin_failures = 0
        self.fault_hook = None
        registry = resolve_registry(metrics)
        self.metrics = registry
        lbl = {"host": host}
        self._m_pin_latency = registry.histogram(
            "kernel_pin_latency_ns",
            "get_user_pages latency per pin call (fault + pin references)",
            labelnames=("host",)).labels(**lbl)
        self._m_unpin_latency = registry.histogram(
            "kernel_unpin_latency_ns", "unpin latency per unpin call",
            labelnames=("host",)).labels(**lbl)
        self._m_pinned_pages = registry.gauge(
            "kernel_pinned_pages", "pages currently holding a pin reference",
            labelnames=("host",)).labels(**lbl)
        self._m_pin_failures = registry.counter(
            "kernel_pin_failures", "pin calls that failed (bad range / OOM)",
            labelnames=("host",)).labels(**lbl)

    def account_unpin(self, nframes: int) -> None:
        self.unpins += 1
        self._m_pinned_pages.dec(nframes)

    # -- cost model ---------------------------------------------------------
    def pin_cost_ns(self, core: CpuCore, npages: int) -> int:
        total = core.spec.pin_unpin_cost_ns(npages)
        return int(total * self.pin_fraction)

    def unpin_cost_ns(self, core: CpuCore, npages: int) -> int:
        total = core.spec.pin_unpin_cost_ns(npages)
        return total - int(total * self.pin_fraction)

    def pin_base_ns(self, core: CpuCore) -> int:
        return int(core.spec.pin_base_ns * self.pin_fraction)

    def pin_per_page_ns(self, core: CpuCore) -> int:
        return int(core.spec.pin_per_page_ns * self.pin_fraction)

    # -- operations ----------------------------------------------------------
    def pin_user_pages(self, core, aspace, addr, npages,
                       priority=PRIO_KERNEL, on_page=None, sliced=False):
        from repro.kernel.pinning import PinError

        if npages <= 0:
            raise PinError(f"cannot pin {npages} pages")
        start = (addr // PAGE_SIZE) * PAGE_SIZE
        if not aspace.is_mapped_range(start, npages * PAGE_SIZE):
            self.pin_failures += 1
            self._m_pin_failures.inc()
            raise PinError(
                f"range {start:#x}+{npages}p not mapped in {aspace.name}"
            )
        t_start = core.env.now

        frames: list[Frame] = []
        base = self.pin_base_ns(core)
        per_page = self.pin_per_page_ns(core)

        def charge(cost):
            if sliced:
                yield from core.execute_sliced(cost, priority)
            else:
                yield from core.execute(cost, priority)

        try:
            yield from charge(base)
            if self.fault_hook is not None:
                extra = self.fault_hook.pin_delay_ns(npages)
                if extra > 0:
                    yield from charge(extra)
                if self.fault_hook.pin_should_fail():
                    raise OutOfMemory("injected transient pin failure")
            for i in range(npages):
                yield from charge(per_page)
                frame = aspace.pin_page(start + i * PAGE_SIZE)
                frames.append(frame)
                self.pages_pinned += 1
                self._m_pinned_pages.inc()
                if on_page is not None:
                    on_page(i, frame)
        except (BadAddress, OutOfMemory) as exc:
            if frames:
                yield from self.unpin_user_pages(core, aspace, frames, priority)
            self.pin_failures += 1
            self._m_pin_failures.inc()
            raise PinError(str(exc)) from exc
        self.pins += 1
        self._m_pin_latency.observe(core.env.now - t_start)
        return frames

    def unpin_user_pages(self, core, aspace, frames, priority=PRIO_KERNEL):
        if not frames:
            return
        t_start = core.env.now
        cost = self.unpin_cost_ns(core, len(frames))
        yield from core.execute(cost, priority)
        for frame in frames:
            aspace.unpin_frame(frame)
        self.account_unpin(len(frames))
        self._m_unpin_latency.observe(core.env.now - t_start)

    def unpin_now(self, aspace, frames) -> None:
        for frame in frames:
            aspace.unpin_frame(frame)
        self.account_unpin(len(frames))


STACK = {
    "AddressSpace": SeedAddressSpace,
    "UserRegion": SeedUserRegion,
    "RegionIndex": SeedLinearRegionIndex,
    "PinService": SeedPinService,
}
