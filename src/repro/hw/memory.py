"""Physical memory: frames with real byte contents and pin accounting.

Frames carry actual bytes (a lazily-allocated ``bytearray`` per 4 KiB frame)
so that the protocol stack can be tested for *data* correctness: a transfer
that reads stale frames after a copy-on-write, or writes through a dangling
pin after migration, produces wrong bytes and fails the integration tests
rather than just looking odd in a trace.

Timing is **not** modelled here — copy costs are charged on CPU cores or DMA
engines by their owners.  This module is pure state.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["Frame", "OutOfMemory", "PAGE_SIZE", "PhysicalMemory"]

PAGE_SIZE = 4096


class OutOfMemory(Exception):
    """No free physical frames remain."""


class Frame:
    """One physical page frame."""

    __slots__ = ("pfn", "pin_count", "map_count", "_data", "in_use")

    def __init__(self, pfn: int):
        self.pfn = pfn
        self.pin_count = 0
        self.map_count = 0
        self.in_use = False
        self._data: bytearray | None = None

    @property
    def pinned(self) -> bool:
        return self.pin_count > 0

    @property
    def shared(self) -> bool:
        """Mapped by more than one address space (COW after fork)."""
        return self.map_count > 1

    @property
    def data(self) -> bytearray:
        """Frame contents, allocated on first touch (zero-filled)."""
        if self._data is None:
            self._data = bytearray(PAGE_SIZE)
        return self._data

    def write(self, offset: int, payload: bytes | bytearray | memoryview) -> None:
        end = offset + len(payload)
        if offset < 0 or end > PAGE_SIZE:
            raise ValueError(f"write [{offset}, {end}) outside frame")
        self.data[offset:end] = payload

    def read(self, offset: int, length: int) -> bytes:
        end = offset + length
        if offset < 0 or end > PAGE_SIZE:
            raise ValueError(f"read [{offset}, {end}) outside frame")
        if self._data is None:
            return bytes(length)
        return bytes(self._data[offset:end])

    def copy_contents_from(self, other: "Frame") -> None:
        """Duplicate another frame's bytes (copy-on-write, migration)."""
        if other._data is None:
            self._data = None
        else:
            self.data[:] = other._data

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Frame pfn={self.pfn} pins={self.pin_count}>"


class PhysicalMemory:
    """A host's pool of page frames with pinned-page accounting.

    ``max_pinned_fraction`` models the kernel refusing to let one subsystem
    wire down all of RAM; the Open-MX driver reacts to pin failures by
    unpinning least-recently-used regions (Section 3.1 of the paper).
    """

    def __init__(self, total_bytes: int, max_pinned_fraction: float = 0.9):
        if total_bytes < PAGE_SIZE:
            raise ValueError("memory must hold at least one frame")
        if not 0.0 < max_pinned_fraction <= 1.0:
            raise ValueError(f"bad max_pinned_fraction {max_pinned_fraction}")
        self.nframes = total_bytes // PAGE_SIZE
        self.max_pinned = int(self.nframes * max_pinned_fraction)
        self._frames: dict[int, Frame] = {}
        # Frames are handed out lazily, so a host costs what it touches, not
        # its RAM size: pfns at or above ``_next_pfn`` have never been used,
        # and ``_freed_pfns`` is a LIFO stack of frames returned by ``free``.
        self._next_pfn = 0
        self._freed_pfns: list[int] = []
        self.pinned_frames = 0
        self.alloc_count = 0
        self.free_count = 0

    @property
    def free_frames(self) -> int:
        return self.nframes - self._next_pfn + len(self._freed_pfns)

    @property
    def used_frames(self) -> int:
        return self._next_pfn - len(self._freed_pfns)

    def allocate(self) -> Frame:
        """Take the last frame freed, else the lowest never-used one."""
        if self._freed_pfns:
            pfn = self._freed_pfns.pop()
        elif self._next_pfn < self.nframes:
            pfn = self._next_pfn
            self._next_pfn += 1
        else:
            raise OutOfMemory(f"all {self.nframes} frames in use")
        frame = self._frames.get(pfn)
        if frame is None:
            frame = Frame(pfn)
            self._frames[pfn] = frame
        frame.in_use = True
        frame.map_count = 1
        frame._data = None  # fresh pages are zero-filled
        self.alloc_count += 1
        return frame

    def share(self, frame: Frame) -> None:
        """Take another mapping reference on a frame (fork COW sharing).

        Only unpinned frames may be shared: pinned pages are eagerly copied
        at fork (copy-on-pin), mirroring how DMA-pinned pages behave under
        Linux ``copy_page_range``.
        """
        if not frame.in_use:
            raise ValueError(f"sharing free frame {frame.pfn}")
        if frame.pinned:
            raise ValueError(f"sharing pinned frame {frame.pfn}")
        frame.map_count += 1

    def free(self, frame: Frame) -> None:
        if not frame.in_use:
            raise ValueError(f"double free of frame {frame.pfn}")
        if frame.map_count > 1:
            # Another address space still maps this frame (COW sharing):
            # just drop our mapping reference.
            frame.map_count -= 1
            return
        if frame.pinned:
            raise ValueError(
                f"freeing pinned frame {frame.pfn} (pin_count={frame.pin_count})"
            )
        frame.in_use = False
        frame.map_count = 0
        self._freed_pfns.append(frame.pfn)
        self.free_count += 1

    # -- pin accounting ----------------------------------------------------
    def can_pin(self, nframes: int) -> bool:
        return self.pinned_frames + nframes <= self.max_pinned

    def account_pin(self, frame: Frame) -> None:
        """Increment a frame's pin count (the caller pays the time cost)."""
        if not frame.in_use:
            raise ValueError(f"pinning free frame {frame.pfn}")
        if frame.pin_count == 0:
            if self.pinned_frames >= self.max_pinned:
                raise OutOfMemory(
                    f"pinned-page limit reached ({self.max_pinned} frames)"
                )
            self.pinned_frames += 1
        frame.pin_count += 1

    def account_unpin(self, frame: Frame) -> None:
        if frame.pin_count <= 0:
            raise ValueError(f"unpinning unpinned frame {frame.pfn}")
        frame.pin_count -= 1
        if frame.pin_count == 0:
            self.pinned_frames -= 1

    def iter_used(self) -> Iterator[Frame]:
        return (f for f in self._frames.values() if f.in_use)
