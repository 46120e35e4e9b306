"""Time-series metric collection for simulated experiments.

The monitoring framework (and the experiment harness around it) records many
time series: per-component retained sizes, throughput, heap usage, response
times.  The classes here are deliberately small and allocation-light; series
store parallel Python lists and convert to numpy arrays only on demand.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

#: Shared zero-length buffer: empty series allocate nothing.
_EMPTY = np.empty(0, dtype=np.float64)


class TimeSeries:
    """An append-only ``(timestamp, value)`` series on a numpy backing store.

    Observations live in preallocated float64 buffers grown by amortised
    doubling, so a long rejuvenation run appends in O(1) without the
    list-of-PyFloat overhead the seed paid (one boxed float + list slot per
    observation, plus a full list→ndarray conversion on every analysis
    access).  :attr:`times` / :attr:`values` return cached *views* of the
    filled prefix: creating one is O(1), trend fits and report rendering
    operate zero-copy, and the view stays valid because recorded cells are
    immutable (appends write beyond the view; a capacity doubling moves new
    appends to a fresh buffer without touching already-handed-out views).
    The cached view is invalidated — rebuilt on next access, again O(1) —
    whenever an append changes the filled length.
    """

    __slots__ = ("name", "_length", "_times_buf", "_values_buf", "_times_arr", "_values_arr")

    #: First allocation size; doubled as needed.
    _INITIAL_CAPACITY = 32

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._length = 0
        self._times_buf = _EMPTY
        self._values_buf = _EMPTY
        self._times_arr: Optional[np.ndarray] = None
        self._values_arr: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Storage management
    # ------------------------------------------------------------------ #
    def _reserve(self, extra: int) -> None:
        """Ensure capacity for ``extra`` more observations."""
        needed = self._length + extra
        capacity = len(self._times_buf)
        if needed <= capacity:
            return
        new_capacity = max(capacity, self._INITIAL_CAPACITY)
        while new_capacity < needed:
            new_capacity *= 2
        times = np.empty(new_capacity, dtype=np.float64)
        values = np.empty(new_capacity, dtype=np.float64)
        n = self._length
        times[:n] = self._times_buf[:n]
        values[:n] = self._values_buf[:n]
        self._times_buf = times
        self._values_buf = values

    def _adopt(self, times: np.ndarray, values: np.ndarray) -> "TimeSeries":
        """Take ownership of already-validated arrays (window/resample)."""
        self._times_buf = times
        self._values_buf = values
        self._length = len(times)
        return self

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record(self, timestamp: float, value: float) -> None:
        """Append one observation.  Timestamps must be non-decreasing."""
        timestamp = float(timestamp)
        n = self._length
        if n and timestamp < self._times_buf[n - 1]:
            raise ValueError(
                f"timestamps must be non-decreasing: got {timestamp} "
                f"after {float(self._times_buf[n - 1])}"
            )
        if n >= len(self._times_buf):
            self._reserve(1)
        self._times_buf[n] = timestamp
        self._values_buf[n] = float(value)
        self._length = n + 1
        self._times_arr = None
        self._values_arr = None

    def record_many(self, timestamps: List[float], values: List[float]) -> None:
        """Append a batch of observations with one cache invalidation.

        The manager agent folds buffered Aspect-Component samples in bulk;
        one sliced buffer write per flush replaces per-sample ``record``
        calls on the hottest monitoring path.  Timestamps must be
        non-decreasing within the batch and relative to the existing series.
        """
        if not len(timestamps):
            return
        if len(timestamps) != len(values):
            raise ValueError(
                f"timestamps and values must have equal length "
                f"({len(timestamps)} vs {len(values)})"
            )
        batch_times = np.asarray(timestamps, dtype=np.float64)
        batch_values = np.asarray(values, dtype=np.float64)
        n = self._length
        if n and batch_times[0] < self._times_buf[n - 1]:
            raise ValueError(
                f"timestamps must be non-decreasing: got {float(batch_times[0])} "
                f"after {float(self._times_buf[n - 1])}"
            )
        if len(batch_times) > 1 and bool((np.diff(batch_times) < 0).any()):
            raise ValueError("timestamps must be non-decreasing within the batch")
        self._reserve(len(batch_times))
        end = n + len(batch_times)
        self._times_buf[n:end] = batch_times
        self._values_buf[n:end] = batch_values
        self._length = end
        self._times_arr = None
        self._values_arr = None

    def __len__(self) -> int:
        return self._length

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def times(self) -> np.ndarray:
        """Timestamps as a zero-copy, read-only numpy view of the filled prefix."""
        arr = self._times_arr
        if arr is None:
            arr = self._times_buf[: self._length]
            # Read-only: an in-place mutation by analysis code would write
            # through to the permanent backing store (the seed's rebuilt
            # arrays were throwaway copies, so this hazard is new).
            arr.flags.writeable = False
            self._times_arr = arr
        return arr

    @property
    def values(self) -> np.ndarray:
        """Values as a zero-copy, read-only numpy view of the filled prefix."""
        arr = self._values_arr
        if arr is None:
            arr = self._values_buf[: self._length]
            arr.flags.writeable = False
            self._values_arr = arr
        return arr

    def last(self) -> Optional[Tuple[float, float]]:
        """The most recent ``(timestamp, value)`` pair, or ``None`` if empty."""
        n = self._length
        if not n:
            return None
        return float(self._times_buf[n - 1]), float(self._values_buf[n - 1])

    def value_at(self, timestamp: float) -> float:
        """Step-interpolated value at ``timestamp`` (last observation carried forward)."""
        if not self._length:
            raise ValueError(f"time series {self.name!r} is empty")
        idx = int(np.searchsorted(self.times, timestamp, side="right")) - 1
        if idx < 0:
            return float(self._values_buf[0])
        return float(self._values_buf[idx])

    def window(self, start: float, end: float) -> "TimeSeries":
        """A new series containing observations with ``start <= t <= end``."""
        if end < start:
            raise ValueError(f"invalid window [{start}, {end}]")
        out = TimeSeries(self.name)
        if not self._length:
            return out
        # Timestamps are sorted, so the window is one contiguous slice.  The
        # slice is copied: the child owns its storage and can be appended to
        # without aliasing the parent's buffers.
        times = self.times
        lo = int(np.searchsorted(times, start, side="left"))
        hi = int(np.searchsorted(times, end, side="right"))
        return out._adopt(times[lo:hi].copy(), self.values[lo:hi].copy())

    def resample(self, interval: float, end: Optional[float] = None) -> "TimeSeries":
        """Step-resample onto a regular grid with the given interval."""
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        out = TimeSeries(self.name)
        if not self._length:
            return out
        stop = end if end is not None else float(self._times_buf[self._length - 1])
        # The grid is accumulated (not multiplied out) to stay bit-for-bit
        # identical with the seed's repeated-addition float behaviour.
        grid: List[float] = []
        t = float(self._times_buf[0])
        while t <= stop + 1e-12:
            grid.append(t)
            t += interval
        if not grid:
            return out
        grid_arr = np.asarray(grid, dtype=np.float64)
        idx = np.searchsorted(self.times, grid_arr, side="right") - 1
        np.clip(idx, 0, None, out=idx)
        return out._adopt(grid_arr, self.values[idx])

    def to_rows(self) -> List[Tuple[float, float]]:
        """The series as a list of python-float ``(timestamp, value)`` tuples."""
        n = self._length
        return list(zip(self._times_buf[:n].tolist(), self._values_buf[:n].tolist()))


class WindowedRate:
    """Computes event rates over fixed, contiguous time windows.

    Used by the experiment harness to produce throughput curves (Fig. 3):
    ``mark(t)`` records one completed request at simulated time ``t``; the
    completed windows are exposed as a :class:`TimeSeries` of events/second.

    Marks may arrive **out of order**: the closed-loop workload records each
    request at issue time but stamps it with its completion time, and a slow
    request issued early can complete after a fast request issued later.  The
    seed implementation flushed windows eagerly on the highest timestamp seen
    so far, which silently attributed any late mark to the *current* window.
    Counts are instead buffered per window index and only emitted by
    :meth:`finish`; a mark for a window that has already been emitted (only
    possible across ``finish`` calls, e.g. stragglers of a previous run
    segment) is clamped into the oldest still-open window.
    """

    def __init__(self, window: float, name: str = "") -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.name = name
        self.window = float(window)
        self._emitted_windows = 0
        self._pending: Dict[int, int] = {}
        self._series = TimeSeries(name)

    def mark(self, timestamp: float, count: int = 1) -> None:
        """Record ``count`` events at ``timestamp`` (any order)."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        index = int(timestamp // self.window)
        if index < self._emitted_windows:
            index = self._emitted_windows
        self._pending[index] = self._pending.get(index, 0) + count

    def _flush_up_to(self, timestamp: float) -> None:
        # Window boundaries use the same multiplicative arithmetic as the
        # index computation in mark() (``timestamp // window``); deriving
        # them by repeated addition would disagree with ``//`` for widths
        # that are not exactly representable in binary.
        window = self.window
        while timestamp >= (self._emitted_windows + 1) * window:
            index = self._emitted_windows
            midpoint = index * window + window / 2.0
            count = self._pending.pop(index, 0)
            self._series.record(midpoint, count / window)
            self._emitted_windows += 1

    def finish(self, end_time: float) -> TimeSeries:
        """Emit every window that completes by ``end_time``; return the series."""
        self._flush_up_to(end_time)
        return self._series

    @property
    def series(self) -> TimeSeries:
        """The throughput series for windows emitted so far (see ``finish``)."""
        return self._series

    @property
    def pending_marks(self) -> int:
        """Marks buffered for windows that have not been emitted yet."""
        return sum(self._pending.values())
