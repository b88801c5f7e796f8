"""Exception hierarchy for the ME-HPT reproduction.

Every error raised by the library derives from :class:`MEHPTError` so that
callers can catch library failures without masking programming errors.

Errors carry *structured context* (way index, page size, chunk size,
attempt count, ...) in :attr:`MEHPTError.context` so that degradation
logs and multiprocessing workers can report what failed without parsing
message strings.  All errors round-trip through :mod:`pickle` — the
simulator's multiprocessing paths propagate them across process
boundaries.
"""

from __future__ import annotations

from typing import Any, Dict


class MEHPTError(Exception):
    """Base class for all errors raised by :mod:`repro`.

    ``context`` holds optional structured fields describing where the
    failure happened (e.g. ``way_index``, ``page_size``, ``chunk_bytes``,
    ``attempt``).  Subclasses with bespoke constructors override
    ``__reduce__`` so pickling preserves their attributes.
    """

    def __init__(self, message: str = "", **context: Any) -> None:
        super().__init__(message)
        self.context: Dict[str, Any] = dict(context)

    @property
    def message(self) -> str:
        return self.args[0] if self.args else ""

    def __repr__(self) -> str:
        parts = [repr(self.message)]
        parts.extend(f"{key}={value!r}" for key, value in sorted(self.context.items()))
        return f"{type(self).__name__}({', '.join(parts)})"

    def __reduce__(self):
        # (callable, args, state): state is applied to __dict__ on load,
        # restoring ``context`` and any subclass attributes.
        return (type(self), (self.message,), self.__dict__.copy())


class ConfigurationError(MEHPTError):
    """A simulation or structure parameter is invalid or inconsistent."""


class OutOfMemoryError(MEHPTError):
    """The modelled physical memory has no free frames left."""


class ContiguousAllocationError(OutOfMemoryError):
    """A contiguous allocation failed due to fragmentation.

    The paper observes (Section III) that above 0.7 FMFI the Linux kernel
    cannot find 64MB of contiguous memory and the ECPT runs crash; this
    exception models that failure mode.

    ``transient`` distinguishes injected transient failures (retryable —
    the kernel's next compaction attempt may succeed) from the model's
    permanent failure rule; recovery policies only retry transient ones.
    """

    #: Permanent by default; :class:`TransientAllocationError` overrides.
    transient = False

    def __init__(self, size_bytes: int, fmfi: float, attempt: int = 0) -> None:
        super().__init__(
            f"cannot allocate {size_bytes} contiguous bytes at FMFI {fmfi:.2f}",
            size_bytes=size_bytes,
            fmfi=fmfi,
            attempt=attempt,
        )
        self.size_bytes = size_bytes
        self.fmfi = fmfi
        self.attempt = attempt

    def __reduce__(self):
        return (type(self), (self.size_bytes, self.fmfi, self.attempt))


class TransientAllocationError(ContiguousAllocationError):
    """An injected, retryable allocation failure (fault injection).

    Raised by :class:`~repro.faults.FaultPlan` hooks to model momentary
    allocation pressure; recovery policies retry these with backoff,
    while plain :class:`ContiguousAllocationError` aborts immediately.
    """

    transient = True


class TableFullError(MEHPTError):
    """A cuckoo insertion exceeded the re-insertion bound with no resize possible."""


class L2POverflowError(MEHPTError):
    """An HPT way needs more chunks than the L2P table can point to.

    This signals that the way must transition to the next larger chunk size
    (Section IV-B of the paper); it escaping to user code means the chunk
    ladder was exhausted.
    """


class TraceFormatError(MEHPTError):
    """A binary address-trace file is malformed, truncated, or corrupt.

    Raised by :mod:`repro.traces` when a ``.vpt`` file fails structural
    checks (bad magic, unsupported version, missing footer) or content
    checks (per-chunk CRC mismatch, record-count drift).  ``context``
    carries the failing ``path`` and, for chunk-level failures, the
    ``chunk`` index.
    """


class SimulationError(MEHPTError):
    """The trace-driven simulator reached an inconsistent state."""
