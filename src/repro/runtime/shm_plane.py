"""The zero-copy shared-memory columnar plane of the sharded ER phase.

The resident columnar state of the grid — the
:class:`~repro.core.pruning.PackedStore` synopsis blocks and the
:class:`~repro.indexes.er_grid.CellStore` cell aggregates — lives in
``multiprocessing.shared_memory`` segments owned by the main process.
Worker processes *map* the blocks read-only instead of receiving per-batch
broadcast deltas and rebuilding numpy arrays per process, so the bytes
crossing the process boundary stop scaling with the window (and with the
worker count): only the op journal, routed per-record deltas and matches +
counters are pickled.

Single-writer / epoch protocol
------------------------------
The main process is the only writer.  Each micro-batch is one *epoch*:

1. the main process applies every grid mutation of the batch (writing the
   columnar rows in place, growing the arenas into a new *generation*
   segment when capacity is exhausted);
2. it bumps the epoch counter in each segment's header and only then ships
   the lookup orders;
3. workers attach the advertised generation read-only, validate the header
   (generation **and** epoch) and evaluate; they read only between order
   receipt and response, while the writer is blocked gathering responses.

Bit-identity to the golden serial reference is preserved by construction:
the mapped rows are the very bytes the main process wrote, and the workers
run the same kernels over them.

Segment lifecycle
-----------------
Segments are named ``terids-<pid>-…`` and tracked in a module registry so
that pool close, ``atexit`` and ``SIGTERM`` can unlink everything the
*creating* process owns (forked workers inherit the registry but are
pid-guarded out of cleanup).  Reader attaches deliberately stay registered
with the stdlib ``resource_tracker`` (see :func:`attach_segment`) so its
"leaked shared_memory" false positive never fires.  ``numpy`` views pin a
mapping: a segment retired while views are
alive is unlinked immediately (no ``/dev/shm`` leak) and its ``close()`` is
retried on later sweeps.
"""

from __future__ import annotations

import atexit
import itertools
import os
import signal
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.pruning import HAS_NUMPY

if HAS_NUMPY:
    import numpy as _np
else:  # pragma: no cover - exercised only on numpy-less installs
    _np = None

try:
    from multiprocessing import shared_memory
    _HAS_SHM_MODULE = True
except ImportError:  # pragma: no cover - platforms without shm support
    shared_memory = None
    _HAS_SHM_MODULE = False

#: Whether the shared-memory plane can run at all: the columnar kernels
#: need numpy and the platform must provide POSIX shared memory.
HAS_SHM = bool(HAS_NUMPY and _HAS_SHM_MODULE)


class ShmGenerationError(RuntimeError):
    """A worker attached a segment whose header disagrees with its order.

    Raised on generation mismatch (the view attached a segment that is not
    the advertised rebuild generation) and on epoch mismatch (an order
    arrived for an epoch the writer has not published) — both indicate a
    violated single-writer protocol, never a recoverable race.
    """


# ---------------------------------------------------------------------------
# Segment registry + cleanup (pool close / worker crash / atexit / signal)
# ---------------------------------------------------------------------------
#: Segments created (and therefore owned) by ``_OWNER_PID``.
_LIVE: Dict[str, object] = {}
#: Already-unlinked segments whose ``close()`` hit ``BufferError`` because
#: numpy views still pin the mapping; re-swept opportunistically.
_STALE: List[object] = []
_OWNER_PID: Optional[int] = None
_COUNTER = itertools.count()
_HOOKS_INSTALLED = False

#: Segment-name prefix of the current process (pid-scoped so concurrent
#: test runs and the leak checks can tell their segments apart).
def segment_prefix(pid: Optional[int] = None) -> str:
    return f"terids-{(os.getpid() if pid is None else pid):x}-"


def _segment_name(tag: str, generation: int) -> str:
    return f"{segment_prefix()}{next(_COUNTER):x}-{tag}-g{generation}"


def _cleanup() -> None:
    """Unlink every segment this process owns (atexit / signal path)."""
    if _OWNER_PID != os.getpid():
        # A forked worker inherited the registry: the entries belong to the
        # parent and must not be unlinked from here.
        return
    for name in list(_LIVE):
        _retire_segment(_LIVE[name])
    _sweep_stale()


def _install_hooks() -> None:
    global _HOOKS_INSTALLED, _OWNER_PID
    if _OWNER_PID != os.getpid():
        # First creation in this process (possibly a fork of a creator):
        # drop the inherited view of the parent's registry and claim
        # ownership of what *this* process creates from now on.
        _LIVE.clear()
        del _STALE[:]
        _OWNER_PID = os.getpid()
        _HOOKS_INSTALLED = False
    if _HOOKS_INSTALLED:
        return
    _HOOKS_INSTALLED = True
    atexit.register(_cleanup)
    try:
        if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
            def _on_term(signum, frame):  # pragma: no cover - signal path
                _cleanup()
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                os.kill(os.getpid(), signal.SIGTERM)

            signal.signal(signal.SIGTERM, _on_term)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


def ensure_tracker() -> None:
    """Start the stdlib ``resource_tracker`` from this process.

    Fork-safety: a worker forked *before* the first segment existed would
    lazily spawn its own private tracker on attach; that tracker sees only
    the attach registrations (the owner's ``unlink`` unregisters with the
    main tracker) and reports spurious "leaked shared_memory" warnings at
    worker exit.  Called before worker processes spawn, so every process
    inherits the one main-process tracker and the register/unregister
    stream stays coherent.
    """
    if not _HAS_SHM_MODULE:  # pragma: no cover - platforms without shm
        return
    try:
        from multiprocessing import resource_tracker
        resource_tracker.ensure_running()
    except Exception:  # pragma: no cover - tracker internals vary
        pass


def create_segment(name: str, size: int):
    """Create one owned segment and register it for cleanup."""
    shm = shared_memory.SharedMemory(name=name, create=True, size=size)
    _install_hooks()
    _LIVE[shm.name] = shm
    return shm


def attach_segment(name: str):
    """Attach an existing segment without claiming ownership.

    The stdlib registers *attached* segments with the ``resource_tracker``
    too — the source of the well-known "leaked shared_memory" false
    positive on reader detach.  The tracker's cache is a *set* keyed by
    name, shared by the creator and every (forked) reader, so the silent
    fix is to leave the attach registration in place: it coalesces with
    the creator's entry, and the owner's eventual ``unlink()`` removes the
    name exactly once.  Unregistering here instead would strip the
    creator's entry and make the later unlink's unregister fail loudly
    inside the tracker process.
    """
    return shared_memory.SharedMemory(name=name)


def _sweep_stale() -> None:
    kept = []
    for shm in _STALE:
        try:
            shm.close()
        except BufferError:
            kept.append(shm)
    _STALE[:] = kept


def _close_quietly(shm) -> None:
    _sweep_stale()
    try:
        shm.close()
    except BufferError:
        # numpy views still reference the buffer; the mapping stays valid
        # (and, once unlinked, leaks nothing) — retry on later sweeps.
        _STALE.append(shm)


def _retire_segment(shm) -> None:
    """Owner-side retirement: unlink now, close when views allow."""
    _LIVE.pop(shm.name, None)
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - double retire
        pass
    _close_quietly(shm)


def _release_segment(shm) -> None:
    """Reader-side detach: close only — the owner unlinks."""
    _close_quietly(shm)


def active_segment_names() -> List[str]:
    """Names of the segments this process currently owns (leak check)."""
    if _OWNER_PID != os.getpid():
        return []
    return sorted(_LIVE)


def scan_dev_shm(pid: Optional[int] = None) -> List[str]:
    """``/dev/shm`` entries carrying this process' segment prefix."""
    prefix = segment_prefix(pid)
    try:
        return sorted(entry for entry in os.listdir("/dev/shm")
                      if entry.startswith(prefix))
    except OSError:  # pragma: no cover - /dev/shm-less platforms
        return []


# ---------------------------------------------------------------------------
# Single-writer arenas + read-only views
# ---------------------------------------------------------------------------
#: Array offsets are 64-byte aligned (cache lines); the first 64 bytes are
#: the header: ``int64 generation`` then ``int64 epoch``.
_ALIGN = 64
_HEADER_BYTES = 64

#: One array spec: ``(name, shape, dtype)``.
ArraySpec = Tuple[str, Tuple[int, ...], object]


class ShmArena:
    """One growable bundle of named arrays in a single owned segment.

    Growth is *resize-by-generation*: a new, larger segment is created
    under a fresh generation-stamped name, the same-named arrays are
    prefix-copied (the exact ``fresh[:n] = old[:n]`` the in-process stores
    perform) and the previous segment is retired.  Readers learn the new
    segment from the :meth:`descriptor` shipped with the next batch.
    """

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.generation = 0
        self._epoch = 0
        self._shm = None
        self._header = None
        self._arrays: Dict[str, object] = {}
        self._layout: Optional[List[Tuple[str, Tuple[int, ...], str, int]]] = None
        self._size = 0

    @property
    def nbytes(self) -> int:
        """Mapped size of the current generation (0 before first growth)."""
        return self._size if self._shm is not None else 0

    def rebuild(self, specs: Sequence[ArraySpec]) -> Dict[str, object]:
        """Allocate the next generation; prefix-copy the previous arrays."""
        layout: List[Tuple[str, Tuple[int, ...], str, int]] = []
        offset = _HEADER_BYTES
        for name, shape, dtype in specs:
            dt = _np.dtype(dtype)
            count = 1
            for extent in shape:
                count *= int(extent)
            layout.append((name, tuple(int(x) for x in shape), dt.str, offset))
            offset += -(-(count * dt.itemsize) // _ALIGN) * _ALIGN
        self.generation += 1
        shm = create_segment(_segment_name(self.tag, self.generation), offset)
        header = _np.ndarray((2,), dtype=_np.int64, buffer=shm.buf)
        header[0] = self.generation
        header[1] = self._epoch
        arrays: Dict[str, object] = {}
        for name, shape, dtype_str, array_offset in layout:
            arrays[name] = _np.ndarray(shape, dtype=_np.dtype(dtype_str),
                                       buffer=shm.buf, offset=array_offset)
        # Fresh segments are zero pages (ftruncate), matching the
        # ``np.zeros`` the in-process growth path allocates; only the
        # carried-over prefix needs copying.
        for name, array in arrays.items():
            previous = self._arrays.get(name)
            if previous is not None and previous.shape[1:] == array.shape[1:]:
                rows = min(previous.shape[0], array.shape[0])
                array[:rows] = previous[:rows]
        old_shm = self._shm
        self._shm = shm
        self._header = header
        self._arrays = arrays
        self._layout = layout
        self._size = offset
        if old_shm is not None:
            _retire_segment(old_shm)
        return arrays

    def set_epoch(self, epoch: int) -> None:
        """Publish the batch epoch (written strictly before orders ship)."""
        self._epoch = epoch
        if self._header is not None:
            self._header[1] = epoch

    def descriptor(self) -> Optional[Dict]:
        """Attachment recipe for readers (``None`` before first growth)."""
        if self._shm is None:
            return None
        return {"segment": self._shm.name, "generation": self.generation,
                "layout": self._layout, "size": self._size}

    def close(self, unlink: bool = True) -> None:
        shm = self._shm
        self._shm = None
        self._header = None
        self._arrays = {}
        if shm is not None:
            if unlink:
                _retire_segment(shm)
            else:  # pragma: no cover - owner always unlinks in-tree
                _release_segment(shm)


class ShmArenaView:
    """A worker's read-only mapping of one arena generation."""

    def __init__(self) -> None:
        self._shm = None
        self._name: Optional[str] = None
        self._header = None
        self.generation: Optional[int] = None
        self.arrays: Dict[str, object] = {}

    def attach(self, descriptor: Optional[Dict]) -> None:
        """(Re-)attach to the advertised generation; no-op when unchanged."""
        if descriptor is None:
            return
        if self._name == descriptor["segment"]:
            if int(self._header[0]) != descriptor["generation"]:
                raise ShmGenerationError(
                    f"segment {self._name} header holds generation "
                    f"{int(self._header[0])}, order expects "
                    f"{descriptor['generation']}")
            return
        shm = attach_segment(descriptor["segment"])
        header = _np.ndarray((2,), dtype=_np.int64, buffer=shm.buf)
        if int(header[0]) != descriptor["generation"]:
            generation = int(header[0])
            del header
            _release_segment(shm)
            raise ShmGenerationError(
                f"segment {descriptor['segment']} header holds generation "
                f"{generation}, order expects {descriptor['generation']}")
        arrays: Dict[str, object] = {}
        for name, shape, dtype_str, offset in descriptor["layout"]:
            array = _np.ndarray(tuple(shape), dtype=_np.dtype(dtype_str),
                                buffer=shm.buf, offset=offset)
            array.flags.writeable = False
            arrays[name] = array
        previous = self._shm
        self._shm = shm
        self._name = descriptor["segment"]
        self._header = header
        self.generation = descriptor["generation"]
        self.arrays = arrays
        if previous is not None:
            _release_segment(previous)

    def check_epoch(self, epoch: int) -> None:
        """Assert the writer published this order's epoch before it shipped."""
        if self._header is None or int(self._header[1]) != epoch:
            held = None if self._header is None else int(self._header[1])
            raise ShmGenerationError(
                f"segment {self._name} publishes epoch {held}, "
                f"order expects {epoch}")

    def close(self) -> None:
        shm = self._shm
        self._shm = None
        self._name = None
        self._header = None
        self.generation = None
        self.arrays = {}
        if shm is not None:
            _release_segment(shm)


class ShmPlane:
    """The two arenas of the sharded ER phase: packed synopses + cells."""

    def __init__(self) -> None:
        # The plane is constructed before any worker forks: starting the
        # tracker here guarantees the workers inherit it (see
        # ``ensure_tracker``).
        ensure_tracker()
        self.packed = ShmArena("packed")
        self.cells = ShmArena("cells")

    @property
    def nbytes(self) -> int:
        return self.packed.nbytes + self.cells.nbytes

    def set_epoch(self, epoch: int) -> None:
        self.packed.set_epoch(epoch)
        self.cells.set_epoch(epoch)

    def close(self, unlink: bool = True) -> None:
        self.packed.close(unlink=unlink)
        self.cells.close(unlink=unlink)


class PackedPlaneView:
    """The packed columns of a mapped arena as attributes — the shape
    :func:`repro.core.pruning.gather_rows` reads, so a worker gathers its
    kernel inputs exactly like the in-process
    :class:`~repro.core.pruning.PackedStore` owner does.
    """

    _NAMES = ("dist_lb", "dist_ub", "dist_exp", "tok_min", "tok_max",
              "may_kw", "limits", "totals")

    def __init__(self, view: ShmArenaView) -> None:
        self._view = view

    def __getattr__(self, name: str):
        if name in self._NAMES:
            return self._view.arrays[name]
        raise AttributeError(name)


# ---------------------------------------------------------------------------
# The per-batch grid journal (cell membership + aggregate pre-images)
# ---------------------------------------------------------------------------
#: Journal entries (emitted by ``ERGrid`` while a journal is attached):
#: ``("a", coords, cell_row, key, intervals)`` — key added to the cell (the
#: cell is created at dict-end if absent); ``("r", coords, cell_row, key,
#: intervals)`` — key removed, cell still alive; ``("d", coords, key)`` —
#: key removed and the cell deleted.  ``intervals`` is the cell's
#: per-attribute ``(lb, ub)`` aggregate AT WRITE TIME, so replaying entries
#: reproduces every intermediate aggregate state of the batch exactly.
JournalEntry = Tuple


class GridJournal:
    """Arrival-ordered cell mutations + first-write row pre-images.

    The workers' scan needs, at op ``k``, each live cell's aggregates *as
    of op ``k``* — but the mapped :class:`CellStore` arrays hold the
    end-of-batch values.  Two pieces recover the intermediate states
    without shipping array snapshots:

    * :attr:`pre_rows` — the value a cell row held *before its first write
      of the batch* (captured inside ``CellStore.update`` / first-wins), so
      rows written later than op ``k`` still read their op-``k`` value;
    * the entries — each carrying the at-write aggregate, so rows written
      before op ``k`` read the latest replayed value.

    Rows never written in the batch are read straight from the mapped
    arrays (their end-of-batch value *is* the pre-batch value).
    """

    def __init__(self) -> None:
        self._entries: List[JournalEntry] = []
        self.pre_rows: Dict[int, Tuple[Tuple[float, ...],
                                       Tuple[float, ...]]] = {}

    def record(self, entry: JournalEntry) -> None:
        self._entries.append(entry)

    def take(self) -> List[JournalEntry]:
        """Drain the entries recorded since the previous ``take``."""
        entries = self._entries
        self._entries = []
        return entries

    def capture_pre(self, row: int, lb_row, ub_row) -> None:
        """Record one row's pre-image (first write of the batch wins)."""
        if row not in self.pre_rows:
            self.pre_rows[row] = (tuple(lb_row.tolist()),
                                  tuple(ub_row.tolist()))

    def drain_pre(self) -> Dict[int, Tuple[Tuple[float, ...],
                                           Tuple[float, ...]]]:
        pre = self.pre_rows
        self.pre_rows = {}
        return pre
