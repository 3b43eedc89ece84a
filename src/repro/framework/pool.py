"""Fault-tolerant process fan-out: one resilient worker pool for every engine.

The parallel kernels of the three engines (RR sampling, Monte-Carlo
cascades, path-structure builds) all fan work out over process pools, and
a bare ``ProcessPoolExecutor`` makes that fan-out fragile: one worker
OOM-killed or segfaulted raises ``BrokenProcessPool`` and vaporizes the
whole cell — including every chunk that had already finished.  The
benchmarking paper's testbed assumes long unattended sweeps under
resource pressure; this module is the substrate that survives them.

Every unit of work is a **self-describing deterministic chunk**: a
module-level function plus positional arguments that embed any randomness
as a ``SeedSequence`` spawn-key state.  Re-executing a chunk therefore
reproduces its output byte-for-byte, which is what lets the pool recover
instead of restart:

* **Worker death** (``BrokenProcessPool``) — salvage every chunk result
  already delivered, respawn the executor, and re-execute only the lost
  chunks.  ``pool.worker_restarts`` / ``pool.chunks_salvaged`` count it.
* **Hung workers** — an optional stall deadline (no chunk completes for
  ``stall_timeout_seconds``) hard-kills the executor and takes the same
  respawn path, so a wedged worker costs one window, not the sweep.
* **Chunk failures** (an exception out of the chunk fn, or a corrupt
  result detected by checksum under fault injection) — bounded retry with
  exponential backoff.  Retries re-run the same (fn, args) pair, so the
  deterministic-reseed semantics of
  :class:`~repro.framework.isolation.RetryPolicy` hold with no RNG
  bookkeeping: the spawn key *is* the seed.  ``pool.chunk_retries``.
* **Poison chunks** — after ``retries`` attributable failures the chunk
  is quarantined: :class:`ChunkQuarantined` propagates with structured
  ``details`` that :func:`~repro.framework.metrics.run_with_budget` maps
  into the ``FAILED`` cell taxonomy instead of a raw traceback.
* **Repeated pool collapse** — after ``max_restarts`` executor respawns
  the pool degrades to in-process serial execution of the remaining
  chunks (``pool.serial_downgrades``), trading parallelism for a
  finished, still byte-identical cell.

Because chunk results are committed in chunk-index order regardless of
completion or recovery order, a run under any fault schedule produces
output byte-identical to the fault-free run — asserted end-to-end by
``tests/test_pool_faults.py`` (chaos suite) and property-tested in
``tests/test_pool_replay.py``.

**Shared-args transport.**  Chunks often share big immutable operands —
the graph CSR above all.  ``run_chunks(..., shared=(graph, ...))``
hoists them out of the per-chunk tuples: serial paths call
``fn(*shared, *args)`` on the original objects, and parallel paths hand
the shared tuple to the executor initializer, once per worker (under
the ``fork`` start method workers inherit it copy-on-write).  The
per-chunk dispatch payload is therefore O(1) in graph size.

**Configuration** is explicit: a :class:`PoolConfig` passed to the pool,
or else the one in effect where the pool is opened — set for a block by
:func:`configured` (context-local, like a telemetry activation), and
``PoolConfig()`` outside any block.  Nothing here reads the environment.

:class:`ChunkFaultInjector` is the test harness: rate-controlled
kill / hang / corrupt / raise faults, armed as ``PoolConfig.fault`` for
the enclosed block and shipped to the worker wrapper with each chunk.
Fault draws are a deterministic hash of ``(seed, chunk index, attempt)``
— reproducible, and a retried chunk draws afresh so injected faults are
transient by construction.  When no injector is armed the wrapper adds
no checksum, no hash draw, and no extra pickling to the hot path.

This module deliberately imports only the standard library and
:mod:`repro.framework.telemetry` so the diffusion engines can reach it
lazily without import cycles.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import time
import zlib
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar, Token
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, Sequence

from . import telemetry as _telemetry

__all__ = [
    "PoolConfig",
    "PoolError",
    "ChunkQuarantined",
    "InjectedChunkFault",
    "ResilientPool",
    "run_chunks",
    "ChunkFaultInjector",
    "FaultSpec",
    "configured",
    "current_config",
]


# ----------------------------------------------------------------------
# Configuration

FAULT_MODES = ("kill", "hang", "corrupt", "raise")
_FAULT_EXIT_CODE = 113


@dataclass(frozen=True)
class FaultSpec:
    """An armed fault: mode, rate, and the deterministic draw seed."""

    mode: str
    rate: float
    seed: int = 0
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.mode not in FAULT_MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; options: {', '.join(FAULT_MODES)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate!r}")


@dataclass(frozen=True)
class PoolConfig:
    """Resilience knobs, and any armed fault, for one :class:`ResilientPool` run.

    Pass one explicitly, or let the pool take the one in effect where it
    is opened: :func:`configured` sets it for a block, and outside any
    block it is ``PoolConfig()``.  Out-of-range values raise
    ``ValueError`` naming the field; a backoff of 0 disables it.
    """

    #: Attributable failures (chunk exception, corrupt result) tolerated
    #: per chunk before quarantine.
    retries: int = 4
    #: Executor respawns tolerated before degrading to serial execution.
    max_restarts: int = 4
    #: Collapse the pool when no chunk completes within this window
    #: (``None`` disables stall detection — a healthy-but-slow chunk is
    #: indistinguishable from a hang without a caller-chosen deadline).
    stall_timeout_seconds: float | None = None
    #: Base of the exponential per-retry backoff (seconds).
    backoff_seconds: float = 0.05
    #: Seconds to wait for a terminated worker before SIGKILL.
    grace_seconds: float = 1.0
    #: Chunk fault to inject (chaos testing); ``None`` injects nothing.
    fault: FaultSpec | None = None

    def __post_init__(self) -> None:
        if self.retries < 1:
            raise ValueError(f"retries must be >= 1, got {self.retries!r}")
        if self.max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts!r}")
        if self.stall_timeout_seconds is not None and self.stall_timeout_seconds <= 0.0:
            raise ValueError(
                f"stall_timeout_seconds must be > 0, got {self.stall_timeout_seconds!r}"
            )
        if self.backoff_seconds < 0.0:
            raise ValueError(
                f"backoff_seconds must be >= 0, got {self.backoff_seconds!r}"
            )


_CONFIG: ContextVar[PoolConfig] = ContextVar("pool_config", default=PoolConfig())


def current_config() -> PoolConfig:
    """The pool settings in effect here (``PoolConfig()`` outside any scope)."""
    return _CONFIG.get()


@contextmanager
def configured(config: PoolConfig) -> Iterator[PoolConfig]:
    """Make ``config`` the default of every pool opened in the enclosed block.

    The setting is context-local: a thread started inside the block sees
    the defaults, and concurrent threads never see each other's scopes.
    Scopes nest; the previous one is restored even on exceptions.
    """
    token = _CONFIG.set(config)
    try:
        yield config
    finally:
        _CONFIG.reset(token)


# ----------------------------------------------------------------------
# Failure taxonomy

class PoolError(RuntimeError):
    """A pool-level failure with structured ``details`` for RunRecords."""

    def __init__(self, message: str, details: dict[str, Any] | None = None) -> None:
        super().__init__(message)
        self.details = details or {}


class ChunkQuarantined(PoolError):
    """A chunk kept failing attributably and was marked poison."""


class InjectedChunkFault(RuntimeError):
    """Raised inside a worker by the ``raise`` fault mode."""


# ----------------------------------------------------------------------
# Fault injection

def fault_fires(spec: FaultSpec, index: int, attempt: int) -> bool:
    """Deterministic rate draw for ``(chunk, attempt)``.

    A hash draw instead of an RNG stream: reproducible across processes,
    independent of draw order, and varying with ``attempt`` so a retried
    chunk is not doomed to refire the same fault forever.
    """
    token = f"{spec.seed}:{index}:{attempt}".encode()
    digest = hashlib.sha256(token).digest()
    draw = int.from_bytes(digest[:8], "big") / 2.0**64
    return draw < spec.rate


class ChunkFaultInjector:
    """Arm rate-controlled chunk faults for the enclosed block.

    Context manager used by the chaos suite::

        with ChunkFaultInjector(mode="kill", rate=0.2, seed=7):
            pool.extend(graph, dynamics, 4000, rng, workers=4)

    For the block it is ``configured(replace(current_config(),
    fault=..., stall_timeout_seconds=stall_timeout))``, so every pool
    opened inside injects, including one given an explicit config
    without a fault of its own.

    Modes: ``kill`` (``os._exit`` → ``BrokenProcessPool``), ``hang``
    (sleep ``hang_seconds`` before computing — pair with
    ``stall_timeout`` so the parent reclaims the worker), ``corrupt``
    (perturb the result after checksumming, so the parent detects and
    retries), ``raise`` (an exception out of the chunk fn).  Serial
    downgrade never injects: it is the last-resort correctness path.
    """

    def __init__(
        self,
        mode: str = "kill",
        rate: float = 0.2,
        seed: int = 0,
        hang_seconds: float = 2.0,
        stall_timeout: float | None = None,
    ) -> None:
        self.spec = FaultSpec(mode, rate, seed, hang_seconds)
        self.stall_timeout = stall_timeout
        self._token: Token | None = None

    def __enter__(self) -> "ChunkFaultInjector":
        self._token = _CONFIG.set(replace(
            current_config(), fault=self.spec,
            stall_timeout_seconds=self.stall_timeout,
        ))
        return self

    def __exit__(self, *exc) -> bool:
        _CONFIG.reset(self._token)
        self._token = None
        return False


def _result_digest(value: Any) -> int:
    """Integrity checksum over the pickled result (fault runs only)."""
    return zlib.crc32(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


#: The shared-args tuple of the executor this worker belongs to, set
#: once per worker by :func:`_worker_init`.
_WORKER_SHARED: tuple = ()


def _worker_init(shared: tuple) -> None:
    """Executor initializer: install the fan-out's shared args."""
    global _WORKER_SHARED
    _WORKER_SHARED = shared


def _execute_chunk(
    fn: Callable[..., Any],
    args: tuple,
    index: int,
    attempt: int,
    spec: FaultSpec | None,
) -> tuple[int, int | None, Any]:
    """Worker-side wrapper: run one chunk, applying any armed fault.

    Returns ``(index, digest, value)``; ``digest`` is ``None`` (and no
    extra pickling happens) when no injector is armed.
    """
    fired = spec is not None and fault_fires(spec, index, attempt)
    if fired:
        if spec.mode == "kill":
            os._exit(_FAULT_EXIT_CODE)
        if spec.mode == "raise":
            raise InjectedChunkFault(
                f"injected failure in chunk {index} (attempt {attempt})"
            )
        if spec.mode == "hang":
            deadline = time.perf_counter() + spec.hang_seconds
            while time.perf_counter() < deadline:
                time.sleep(0.02)
    value = fn(*_WORKER_SHARED, *args)
    if spec is None:
        return index, None, value
    digest = _result_digest(value)
    if fired and spec.mode == "corrupt":
        value = ("__corrupt__", value)
    return index, digest, value


# ----------------------------------------------------------------------
# The pool

_UNSET = object()


class ResilientPool:
    """Deterministic chunk fan-out that survives worker loss.

    One instance is cheap and stateless between :meth:`run` calls; the
    module-level :func:`run_chunks` is the one-shot convenience the
    engines use.  See the module docstring for the recovery ladder.
    ``config=None`` takes :func:`current_config` at construction; a
    config without a fault still injects the one armed in the scope
    :meth:`run` is called in.
    """

    def __init__(
        self,
        config: PoolConfig | None = None,
        label: str | None = None,
    ) -> None:
        self.config = config or current_config()
        self.label = label or "pool"

    # -- public API -----------------------------------------------------

    def run(
        self,
        fn: Callable[..., Any],
        arg_tuples: Sequence[tuple],
        *,
        workers: int | None = None,
        tick: Callable[[], None] | None = None,
        shared: Sequence[Any] | None = None,
    ) -> list[Any]:
        """Execute every chunk and return results in chunk-index order.

        ``fn`` must be a module-level (picklable) function and each args
        tuple fully determines its chunk's output — randomness goes in as
        a ``SeedSequence`` spawn-key state, never as live RNG objects
        shared between chunks.  ``tick`` runs in the parent after each
        chunk commits (budget checks).  ``workers`` defaults to one per
        chunk, matching the engines' historical fan-out shape.

        ``shared`` holds big immutable operands common to every chunk;
        workers receive them prepended — ``fn(*shared, *args)`` — but
        they travel once per worker through the executor initializer,
        never once per chunk.  Serial paths use the original objects
        directly, so results are transport-independent.
        """
        n = len(arg_tuples)
        if n == 0:
            return []
        shared = tuple(shared) if shared else ()
        workers = n if workers is None else max(1, min(int(workers), n))
        if workers == 1 or n == 1:
            return self._run_serial(
                fn, arg_tuples, range(n), tick, downgrade=False, shared=shared
            )
        if multiprocessing.current_process().daemon:
            # Daemonic processes (e.g. the isolated-executor worker) may
            # not spawn children, so a nested fan-out runs the same
            # chunks serially — byte-identical, just not parallel.
            _telemetry.current().count("pool.nested_serial")
            return self._run_serial(
                fn, arg_tuples, range(n), tick, downgrade=False, shared=shared
            )

        cfg = self.config
        tele = _telemetry.current()
        spec = cfg.fault or current_config().fault
        tele.count("pool.chunks", n)
        if shared:
            tele.count("pool.transport_pickle")
        results: list[Any] = [_UNSET] * n
        attempts = [0] * n  # total executions started (varies fault draws)
        failures = [0] * n  # attributable failures (counts toward quarantine)
        remaining = set(range(n))
        restarts = 0
        while remaining:
            if restarts > cfg.max_restarts:
                tele.count("pool.serial_downgrades")
                serial = self._run_serial(
                    fn, arg_tuples, sorted(remaining), tick,
                    downgrade=True, shared=shared,
                )
                for i, value in zip(sorted(remaining), serial):
                    results[i] = value
                break
            # One executor generation; the initializer hands the shared
            # tuple to each worker once.
            executor = ProcessPoolExecutor(
                max_workers=min(workers, len(remaining)),
                initializer=_worker_init,
                initargs=(shared,),
            )
            try:
                collapsed = self._drain(
                    executor, fn, arg_tuples, spec,
                    results, attempts, failures, remaining, tick,
                )
            except BaseException:
                self._shutdown(executor, force=True)
                raise
            self._shutdown(executor, force=collapsed)
            if collapsed and remaining:
                restarts += 1
                tele.count("pool.worker_restarts")
                tele.count("pool.chunks_salvaged", n - len(remaining))
        return results

    # -- internals ------------------------------------------------------

    def _run_serial(
        self,
        fn: Callable[..., Any],
        arg_tuples: Sequence[tuple],
        indexes,
        tick: Callable[[], None] | None,
        downgrade: bool,
        shared: tuple = (),
    ) -> list[Any]:
        """In-process execution: the no-fan-out path and the last resort.

        Faults are never injected here — serial execution is the
        correctness backstop, and a ``kill`` fired in-process would take
        the parent down with it.  ``shared`` objects are used directly
        (no transport at all), so a serial downgrade is byte-identical
        to the parallel path it replaces.
        """
        out: list[Any] = []
        for i in indexes:
            try:
                out.append(fn(*shared, *arg_tuples[i]))
            except Exception as exc:
                if not downgrade:
                    raise
                raise ChunkQuarantined(
                    f"{self.label}: chunk {i} failed during serial downgrade",
                    details={
                        "label": self.label,
                        "chunk": int(i),
                        "phase": "serial_downgrade",
                        "last_error": repr(exc),
                    },
                ) from exc
            if tick is not None:
                tick()
        return out

    def _submit(
        self,
        executor: ProcessPoolExecutor,
        fn: Callable[..., Any],
        arg_tuples: Sequence[tuple],
        spec: FaultSpec | None,
        attempts: list[int],
        index: int,
    ) -> Future:
        future = executor.submit(
            _execute_chunk, fn, arg_tuples[index], index, attempts[index], spec
        )
        attempts[index] += 1
        return future

    def _drain(
        self,
        executor: ProcessPoolExecutor,
        fn: Callable[..., Any],
        arg_tuples: Sequence[tuple],
        spec: FaultSpec | None,
        results: list[Any],
        attempts: list[int],
        failures: list[int],
        remaining: set[int],
        tick: Callable[[], None] | None,
    ) -> bool:
        """One executor generation; returns True when it collapsed."""
        cfg = self.config
        tele = _telemetry.current()
        futures: dict[Future, int] = {}
        for i in sorted(remaining):
            try:
                futures[self._submit(executor, fn, arg_tuples, spec, attempts, i)] = i
            except (BrokenProcessPool, RuntimeError):
                # A worker died before the generation was fully submitted
                # (short chunks make this likely); every unfinished chunk
                # is still in ``remaining`` and replays after respawn.
                return True
        pending = set(futures)
        while pending:
            done, pending = wait(
                pending, timeout=cfg.stall_timeout_seconds,
                return_when=FIRST_COMPLETED,
            )
            if not done:
                # Stall: nothing finished inside the window — treat the
                # executor as wedged and reclaim its workers.
                return True
            collapsed = False
            for future in done:
                index = futures[future]
                if future.cancelled():
                    collapsed = True
                    continue
                error = future.exception()
                if isinstance(error, BrokenProcessPool):
                    collapsed = True
                    continue
                if error is None:
                    __, digest, value = future.result()
                    if digest is not None and digest != _result_digest(value):
                        tele.count("pool.corrupt_results")
                        error = PoolError(
                            f"{self.label}: chunk {index} returned a corrupt "
                            "result (checksum mismatch)"
                        )
                    else:
                        results[index] = value
                        remaining.discard(index)
                        if tick is not None:
                            tick()
                        continue
                # Attributable chunk failure: bounded retry with backoff.
                failures[index] += 1
                if failures[index] >= cfg.retries:
                    raise ChunkQuarantined(
                        f"{self.label}: chunk {index} quarantined after "
                        f"{failures[index]} failed attempts: {error}",
                        details={
                            "label": self.label,
                            "chunk": int(index),
                            "failed_attempts": failures[index],
                            "last_error": repr(error),
                        },
                    ) from error
                tele.count("pool.chunk_retries")
                time.sleep(cfg.backoff_seconds * 2.0 ** (failures[index] - 1))
                try:
                    retry = self._submit(
                        executor, fn, arg_tuples, spec, attempts, index
                    )
                except (BrokenProcessPool, RuntimeError):
                    # The executor died under us mid-retry; the chunk is
                    # still in ``remaining`` and replays after respawn.
                    collapsed = True
                    continue
                futures[retry] = index
                pending.add(retry)
            if collapsed:
                return True
        return False

    def _shutdown(self, executor: ProcessPoolExecutor, force: bool) -> None:
        """Dismantle one executor generation, leaving no orphan workers.

        ``force`` hard-terminates workers still running (collapse, stall,
        ``KeyboardInterrupt``, any exception mid-iteration); the clean
        path still cancels queued work so an early return cannot leave
        chunks running behind the caller's back.
        """
        procs = list(getattr(executor, "_processes", {}).values() or [])
        try:
            executor.shutdown(wait=not force, cancel_futures=True)
        except Exception:  # pragma: no cover - broken executor internals
            pass
        if force:
            for proc in procs:
                try:
                    if proc.is_alive():
                        proc.terminate()
                except Exception:  # pragma: no cover - already reaped
                    continue
            deadline = time.perf_counter() + self.config.grace_seconds
            for proc in procs:
                try:
                    proc.join(max(0.0, deadline - time.perf_counter()))
                    if proc.is_alive():
                        proc.kill()
                        proc.join(self.config.grace_seconds)
                except Exception:  # pragma: no cover - already reaped
                    continue


def run_chunks(
    fn: Callable[..., Any],
    arg_tuples: Sequence[tuple],
    *,
    workers: int | None = None,
    label: str | None = None,
    tick: Callable[[], None] | None = None,
    config: PoolConfig | None = None,
    shared: Sequence[Any] | None = None,
) -> list[Any]:
    """Run deterministic chunks through a :class:`ResilientPool`.

    The single entry point every engine fans out through — no ad-hoc
    ``ProcessPoolExecutor`` call sites remain outside this module.
    ``shared`` carries the chunk-invariant operands (graph CSR, masks)
    once per worker instead of once per chunk; see :meth:`ResilientPool.run`.
    """
    return ResilientPool(config=config, label=label).run(
        fn, arg_tuples, workers=workers, tick=tick, shared=shared
    )
