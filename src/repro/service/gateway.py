"""Async compile gateway: an admission-controlled streaming daemon.

The seventh architectural layer.  Where ``compile-batch`` amortizes the
content-addressed cache over one process lifetime, the gateway amortizes
it over *many concurrent clients*: a single long-running asyncio process
owns the cache, accepts newline-delimited JSON requests over a local
socket (:mod:`repro.service.protocol`), and streams results back as they
complete — a warm key answers in microseconds while a cold paper-scale
compile is still running behind it.

Request flow::

            ┌──────────── warm lane (never queued) ───────────┐
    frame → resolve → cache probe ─ hit ─→ respond immediately ┘
                          │ miss
                          ▼
              admission control ── full ─→ reject (overloaded)
                          │ admitted
                          ▼
          per-client FIFO queues, drained round-robin   ← fairness
                          │
                          ▼
         in-flight dedupe by fingerprint (followers attach)
                          │
                          ▼
        process-pool workers (shared-store mode) ──→ stream responses

Properties the test battery holds the gateway to:

* **Bounded**: at most ``queue_limit`` undispatched cold jobs globally
  and ``per_client_limit`` outstanding per client; excess is rejected
  with ``overloaded``, never buffered.
* **Fair**: cold dispatch drains client queues round-robin, so one
  client flooding cold misses cannot starve another's single request.
* **Deduplicated**: concurrent requests for one fingerprint compile
  once; followers attach to the in-flight job and all stream the result.
* **Cancellable**: a ``cancel`` verb or a client disconnect removes
  undispatched jobs outright and flags dispatched ones through the
  cooperative-cancellation flag file that
  :func:`repro.core.compiler.compile_program` polls at pass boundaries.
* **Self-healing**: a killed worker process breaks the pool; the gateway
  rebuilds it and retries the in-flight jobs instead of failing them.
* **Accountable**: the ``stats`` verb reconciles — every received
  request ends in exactly one outcome counter, and cache/latency/
  per-worker-throughput numbers come from the same structures the
  benchmark gates.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing
import os
import shutil
import tempfile
import time
from collections import OrderedDict, deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Set, Tuple

from .artifact import loads_artifact, program_to_dict
from .batch import _worker_compile, _worker_init, resolve_spec
from .cache import CompileCache
from .metrics import GatewayMetrics
from .protocol import (
    E_BAD_SPEC,
    E_CANCELLED,
    E_COMPILE,
    E_OVERLOADED,
    E_SHUTTING_DOWN,
    E_UNSUPPORTED,
    MAX_FRAME_BYTES,
    ProtocolError,
    Request,
    encode_frame,
    error_frame,
    hello_frame,
    parse_request,
)

__all__ = ["GatewayConfig", "CompileGateway", "GatewayClient", "prepare_unix_path"]


@dataclass
class GatewayConfig:
    """Everything that shapes one gateway's behavior."""

    #: Unix-domain socket path; when set it wins over host/port.
    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (read it from ``address``).
    port: int = 0
    cache_root: Optional[str] = None
    memory_entries: int = 256
    #: ``>= 1``: a process pool of that width in shared-store mode.
    #: ``0``: compile in one in-process thread (no pool — cheap to start,
    #: used by tests and tiny deployments; cancellation still works).
    workers: int = 1
    #: Global cap on undispatched cold jobs.
    queue_limit: int = 64
    #: Cap on one client's unanswered cold requests.
    per_client_limit: int = 16
    worker_memory_entries: int = 64
    resolve_memo_entries: int = 4096
    metrics_memo_entries: int = 4096
    #: Honor the ``shutdown`` verb (off by default: a local admin signal
    #: should stop the daemon, not any client that can open the socket).
    allow_shutdown: bool = False
    #: Re-dispatch attempts when the process pool breaks under a job.
    dispatch_retries: int = 2
    drain_timeout: float = 30.0
    #: Cluster replication: peer nodes' store directories probed (pull-
    #: through) when the local disk tier misses, before compiling.
    peer_stores: Tuple[str, ...] = ()
    #: How many peers one miss consults (None = all of peer_stores).
    replica_probes: Optional[int] = None


@dataclass
class _Waiter:
    """One client request attached to a cold job."""

    client: "_Client"
    request_id: str
    want: str
    admitted_at: float
    fingerprint: str = ""
    cancelled: bool = False


@dataclass
class _ColdJob:
    """One unique fingerprint being compiled, with every request waiting
    on it."""

    fingerprint: str
    program_dict: Dict
    options: Dict
    label: str
    cancel_path: str
    created_at: float
    waiters: List[_Waiter] = field(default_factory=list)
    dispatched: bool = False
    requeues: int = 0
    #: The client whose pending deque currently holds this job (None once
    #: dispatched); lets pruning reap an abandoned job from the queue
    #: eagerly instead of leaving a capacity-consuming tombstone.
    owner: Optional["_Client"] = None

    def live_waiters(self) -> List[_Waiter]:
        return [w for w in self.waiters
                if not w.cancelled and not w.client.closed]


def _withdraw_cancel_flag(path: str) -> None:
    """Remove a job's cancel-flag file if present (blocking: callers on
    the event loop run this via the executor)."""
    try:
        os.unlink(path)
    except OSError:
        pass


class _Client:
    """Per-connection state, owned by the event loop."""

    _ids = itertools.count(1)

    def __init__(self, writer: asyncio.StreamWriter):
        self.id = next(self._ids)
        self.writer = writer
        self.send_lock = asyncio.Lock()
        self.closed = False
        #: Cold jobs this client is responsible for dispatching (fairness
        #: unit: the round-robin drains one of these per turn).
        self.pending: Deque[_ColdJob] = deque()
        self.in_rr = False
        #: Unanswered cold requests, keyed by request id.
        self.waiting: Dict[str, _Waiter] = {}


class CompileGateway:
    """The daemon.  ``await start()``, then ``await closed_event.wait()``
    or hold it open however the caller likes; ``await close()`` drains and
    releases everything."""

    def __init__(self, config: GatewayConfig,
                 cache: Optional[CompileCache] = None):
        self.config = config
        self.cache = cache if cache is not None else CompileCache(
            config.cache_root, memory_entries=config.memory_entries,
            peer_roots=config.peer_stores,
            replica_probes=config.replica_probes,
        )
        self.metrics = GatewayMetrics()
        self.shutdown_requested = asyncio.Event()
        self._server: Optional[asyncio.AbstractServer] = None
        self._clients: Set[_Client] = set()
        self._cold: Dict[str, _ColdJob] = {}
        self._rr: Deque[_Client] = deque()
        self._queued = 0
        self._in_flight = 0
        self._work = asyncio.Event()
        self._slot_free = asyncio.Event()
        self._slot_free.set()
        self._closing = False
        self._dispatcher: Optional[asyncio.Task] = None
        self._job_tasks: Set[asyncio.Task] = set()
        self._resolve_memo: "OrderedDict[str, Tuple]" = OrderedDict()
        self._metrics_memo: "OrderedDict[str, Dict]" = OrderedDict()
        self._cancel_dir: Optional[Path] = None
        self._cancel_seq = itertools.count(1)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_epoch = 0
        self._pool_lock: Optional[asyncio.Lock] = None
        self._thread_pool: Optional[ThreadPoolExecutor] = None
        self._seen_worker_pids: Set[int] = set()
        #: True once *this* gateway bound its socket; close() only removes
        #: the socket file / sweeps the store when it actually owned them.
        self._bound = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._cancel_dir = Path(await loop.run_in_executor(
            None, lambda: tempfile.mkdtemp(prefix="repro-gw-cancel-")))
        self._pool_lock = asyncio.Lock()
        # Crash recovery: clear droppings a previous incarnation's killed
        # workers may have left mid-publish.  The sweep walks the store
        # directory, so it runs off-loop like every other disk touch here.
        await loop.run_in_executor(None, self.cache.sweep_stale_tmp)
        if self.config.workers >= 1:
            self._pool = self._new_pool()
        else:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="gw-compile"
            )
        if self.config.socket_path:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.socket_path,
                limit=MAX_FRAME_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port,
                limit=MAX_FRAME_BYTES,
            )
        self._bound = True
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    @property
    def address(self) -> str:
        """Human-readable bound address (socket path or ``host:port``)."""
        if self.config.socket_path:
            return self.config.socket_path
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return f"{host}:{port}"

    @property
    def port(self) -> Optional[int]:
        if self.config.socket_path or self._server is None:
            return None
        return self._server.sockets[0].getsockname()[1]

    def _new_pool(self) -> ProcessPoolExecutor:
        # "spawn" keeps pool rebuilds safe no matter how many threads the
        # daemon has accumulated (fork from a threaded process can inherit
        # held locks); workers re-import once and then live for thousands
        # of jobs, so the startup cost amortizes to nothing.
        return ProcessPoolExecutor(
            max_workers=self.config.workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_worker_init,
            initargs=(
                str(self.cache.root) if self.cache.root is not None else None,
                self.config.worker_memory_entries,
                "shared",
            ),
        )

    async def close(self, drain: bool = True) -> None:
        """Stop accepting, optionally drain in-flight work, tear down."""
        self._closing = True
        self._work.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            deadline = time.monotonic() + self.config.drain_timeout
            while ((self._queued or self._in_flight or self._job_tasks)
                   and time.monotonic() < deadline):
                await asyncio.sleep(0.02)
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        for task in list(self._job_tasks):
            task.cancel()
        if self._job_tasks:
            await asyncio.gather(*self._job_tasks, return_exceptions=True)
        # Whatever still waits gets a clean refusal before the socket dies;
        # count each one so the outcome ledger still reconciles (these
        # requests were admitted but will never complete).
        for client in list(self._clients):
            for waiter in list(client.waiting.values()):
                if not waiter.cancelled:
                    waiter.cancelled = True
                    self.metrics.incr("rejected")
                    await self._send(client, error_frame(
                        "compile", waiter.request_id, E_SHUTTING_DOWN,
                        "gateway is shutting down",
                    ))
            client.closed = True
            try:
                client.writer.close()
            except Exception:
                pass
        if self._pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: self._pool.shutdown(wait=True, cancel_futures=True)
            )
            self._pool = None
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None
        # The teardown disk work (temp-dir removal, orphan sweep, socket
        # unlink) runs off-loop in one hop: close() may overlap live
        # traffic on other gateways sharing this loop.
        await asyncio.get_running_loop().run_in_executor(
            None, self._cleanup_disk)

    def _cleanup_disk(self) -> None:
        """Blocking teardown I/O, executed on the executor by close()."""
        if self._cancel_dir is not None:
            shutil.rmtree(self._cancel_dir, ignore_errors=True)
        # Only when this gateway actually served: another daemon may own
        # the path/store when close() runs after a failed bind, and its
        # socket file and in-flight .tmp publishes must survive.
        if self._bound:
            # All our writers are down: any .tmp left is an orphan
            # (killed worker).
            self.cache.sweep_stale_tmp(max_age_seconds=0.0)
            if (self.config.socket_path
                    and os.path.exists(self.config.socket_path)):
                try:
                    os.unlink(self.config.socket_path)
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        client = _Client(writer)
        self._clients.add(client)
        self.metrics.incr("connections_total")
        await self._send(client, hello_frame())
        try:
            while not client.closed:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over-long line: framing is lost, drop the connection.
                    self.metrics.incr("bad_requests")
                    await self._send(client, error_frame(
                        None, None, "bad-frame", "frame exceeds size limit"))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await self._handle_frame(client, line)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._disconnect(client)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle_frame(self, client: _Client, line: bytes) -> None:
        received_at = time.perf_counter()
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            self.metrics.incr("bad_requests")
            await self._send(client, error_frame(
                None, exc.request_id, exc.code, str(exc)))
            return
        if request.op == "ping":
            await self._send(client, {"op": "pong", "id": request.id, "ok": True})
        elif request.op == "stats":
            await self._send(client, {
                "op": "stats", "id": request.id, "ok": True,
                "stats": self.stats(),
            })
        elif request.op == "shutdown":
            if not self.config.allow_shutdown:
                await self._send(client, error_frame(
                    "shutdown", request.id, E_UNSUPPORTED,
                    "shutdown verb is disabled (start with --allow-shutdown)"))
                return
            await self._send(client, {
                "op": "shutdown", "id": request.id, "ok": True})
            self.shutdown_requested.set()
        elif request.op == "cancel":
            await self._handle_cancel(client, request)
        else:  # compile
            await self._handle_compile(client, request, received_at)

    async def _handle_compile(self, client: _Client, request: Request,
                              received_at: float) -> None:
        self.metrics.incr("received")
        try:
            fingerprint, options, program_dict, label = \
                await self._resolve(request.spec)
        except (ValueError, KeyError, TypeError) as exc:
            self.metrics.incr("bad_specs")
            await self._send(client, error_frame(
                "compile", request.id, E_BAD_SPEC, str(exc)))
            return

        # Warm lane: a cache hit never queues, never touches a worker.
        # The memory front answers inline (lock-guarded dict probe, no
        # I/O).  Only a memory miss with no in-flight compile pays an
        # executor hop for the disk tier: an in-flight fingerprint cannot
        # be on disk yet (the publish happens before the job leaves
        # ``_cold``), and skipping the hop keeps follower attachment
        # suspension-free — see the dedupe path below.
        text = self.cache.get_memory(fingerprint)
        if text is None and fingerprint not in self._cold:
            text = await asyncio.get_running_loop().run_in_executor(
                None, self.cache.get_disk, fingerprint)
        if text is not None:
            frame = self._result_frame(
                request.id, request.want, fingerprint, text,
                cached=True, queued_ms=0.0, compile_ms=0.0,
            )
            if frame is None:
                # Corrupt or stale stored artifact: heal by dropping the
                # entry and falling through to a cold compile.  Discard
                # unlinks the disk entry, so it goes through the executor
                # too.
                await asyncio.get_running_loop().run_in_executor(
                    None, self.cache.discard, fingerprint)
            else:
                await self._send(client, frame)
                self.metrics.incr("warm_hits")
                self.metrics.warm_latency.record(
                    time.perf_counter() - received_at)
                return

        if self._closing:
            await self._send(client, error_frame(
                "compile", request.id, E_SHUTTING_DOWN,
                "gateway is shutting down"))
            self.metrics.incr("rejected")
            return

        # Cold lane: admission control, then the fairness queue.
        if len(client.waiting) >= self.config.per_client_limit:
            self.metrics.incr("rejected")
            await self._send(client, error_frame(
                "compile", request.id, E_OVERLOADED,
                f"client has {len(client.waiting)} unanswered cold requests "
                f"(limit {self.config.per_client_limit})"))
            return

        waiter = _Waiter(client=client, request_id=request.id,
                         want=request.want, admitted_at=received_at,
                         fingerprint=fingerprint)
        job = self._cold.get(fingerprint)
        if job is not None:
            # Follower: the same fingerprint is already queued or running;
            # attach instead of compiling twice.  Attach *before* any
            # suspension so a job completing mid-await still answers this
            # waiter.
            job.waiters.append(waiter)
            client.waiting[request.id] = waiter
            self.metrics.incr("admitted")
            if job.dispatched:
                # A cancel may have raced in before this new interest;
                # withdraw the flag off-loop — if the worker already
                # honored it, the completion handler re-queues for the
                # new waiters.
                await asyncio.get_running_loop().run_in_executor(
                    None, _withdraw_cancel_flag, job.cancel_path)
            return

        if self._queued >= self.config.queue_limit:
            self.metrics.incr("rejected")
            await self._send(client, error_frame(
                "compile", request.id, E_OVERLOADED,
                f"cold queue is full ({self._queued}/{self.config.queue_limit})"))
            return

        job = _ColdJob(
            fingerprint=fingerprint,
            program_dict=program_dict,
            options=options,
            label=label,
            cancel_path=str(
                self._cancel_dir / f"job-{next(self._cancel_seq)}.cancel"),
            created_at=received_at,
            waiters=[waiter],
        )
        client.waiting[request.id] = waiter
        self._cold[fingerprint] = job
        self._enqueue(client, job)
        self.metrics.incr("admitted")

    async def _handle_cancel(self, client: _Client, request: Request) -> None:
        waiter = client.waiting.get(request.id)
        state = "not-found"
        if waiter is not None and not waiter.cancelled:
            waiter.cancelled = True
            del client.waiting[request.id]
            self.metrics.incr("cancelled")
            await self._send(client, error_frame(
                "compile", request.id, E_CANCELLED, "cancelled by request"))
            job = self._cold.get(waiter.fingerprint)
            if job is not None and waiter in job.waiters:
                self._prune_job(job)
                state = "in-flight" if job.dispatched else "cancelled"
            else:
                state = "cancelled"
        await self._send(client, {
            "op": "cancel", "id": request.id, "ok": True, "state": state})

    def _disconnect(self, client: _Client) -> None:
        if client not in self._clients:
            return
        self._clients.discard(client)
        client.closed = True
        self.metrics.incr("disconnects")
        cancelled = 0
        for waiter in client.waiting.values():
            if not waiter.cancelled:
                waiter.cancelled = True
                cancelled += 1
        client.waiting.clear()
        if cancelled:
            self.metrics.incr("cancelled", cancelled)
        # Jobs this client was queued to dispatch: hand live ones to a
        # surviving waiter's client, drop the rest.
        while client.pending:
            job = client.pending.popleft()
            job.owner = None
            self._queued -= 1
            survivors = job.live_waiters()
            if survivors:
                self._enqueue(survivors[0].client, job)
            else:
                self._cold.pop(job.fingerprint, None)
        # Jobs elsewhere whose last waiter just left: flag in-flight
        # workers, reap abandoned queued jobs from other clients' deques.
        for job in list(self._cold.values()):
            self._prune_job(job)

    def _prune_job(self, job: _ColdJob) -> None:
        """Drop dead waiters; cancel the underlying work when none remain."""
        job.waiters = [w for w in job.waiters
                       if not w.cancelled and not w.client.closed]
        if job.waiters:
            return
        if job.dispatched:
            # Cooperative: the worker notices at its next pass boundary.
            try:
                Path(job.cancel_path).touch()
            except OSError:
                pass
            return
        # Undispatched and nobody waiting: reap it now so it stops
        # consuming queue_limit capacity against other clients.
        if job.owner is not None:
            try:
                job.owner.pending.remove(job)
            except ValueError:
                pass
            else:
                self._queued -= 1
            job.owner = None
        self._cold.pop(job.fingerprint, None)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _enqueue(self, client: _Client, job: _ColdJob) -> None:
        client.pending.append(job)
        job.owner = client
        self._queued += 1
        if not client.in_rr:
            self._rr.append(client)
            client.in_rr = True
        self._work.set()

    def _pop_next_job(self) -> Optional[_ColdJob]:
        """Round-robin pop: one job from the head client, then rotate."""
        while self._rr:
            client = self._rr.popleft()
            if not client.pending:
                client.in_rr = False
                continue
            job = client.pending.popleft()
            job.owner = None
            if client.pending:
                self._rr.append(client)
            else:
                client.in_rr = False
            self._queued -= 1
            if not job.live_waiters():
                self._cold.pop(job.fingerprint, None)
                continue
            return job
        return None

    async def _dispatch_loop(self) -> None:
        while True:
            await self._work.wait()
            if self._closing and self._queued == 0:
                return
            # Width throttle first: a job stays *in the queue* (visible to
            # admission control as depth) until a compile slot is free —
            # at most `workers` in flight (1 for the thread mode).  Slot
            # exhaustion parks on an event _run_job sets when one frees,
            # rather than polling.
            if self._in_flight >= max(self.config.workers, 1):
                # Arm the event *before* any suspension: clearing it after
                # an await could eat the wakeup of a job that finished
                # meanwhile, with no running job left to ever set it
                # again (dispatcher deadlock).
                self._slot_free.clear()
                await self._slot_free.wait()
                continue
            job = self._pop_next_job()
            if job is None:
                self._work.clear()
                if self._closing:
                    return
                continue
            job.dispatched = True
            self._in_flight += 1
            self.metrics.queue_wait.record(time.perf_counter() - job.created_at)
            task = asyncio.create_task(self._run_job(job))
            self._job_tasks.add(task)
            task.add_done_callback(self._job_tasks.discard)

    async def _run_job(self, job: _ColdJob) -> None:
        loop = asyncio.get_running_loop()
        payload = (job.fingerprint, job.program_dict, job.options,
                   job.cancel_path)
        outcome: Optional[Tuple] = None
        failure: Optional[str] = None
        try:
            for attempt in range(self.config.dispatch_retries + 1):
                epoch = self._pool_epoch
                try:
                    # Thread mode runs the very same worker entry point in
                    # this process: batch._WORKER_CACHE is never initialized
                    # here, so it compiles cache-less and the parent's put
                    # below keeps the stats single-counted.
                    executor = self._pool if self._pool is not None \
                        else self._thread_pool
                    outcome = await loop.run_in_executor(
                        executor, _worker_compile, payload)
                    break
                except BrokenProcessPool:
                    await self._rebuild_pool(epoch)
                    if attempt == self.config.dispatch_retries:
                        failure = "worker pool kept breaking under this job"
                except Exception as exc:  # compile bug / bad program
                    failure = f"{type(exc).__name__}: {exc}"
                    break
        finally:
            self._in_flight -= 1
            self._slot_free.set()
            self._work.set()

        await loop.run_in_executor(None, _withdraw_cancel_flag, job.cancel_path)

        if outcome is None:
            self._drop_cold(job)
            await self._finish_job(job, None, 0.0, None, failed=failure
                                   or "dispatch failed")
            return

        _fp, text, elapsed, result_metrics, stats_delta, pid = outcome
        self._seen_worker_pids.add(pid)
        if pid != os.getpid() and self.cache.root is not None:
            # Shared-store worker: its counter movement is real store
            # activity whether or not the compile finished — absorb it
            # exactly once, cancelled jobs included.
            self.cache.stats.absorb(stats_delta)
        if text is None:
            # The worker honored the cancel flag.  If someone attached
            # after the flag was withdrawn too late, compile again for
            # them; otherwise everyone is gone and the job just ends.
            survivors = job.live_waiters()
            if survivors and job.requeues < 3:
                job.requeues += 1
                job.dispatched = False
                self._cold[job.fingerprint] = job
                self._enqueue(survivors[0].client, job)
                return
            self._drop_cold(job)
            await self._finish_job(job, None, elapsed, None, cancelled=True)
            return

        if pid != os.getpid() and self.cache.root is not None:
            # Shared-store worker: bytes are already on disk and counted
            # (absorbed above) — just make the key hot here (memory-only,
            # loop-safe).
            self.cache.promote(job.fingerprint, text)
        else:
            # Thread-mode compile or private store: the put publishes to
            # disk, so it takes the executor hop.
            await loop.run_in_executor(
                None, self.cache.put, job.fingerprint, text)
        # Only now drop the dedupe entry: the artifact is resident, so a
        # request landing in any suspension above either attached to this
        # job (answered below) or will hit the cache.
        self._drop_cold(job)
        self.metrics.worker_completed(pid)
        self._remember_metrics(job.fingerprint, result_metrics)
        await self._finish_job(job, text, elapsed, result_metrics)

    def _drop_cold(self, job: _ColdJob) -> None:
        """Retire a job's dedupe entry (unless a requeue replaced it)."""
        if self._cold.get(job.fingerprint) is job:
            del self._cold[job.fingerprint]

    async def _finish_job(self, job: _ColdJob, text: Optional[str],
                          elapsed: float, result_metrics: Optional[Dict],
                          failed: Optional[str] = None,
                          cancelled: bool = False) -> None:
        now = time.perf_counter()
        for waiter in job.waiters:
            alive = not waiter.cancelled and not waiter.client.closed
            waiter.client.waiting.pop(waiter.request_id, None)
            if not alive:
                continue
            if cancelled:
                waiter.cancelled = True
                self.metrics.incr("cancelled")
                await self._send(waiter.client, error_frame(
                    "compile", waiter.request_id, E_CANCELLED,
                    "compile cancelled"))
            elif failed is not None:
                self.metrics.incr("failed")
                await self._send(waiter.client, error_frame(
                    "compile", waiter.request_id, E_COMPILE, failed))
            else:
                frame = self._result_frame(
                    waiter.request_id, waiter.want, job.fingerprint, text,
                    cached=False,
                    queued_ms=(now - waiter.admitted_at - elapsed) * 1e3,
                    compile_ms=elapsed * 1e3,
                    known_metrics=result_metrics,
                )
                self.metrics.incr("completed")
                self.metrics.cold_latency.record(now - waiter.admitted_at)
                await self._send(waiter.client, frame)

    async def _rebuild_pool(self, epoch: int) -> None:
        async with self._pool_lock:
            if self._pool_epoch != epoch or self._pool is None:
                return
            broken = self._pool
            self._pool = self._new_pool()
            self._pool_epoch += 1
            self.metrics.incr("worker_restarts")
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: broken.shutdown(wait=False, cancel_futures=True))

    # ------------------------------------------------------------------
    # Resolution / response assembly
    # ------------------------------------------------------------------
    async def _resolve(self, spec: Dict) -> Tuple[str, Dict, Dict, str]:
        """Spec → (fingerprint, options, program payload, label), memoized
        so repeat traffic skips program construction entirely.

        Memo hits return synchronously; a miss builds the program and
        hashes its canonical form on the default thread executor so a
        heavy first-time registry spec cannot stall the warm lane (two
        racing misses on one key both compute — the result is
        deterministic, so the second write is a harmless overwrite).
        """
        key = json.dumps(spec, sort_keys=True, separators=(",", ":"))
        hit = self._resolve_memo.get(key)
        if hit is not None:
            self._resolve_memo.move_to_end(key)
            return hit
        entry = await asyncio.get_running_loop().run_in_executor(
            None, self._resolve_uncached, spec)
        self._resolve_memo[key] = entry
        while len(self._resolve_memo) > self.config.resolve_memo_entries:
            self._resolve_memo.popitem(last=False)
        return entry

    @staticmethod
    def _resolve_uncached(spec: Dict) -> Tuple[str, Dict, Dict, str]:
        job = resolve_spec(spec)
        return (job.fingerprint(), job.options,
                program_to_dict(job.program), job.label)

    def _remember_metrics(self, fingerprint: str,
                          result_metrics: Optional[Dict]) -> None:
        if result_metrics is None:
            return
        self._metrics_memo[fingerprint] = result_metrics
        self._metrics_memo.move_to_end(fingerprint)
        while len(self._metrics_memo) > self.config.metrics_memo_entries:
            self._metrics_memo.popitem(last=False)

    def _result_frame(self, request_id: str, want: str, fingerprint: str,
                      text: str, cached: bool, queued_ms: float,
                      compile_ms: float,
                      known_metrics: Optional[Dict] = None) -> Optional[Dict]:
        """Build one success frame; ``None`` if the artifact is corrupt.

        Every ``want`` validates the artifact the same way: it is decoded
        unless its metrics are already memoized, so an ``ack`` is never
        answered from a corrupt or stale stored document.
        """
        frame = {
            "op": "compile", "id": request_id, "ok": True,
            "fingerprint": fingerprint, "cached": cached,
            "queued_ms": round(max(queued_ms, 0.0), 3),
            "compile_ms": round(compile_ms, 3),
        }
        metrics = known_metrics
        if metrics is None:
            metrics = self._metrics_memo.get(fingerprint)
            if metrics is not None:
                self._metrics_memo.move_to_end(fingerprint)
        if metrics is None:
            try:
                metrics = loads_artifact(text).metrics
            except (ValueError, KeyError, TypeError, AttributeError):
                return None
            self._remember_metrics(fingerprint, metrics)
        if want in ("metrics", "artifact"):
            frame["metrics"] = metrics
        if want == "artifact":
            frame["artifact"] = json.loads(text)
        return frame

    async def _send(self, client: _Client, frame: Dict) -> bool:
        if client.closed:
            return False
        async with client.send_lock:
            if client.closed:
                return False
            try:
                client.writer.write(encode_frame(frame))
                await client.writer.drain()
                return True
            except (ConnectionError, RuntimeError, OSError):
                client.closed = True
                return False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def worker_pids(self) -> List[int]:
        """Live pool worker pids (process mode), best effort."""
        if self._pool is None:
            return []
        try:
            return sorted(self._pool._processes.keys())
        except AttributeError:  # private layout changed: fall back
            return sorted(self._seen_worker_pids)

    def stats(self) -> Dict:
        snap = self.metrics.snapshot()
        # The daemon's own pid, so a cluster supervisor / soak harness can
        # target the node process behind a router without guessing.
        snap["pid"] = os.getpid()
        cache = self.cache.stats.as_dict()
        cache["hit_rate"] = (
            round(cache["hits"] / cache["lookups"], 4)
            if cache["lookups"] else None
        )
        snap["cache"] = cache
        snap["queue"] = {
            "depth": self._queued,
            "limit": self.config.queue_limit,
            "in_flight": self._in_flight,
            "cold_fingerprints": len(self._cold),
        }
        snap["connections"] = len(self._clients)
        snap["workers"] = {
            "mode": "process" if self.config.workers >= 1 else "thread",
            "configured": self.config.workers,
            "pids": self.worker_pids(),
            "restarts": self.metrics.get("worker_restarts"),
        }
        try:
            snap["open_fds"] = len(os.listdir("/proc/self/fd"))
        except OSError:
            snap["open_fds"] = None
        return snap


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------

class GatewayClient:
    """Asyncio client for the gateway protocol (CLI, benchmark, tests).

    Serial helpers (:meth:`compile`, :meth:`stats`, :meth:`ping`) do one
    round trip; :meth:`run_specs` pipelines a whole corpus with a bounded
    in-flight window and collects streamed responses by id.
    """

    #: Ceiling on out-of-band frames parked for a later request(); beyond
    #: it the oldest are dropped (e.g. cancelled-compile errors nobody
    #: will ever ask for), so a long-lived client cannot leak memory.
    STASH_LIMIT = 256

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._stash: "OrderedDict[str, Dict]" = OrderedDict()
        self.hello: Optional[Dict] = None

    def _stash_frame(self, frame: Dict) -> None:
        self._stash[str(frame.get("id"))] = frame
        while len(self._stash) > self.STASH_LIMIT:
            self._stash.popitem(last=False)

    @classmethod
    async def connect(cls, socket_path: Optional[str] = None,
                      host: str = "127.0.0.1", port: int = 0,
                      timeout: float = 10.0) -> "GatewayClient":
        if socket_path:
            opening = asyncio.open_unix_connection(
                socket_path, limit=MAX_FRAME_BYTES)
        else:
            opening = asyncio.open_connection(
                host, port, limit=MAX_FRAME_BYTES)
        reader, writer = await asyncio.wait_for(opening, timeout)
        client = cls(reader, writer)
        client.hello = await asyncio.wait_for(client._read_frame(), timeout)
        return client

    async def _read_frame(self) -> Dict:
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("gateway closed the connection")
        return json.loads(line)

    async def _send(self, frame: Dict) -> None:
        self._writer.write(encode_frame(frame))
        await self._writer.drain()

    async def request(self, frame: Dict, timeout: float = 300.0) -> Dict:
        """One round trip; tolerates interleaved responses to other ids."""
        await self._send(frame)
        want_id = str(frame.get("id"))
        if want_id in self._stash:
            return self._stash.pop(want_id)
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"no response for id {want_id!r}")
            response = await asyncio.wait_for(self._read_frame(), remaining)
            if str(response.get("id")) == want_id:
                return response
            self._stash_frame(response)

    async def compile(self, spec: Dict, request_id: str = "c1",
                      want: str = "metrics", timeout: float = 300.0,
                      tenant: Optional[str] = None) -> Dict:
        frame = {"op": "compile", "id": request_id, "spec": spec, "want": want}
        if tenant is not None:
            frame["tenant"] = tenant
        return await self.request(frame, timeout=timeout)

    async def stats(self, timeout: float = 30.0) -> Dict:
        response = await self.request({"op": "stats", "id": "_stats"},
                                      timeout=timeout)
        return response["stats"]

    async def ping(self, timeout: float = 30.0) -> Dict:
        return await self.request({"op": "ping", "id": "_ping"},
                                  timeout=timeout)

    async def cancel(self, request_id: str, timeout: float = 30.0) -> Dict:
        """Cancel a compile; returns the cancel acknowledgement frame."""
        await self._send({"op": "cancel", "id": request_id})
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            response = await asyncio.wait_for(self._read_frame(), remaining)
            if response.get("op") == "cancel" and \
                    str(response.get("id")) == str(request_id):
                return response
            self._stash_frame(response)

    async def run_specs(self, specs: List[Dict], want: str = "metrics",
                        window: int = 32, id_prefix: str = "q",
                        timeout: float = 600.0,
                        tenant: Optional[str] = None,
                        ) -> Tuple[List[Optional[Dict]], List[float]]:
        """Pipeline ``specs`` with ≤ ``window`` in flight.

        Returns ``(responses_by_input_index, per_request_latency_seconds)``;
        responses stream back in completion order and are re-keyed by id.
        """
        results: List[Optional[Dict]] = [None] * len(specs)
        latencies: List[float] = [0.0] * len(specs)
        sent_at: Dict[str, Tuple[int, float]] = {}
        next_index = 0
        outstanding = 0
        deadline = time.monotonic() + timeout

        async def send_next():
            nonlocal next_index, outstanding
            rid = f"{id_prefix}{next_index}"
            sent_at[rid] = (next_index, time.perf_counter())
            frame = {"op": "compile", "id": rid,
                     "spec": specs[next_index], "want": want}
            if tenant is not None:
                frame["tenant"] = tenant
            await self._send(frame)
            next_index += 1
            outstanding += 1

        while next_index < len(specs) and outstanding < window:
            await send_next()
        while outstanding:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("corpus run timed out")
            response = await asyncio.wait_for(self._read_frame(), remaining)
            rid = str(response.get("id"))
            if rid not in sent_at:
                self._stash_frame(response)
                continue
            index, t0 = sent_at.pop(rid)
            results[index] = response
            latencies[index] = time.perf_counter() - t0
            outstanding -= 1
            if next_index < len(specs):
                await send_next()
        return results, latencies

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except Exception:
            pass


def prepare_unix_path(path: str) -> None:
    """Make ``path`` bindable: remove a *stale* socket file, but raise
    ``OSError(EADDRINUSE)`` if a live gateway is already listening there.
    A path that exists but is not a socket (a typo'd data file) is never
    touched — the bind fails instead of the file being deleted."""
    import errno
    import socket as socket_module
    import stat

    if not os.path.exists(path):
        return
    if not stat.S_ISSOCK(os.stat(path).st_mode):
        raise OSError(
            errno.EEXIST,
            f"{path} exists and is not a socket; refusing to replace it")
    probe = socket_module.socket(socket_module.AF_UNIX,
                                 socket_module.SOCK_STREAM)
    try:
        probe.settimeout(0.5)
        probe.connect(path)
    except (ConnectionRefusedError, socket_module.timeout, OSError):
        os.unlink(path)  # stale: nobody home
    else:
        raise OSError(errno.EADDRINUSE,
                      f"a gateway is already listening on {path}")
    finally:
        probe.close()
