"""Gateway observability: counters, latency percentiles, worker throughput.

Everything here is thread-safe (the gateway's event loop, executor
callback threads, and the soak test's reconciliation all read/write
concurrently) and allocation-bounded: latencies go into fixed-size
reservoirs of the most recent samples, so a week-long soak cannot grow
memory, while total count and sum stay exact for the lifetime averages.

The counters are designed to *reconcile*: every received compile request
ends in exactly one of ``warm_hits``, ``completed``, ``failed``,
``cancelled``, ``rejected`` or ``bad_specs`` — the soak test asserts
``received == sum(outcomes)`` once the queue has drained, which is how
leaked or double-counted requests are caught.  (``bad_requests`` counts
malformed *frames*, which are answered before ``received`` is ever
incremented, so it sits outside the ledger.)
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, Optional

__all__ = ["LatencyReservoir", "GatewayMetrics"]


class LatencyReservoir:
    """Percentiles over the last ``capacity`` samples, exact count/sum
    overall."""

    def __init__(self, capacity: int = 2048):
        self._samples: "deque[float]" = deque(maxlen=capacity)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        with self._lock:
            self._samples.append(seconds)
            self._count += 1
            self._sum += seconds
            if seconds > self._max:
                self._max = seconds

    def percentile(self, p: float) -> Optional[float]:
        """p in [0, 100] over the resident window; ``None`` when empty."""
        with self._lock:
            data = sorted(self._samples)
        return self._rank(data, p)

    @staticmethod
    def _rank(data, p: float) -> Optional[float]:
        if not data:
            return None
        rank = max(0, min(len(data) - 1, round(p / 100.0 * (len(data) - 1))))
        return data[rank]

    def summary(self) -> Dict:
        # One lock acquisition for the whole summary: counters and the
        # sorted window come from the same instant, so p50/p95 can never
        # describe a different sample population than `count` (three
        # separate acquisitions allowed a record() to land in between).
        with self._lock:
            count, total, peak = self._count, self._sum, self._max
            data = sorted(self._samples)
        p50, p95 = self._rank(data, 50), self._rank(data, 95)
        return {
            "count": count,
            "p50_ms": None if p50 is None else round(p50 * 1e3, 3),
            "p95_ms": None if p95 is None else round(p95 * 1e3, 3),
            "mean_ms": round(total / count * 1e3, 3) if count else None,
            "max_ms": round(peak * 1e3, 3) if count else None,
        }


#: Counter names with a fixed meaning; snapshot() reports exactly these.
_COUNTERS = (
    "connections_total",     # accepted sockets over the lifetime
    "received",              # well-formed compile requests
    "warm_hits",             # answered from the cache, never queued
    "admitted",              # cold requests that entered the queue
    "rejected",              # admission control said no (overloaded)
    "bad_requests",          # malformed frames answered with errors
    "bad_specs",             # well-formed compiles whose spec won't resolve
    "completed",             # cold compiles that streamed a result
    "failed",                # cold compiles that errored
    "cancelled",             # cancelled by verb or disconnect
    "disconnects",           # client connections torn down
    "worker_restarts",       # process pool rebuilt after a worker died
)


class GatewayMetrics:
    """All gateway counters and latency reservoirs behind one lock."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {name: 0 for name in _COUNTERS}
        self._per_worker: Dict[int, int] = {}
        self.warm_latency = LatencyReservoir()
        self.cold_latency = LatencyReservoir()
        self.queue_wait = LatencyReservoir()
        self.started = time.monotonic()

    def incr(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._counters[name] += delta

    def get(self, name: str) -> int:
        with self._lock:
            return self._counters[name]

    def worker_completed(self, pid: int) -> None:
        with self._lock:
            self._per_worker[pid] = self._per_worker.get(pid, 0) + 1

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counters)

    def snapshot(self) -> Dict:
        uptime = max(time.monotonic() - self.started, 1e-9)
        with self._lock:
            counters = dict(self._counters)
            per_worker = dict(self._per_worker)
        return {
            "uptime_s": round(uptime, 3),
            "requests": counters,
            "latency": {
                "warm": self.warm_latency.summary(),
                "cold": self.cold_latency.summary(),
                "queue_wait": self.queue_wait.summary(),
            },
            "per_worker": {
                str(pid): {
                    "jobs": jobs,
                    "jobs_per_s": round(jobs / uptime, 4),
                }
                for pid, jobs in sorted(per_worker.items())
            },
        }
