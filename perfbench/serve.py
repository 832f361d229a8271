"""Served traffic through a real ``repro serve-cluster``.

One client keeps two compile requests in flight (a closed loop) against a
2-node cluster with one worker per node.  Warm requests repeat the 31
Table 1 specs at small scale (reads: fingerprint, cache get, router hop);
cold requests are unique seeded random programs (writes: worker compile,
artifact encode, cache put).  Every cluster gets a fresh store, is warmed
and primed before timing starts, and must drain to exit code 0 with no
process or socket left behind.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    ROOT,
    WORK,
    child_env,
    cold_backend,
    cold_indices,
    cold_program,
    hot_specs,
    median,
)
from checks import check_result
from repro.service import GatewayClient, HashRing, program_to_dict, result_from_dict

NODES = 2
IN_FLIGHT = 2
#: Requests per pipelined batch: 12 warm for every cold request.
CHUNK_WARM = 240
CHUNK_COLD = 20
#: Sample floors of every session: p99 of warm and p90 of cold latency
#: with at least 10 samples beyond them.
MIN_WARM = 1000
MIN_COLD = 100
#: Cold artifacts fetched and verified after the timed phase.
VERIFY_COUNT = 12
#: Routed/direct pairs of the router-hop probe (traced sessions only).
HOP_ROUNDS = 200
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class ClusterError(RuntimeError):
    """The cluster failed to start, answer, or drain cleanly."""


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z"


def _descendants(root: int) -> List[int]:
    """Pids of every live process below ``root`` (by parent links)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (FileNotFoundError, ProcessLookupError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    found, stack = [], [root]
    while stack:
        for child in children.get(stack.pop(), []):
            found.append(child)
            stack.append(child)
    return found


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ClusterError(f"no VmHWM for pid {pid}")


class Cluster:
    """``repro.cli serve-cluster`` in its own session, store and sockets.

    Paths are relative to the checkout root (the working directory of
    every process involved) so unix socket paths stay short wherever the
    checkout lives.
    """

    def __init__(self, name: str):
        self.dir = Path(WORK) / name
        self.state = self.dir / "state"
        self.tmp = self.dir / "tmp"
        self.router_socket = str(self.state / "router.sock")
        self.node_sockets = {
            f"node-{i}": str(self.state / f"node-{i}.sock") for i in range(NODES)
        }
        self.proc: Optional[subprocess.Popen] = None
        self.pids: List[int] = []

    async def start(self) -> float:
        """Launch and wait until the router listens; returns seconds."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        log_path = self.dir / "cluster.log"
        started = time.perf_counter()
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve-cluster",
                 str(self.state), "--nodes", str(NODES), "--workers", "1"],
                stdout=log, stderr=subprocess.STDOUT, cwd=str(ROOT),
                env=child_env(str(self.tmp)), start_new_session=True,
            )
        deadline = started + START_TIMEOUT_S
        while "cluster listening" not in log_path.read_text():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise ClusterError(
                    f"cluster did not start: {log_path.read_text()[-500:]!r}")
            await asyncio.sleep(0.005)
        return time.perf_counter() - started

    async def warm_workers(self) -> None:
        """One FT and one SC compile straight to each node, so every worker
        has imported its compile path before anything is timed.  The
        programs differ per node: a shared fingerprint would be pulled
        from the peer's store instead of compiled."""

        async def warm(index: int, socket_path: str) -> None:
            client = await GatewayClient.connect(socket_path=socket_path)
            try:
                for backend in ("ft", "sc"):
                    text = f"{{(XZYX, 1.0), (ZZII, 0.5), 0.{index + 1}}};"
                    response = await client.compile(
                        {"text": text, "backend": backend},
                        request_id=f"warm-{backend}", timeout=120)
                    if not response.get("ok"):
                        raise ClusterError(f"warm-up failed: {response}")
            finally:
                await client.close()

        await asyncio.gather(*(warm(index, path) for index, path
                               in enumerate(self.node_sockets.values())))

    async def stats(self, client: GatewayClient) -> Dict:
        stats = await client.stats()
        pids = [stats["router"]["pid"]]
        for name, node in stats["nodes"].items():
            if not node.get("healthy") or not node.get("stats"):
                raise ClusterError(f"{name} is not healthy: {node}")
            pids.append(node["stats"]["pid"])
            pids.extend(node["stats"]["workers"]["pids"])
        self.pids = pids
        return stats

    def peak_rss_mb(self) -> float:
        return sum(_vm_hwm_mb(pid) for pid in self.pids)

    def stop(self) -> None:
        """SIGTERM, then require exit 0, no survivors and no sockets.

        Survivors are killed before the failure is reported, so a bad
        drain cannot slow the runs after it.
        """
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        problems = []
        tracked = set(self.pids) | set(_descendants(proc.pid))
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
        if code != 0:
            log = (self.dir / "cluster.log").read_text()[-800:]
            problems.append(f"serve-cluster exited with {code}: {log!r}")
        survivors = sorted(pid for pid in tracked if _alive(pid))
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in survivors) and time.monotonic() < deadline:
            time.sleep(0.05)
        if survivors:
            problems.append(f"processes left running: {survivors}")
        sockets = [p for p in [self.router_socket, *self.node_sockets.values()]
                   if os.path.exists(p)]
        if sockets:
            problems.append(f"sockets left behind: {sockets}")
        shutil.rmtree(self.dir, ignore_errors=True)
        if problems:
            raise ClusterError("; ".join(problems))


@dataclass
class Traffic:
    """What the closed loop sent and got back."""

    warm_ms: List[float] = field(default_factory=list)
    cold_ms: List[float] = field(default_factory=list)
    warm_frames: List[Dict] = field(default_factory=list)
    cold_frames: Dict[int, Dict] = field(default_factory=dict)
    wall_s: float = 0.0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)


class ServeMix:
    """Hot set, cold stream and request order for one seed.

    ``backend`` restricts both to one backend's share (the library
    workloads' service probe serves only its own share of the mix).
    """

    def __init__(self, seed: int, backend: Optional[str] = None):
        self.seed = seed
        self.hot = hot_specs(backend)
        self.cold = cold_indices(backend)
        self.rng = random.Random(f"serve-mix/{seed}/{backend}")
        #: Warm requests cycle through the hot set, so every spec has the
        #: same share of them whatever the seed; the seed shuffles the order.
        self.warm_sent = 0
        #: Metrics of every hot spec as first served (prime phase).
        self.hot_metrics: Dict[int, Dict] = {}
        self.hot_fingerprints: Dict[int, str] = {}

    def chunk(self) -> List[Tuple[str, int, Dict]]:
        requests = [("warm", (self.warm_sent + k) % len(self.hot), None)
                    for k in range(CHUNK_WARM)]
        self.warm_sent += CHUNK_WARM
        requests += [("cold", next(self.cold), None) for _ in range(CHUNK_COLD)]
        self.rng.shuffle(requests)
        out = []
        for kind, index, _ in requests:
            if kind == "warm":
                spec = self.hot[index]
            else:
                spec = {"program": program_to_dict(cold_program(self.seed, index)),
                        "backend": cold_backend(index)}
            out.append((kind, index, spec))
        return out


async def prime(client: GatewayClient, mix: ServeMix) -> None:
    responses, _ = await client.run_specs(
        mix.hot, window=IN_FLIGHT, id_prefix="prime", timeout=300)
    for index, response in enumerate(responses):
        if not (response and response.get("ok")):
            raise ClusterError(f"priming {mix.hot[index]} failed: {response}")
        mix.hot_metrics[index] = response["metrics"]
        mix.hot_fingerprints[index] = response["fingerprint"]


async def closed_loop(client: GatewayClient, mix: ServeMix,
                      seconds: float) -> Traffic:
    traffic = Traffic()
    chunk_index = 0
    while (traffic.wall_s < seconds or len(traffic.warm_ms) < MIN_WARM
           or len(traffic.cold_ms) < MIN_COLD):
        requests = mix.chunk()
        started = time.perf_counter()
        responses, latencies = await client.run_specs(
            [spec for _, _, spec in requests], window=IN_FLIGHT,
            id_prefix=f"t{chunk_index}-", timeout=300)
        traffic.wall_s += time.perf_counter() - started
        chunk_index += 1
        traffic.attempted += len(requests)
        for (kind, index, _), response, latency in zip(requests, responses, latencies):
            if not (response and response.get("ok")):
                traffic.failures.append(f"{kind} {index}: {response}")
                continue
            if response.get("cached") != (kind == "warm"):
                traffic.failures.append(
                    f"{kind} request {index} answered with cached={response.get('cached')}")
                continue
            if kind == "warm":
                if response["metrics"] != mix.hot_metrics[index]:
                    traffic.failures.append(
                        f"hot spec {mix.hot[index]} changed metrics: "
                        f"{response['metrics']} != {mix.hot_metrics[index]}")
                    continue
                traffic.warm_ms.append(latency * 1e3)
                traffic.warm_frames.append(dict(response, latency_ms=latency * 1e3))
            else:
                traffic.cold_ms.append(latency * 1e3)
                traffic.cold_frames[index] = dict(response, latency_ms=latency * 1e3)
    return traffic


async def verify_sample(client: GatewayClient, mix: ServeMix,
                        traffic: Traffic) -> Tuple[int, List[str]]:
    """Fetch a seeded sample of cold artifacts and check each against the
    program it was compiled from; returns (checked, failures)."""
    rng = random.Random(f"verify/{mix.seed}")
    done = sorted(traffic.cold_frames)
    sample = rng.sample(done, min(VERIFY_COUNT, len(done)))
    failures: List[str] = []
    for index in sample:
        program = cold_program(mix.seed, index)
        backend = cold_backend(index)
        spec = {"program": program_to_dict(program), "backend": backend}
        frame = await client.compile(spec, request_id=f"fetch-{index}",
                                     want="artifact", timeout=120)
        if not frame.get("ok") or "artifact" not in frame:
            failures.append(f"fetching cold artifact {index} failed: {frame}")
            continue
        result = result_from_dict(frame["artifact"])
        if result.metrics != traffic.cold_frames[index]["metrics"]:
            failures.append(f"cold {index}: artifact metrics {result.metrics} "
                            f"!= served {traffic.cold_frames[index]['metrics']}")
        problem = check_result(program, result, backend)
        if problem:
            failures.append(f"cold {index}: {problem}")
    return len(sample), failures


async def hop_probe(cluster: Cluster, client: GatewayClient,
                    mix: ServeMix) -> float:
    """Warm p50 through the router minus warm p50 straight to the owner
    node, on the same specs, interleaved."""
    ring = HashRing(cluster.node_sockets, vnodes=128)
    direct = {name: await GatewayClient.connect(socket_path=path)
              for name, path in cluster.node_sockets.items()}
    routed_ms: List[float] = []
    direct_ms: List[float] = []
    rng = random.Random(f"hop/{mix.seed}")
    try:
        for step in range(HOP_ROUNDS):
            index = rng.randrange(len(mix.hot))
            owner = direct[ring.owner(mix.hot_fingerprints[index])]
            for target, samples in ((client, routed_ms), (owner, direct_ms)):
                started = time.perf_counter()
                response = await target.compile(
                    mix.hot[index], request_id=f"hop-{step}", timeout=60)
                samples.append((time.perf_counter() - started) * 1e3)
                if not response.get("cached"):
                    raise ClusterError(f"hop probe missed the cache: {response}")
    finally:
        for node_client in direct.values():
            await node_client.close()
    return median(routed_ms) - median(direct_ms)


async def _setup(name: str, mix: ServeMix) -> Tuple[Cluster, GatewayClient, Dict]:
    """Start, warm and prime one cluster; returns it with a router client
    and the set-up timings."""
    cluster = Cluster(name)
    try:
        started = time.perf_counter()
        start_s = await cluster.start()
        await cluster.warm_workers()
        client = await GatewayClient.connect(socket_path=cluster.router_socket)
        primed_at = time.perf_counter()
        await prime(client, mix)
        done = time.perf_counter()
    except BaseException:
        await _stop(cluster, None)
        raise
    return cluster, client, {"setup_s": done - started, "start_s": start_s,
                             "prime_s": done - primed_at}


async def _stop(cluster: Cluster, client: Optional[GatewayClient]) -> None:
    if client is not None:
        await client.close()
    cluster.stop()


async def _serve(seed: int, seconds: float, backend: Optional[str], setups: int,
                 traced: bool) -> Dict:
    mix = ServeMix(seed, backend)
    cluster, client, timing = await _setup("serve", mix)
    setup_runs = [timing]
    try:
        traffic = await closed_loop(client, mix, seconds)
        stats = await cluster.stats(client)
        peak_rss_mb = cluster.peak_rss_mb()
        checked, failures = await verify_sample(client, mix, traffic)
        hop_ms = await hop_probe(cluster, client, mix) if traced else None
    finally:
        await _stop(cluster, client)
    for attempt in range(setups - 1):
        # Extra set-ups after the session, so that the median spans the
        # run: same cold start, fresh store, timed and torn down.
        cluster, client, timing = await _setup(f"setup-{attempt}",
                                               ServeMix(seed, backend))
        setup_runs.append(timing)
        await _stop(cluster, client)
    traffic.failures.extend(failures)
    return {
        "mix": mix, "traffic": traffic, "stats": stats, "setups": setup_runs,
        "peak_rss_mb": peak_rss_mb, "verified": checked, "hop_ms": hop_ms,
    }


def serve(seed: int, seconds: float, backend: Optional[str] = None,
          setups: int = 1, traced: bool = False) -> Dict:
    """One served session of about ``seconds`` (longer if the sample
    floors need it) plus ``setups - 1`` extra timed set-ups; ``traced``
    adds the router-hop probe."""
    return asyncio.run(_serve(seed, seconds, backend, setups, traced))
