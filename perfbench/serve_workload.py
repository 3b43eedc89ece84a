"""The ``serve-mixed`` workload: open-loop traffic against ``repro serve``.

One server process (one executor thread) loads ``nethept`` and ``dblp``
and keeps a warm set: a snapshot σ oracle and an RIS pool per graph.  A
single-process asyncio generator on one connection sends Poisson arrivals
at each rate of a fixed ladder and times every request from the moment it
was *due*, so a stall delays the requests behind it; how late the
generator itself ran is recorded too.  The mix:

* mostly warm ``sigma`` and ``gain`` reads, which the σ coalescer batches;
* some warm ``topk`` (max-cover over the warm RR pool);
* a small share of cache misses: ``topk`` with a fresh RR seed or ``sigma``
  with a fresh oracle seed, each forcing an artifact build on the single
  executor.  The cache budget holds the warm set but not every miss
  artifact, so LRU eviction runs.

Before the ladder a closed-loop burst (a pipelined batch of reads, sent at
once) measures how fast the server drains a full queue.  Afterwards a fixed
sample of answers is checked against the batch path: RIS ``select`` for
``topk`` and a snapshot oracle on the same worlds for ``sigma``/``gain``.
"""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    ROOT, child_env, measure_setup, median, now, peak_rss_bytes, percentile,
    tail_percentile,
)
from layers import PER_LAYER, layer_metrics

DATASETS = ("nethept", "dblp")
MODEL = "WC"
#: Live-edge worlds of the warm σ oracles (the server's ``--worlds``).
WORLDS = 100
WARM_RR_SETS = 10_000
MISS_RR_SETS = 1_000
MISS_WORLDS = 50
#: Holds the warm set (about 4 MB) and some 30 miss artifacts (0.1-0.4 MB
#: each), far fewer than a run builds, so LRU eviction runs.
CACHE_MB = 12.0
#: Share of reads sent to each graph.
DATASET_WEIGHTS = (0.7, 0.3)
MIX = (("sigma", 0.52), ("gain", 0.24), ("topk", 0.18),
       ("miss-topk", 0.02), ("miss-sigma", 0.04))
BURST_MIX = (("sigma", 0.75), ("gain", 0.25))
#: Offered rates (requests/s).  Two cores sustain about 100 req/s of this
#: mix, so the top rung is well over capacity and the one below well under.
RATES = (10.0, 20.0, 40.0, 240.0)
NOMINAL = 20.0
#: Share of the measuring time spent at the nominal rate.
NOMINAL_SHARE = 0.7
#: A rate is sustained when its tail latency stays under this limit, no
#: request fails and the backlog does not grow.
LIMIT_MS = 1000.0
BURST = 128
BURSTS = 7
SETUP_REPEATS = 3
SERVE_TIMEOUT = 60.0


# ----------------------------------------------------------------------
# The server process

class ServerProcess:
    """``repro serve`` in a subprocess; started, warmed and stopped here."""

    def __init__(self, trace: bool = False) -> None:
        cmd = [sys.executable, "-u", str(Path(__file__).with_name("serve_child.py"))]
        if trace:
            cmd.append("--trace")
        cmd += [
            "--", "serve", "--host", "127.0.0.1", "--port", "0",
            "--datasets", ",".join(DATASETS), "--workers", "1",
            "--cache-mb", str(CACHE_MB), "--worlds", str(WORLDS),
            "--oracle", "snapshot",
        ]
        self.started = now()
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
        )
        self.port = None
        self.spans: dict = {}
        self.trace_path = ""
        # A server that never announces is killed, which ends the readline.
        watchdog = threading.Timer(SERVE_TIMEOUT, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
            match = re.search(r" on [^ ]+:(\d+) ", line)
            if match is None:
                raise RuntimeError(f"server did not announce a port: {line!r}")
            self.port = int(match.group(1))
        except BaseException:
            self.kill()
            raise
        finally:
            watchdog.cancel()

    def stop(self) -> None:
        """Ask for shutdown, wait for exit and collect the span summary."""
        try:
            asyncio.run(_one_shot(self.port, {"op": "shutdown"}))
            out, __ = self.proc.communicate(timeout=SERVE_TIMEOUT)
        except BaseException:
            self.kill()
            raise
        for line in out.splitlines():
            if line.startswith("# spans "):
                self.spans = json.loads(line[len("# spans "):])
            elif line.startswith("# trace "):
                self.trace_path = line[len("# trace "):]

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


# ----------------------------------------------------------------------
# Protocol client: one connection, requests matched to replies by id

class Connection:
    def __init__(self) -> None:
        self._pending: dict[int, asyncio.Future] = {}
        self._next = 0
        self._reader_task: asyncio.Task | None = None

    async def open(self, port: int) -> None:
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", port)
        self._reader_task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                reply = json.loads(line)
                future = self._pending.pop(reply.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(reply)
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ConnectionError("server closed the connection"))

    @property
    def outstanding(self) -> int:
        return len(self._pending)

    def send(self, request: dict) -> asyncio.Future:
        rid = self._next
        self._next += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        self.writer.write((json.dumps(dict(request, id=rid)) + "\n").encode())
        return future

    async def call(self, request: dict) -> dict:
        future = self.send(request)
        await self.writer.drain()
        return await asyncio.wait_for(future, SERVE_TIMEOUT)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        if self._reader_task is not None:
            await self._reader_task


async def _one_shot(port: int, request: dict) -> dict:
    conn = Connection()
    await conn.open(port)
    try:
        return await conn.call(request)
    finally:
        await conn.close()


# ----------------------------------------------------------------------
# Requests

def _read(dataset: str, **fields) -> dict:
    return dict(fields, dataset=dataset, model=MODEL)


def warm_set() -> list[dict]:
    """Requests that build the warm artifacts."""
    out = []
    for name in DATASETS:
        out.append(_read(name, op="sigma", seeds=[0], seed=0))
        out.append(_read(name, op="topk", algorithm="RIS", k=1, seed=0,
                         params={"num_rr_sets": WARM_RR_SETS}))
    return out


@dataclass
class Mix:
    """Seeded request generator.

    A batch of ``n`` requests holds each kind in its exact share, shuffled,
    so run-to-run differences come from which nodes and arrival times the
    seed draws, not from how many misses it happened to draw.  Miss seeds
    never repeat within a run.
    """

    rng: np.random.Generator
    sizes: dict[str, int]
    miss_base: int
    misses: int = 0

    def _nodes(self, dataset: str) -> list[int]:
        count = int(self.rng.integers(1, 5))
        picks = self.rng.choice(self.sizes[dataset], size=count, replace=False)
        return sorted(int(v) for v in picks)

    def batch(self, count: int, mix=MIX) -> list[tuple[str, dict]]:
        plan: list[tuple[str, str]] = []
        for kind, share in mix:
            n = round(share * count)
            if kind.startswith("miss"):
                plan += [(kind, "nethept")] * n
            else:
                # Reads split between the graphs in their exact shares too.
                first = round(DATASET_WEIGHTS[0] * n)
                plan += [(kind, DATASETS[0])] * first + [(kind, DATASETS[1])] * (n - first)
        plan = (plan + [("sigma", DATASETS[0])] * count)[:count]
        order = self.rng.permutation(count)
        return [self.request(*plan[i]) for i in order]

    def request(self, kind: str, dataset: str) -> tuple[str, dict]:
        if kind == "sigma":
            return kind, _read(dataset, op="sigma", seeds=self._nodes(dataset), seed=0)
        if kind == "gain":
            seeds = self._nodes(dataset)
            return kind, _read(dataset, op="gain", node=seeds[-1], seeds=seeds[:-1], seed=0)
        if kind == "topk":
            return kind, _read(dataset, op="topk", algorithm="RIS", seed=0,
                               k=int(self.rng.integers(1, 21)),
                               params={"num_rr_sets": WARM_RR_SETS})
        self.misses += 1
        seed = self.miss_base + self.misses
        if kind == "miss-topk":
            return "miss", _read(dataset, op="topk", algorithm="RIS", seed=seed,
                                 k=int(self.rng.integers(1, 21)),
                                 params={"num_rr_sets": MISS_RR_SETS})
        return "miss", _read(dataset, op="sigma", seeds=self._nodes(dataset),
                             seed=seed, worlds=MISS_WORLDS)


@dataclass
class Sample:
    kind: str
    request: dict
    due: float
    lag: float
    latency: float = float("nan")
    reply: dict | None = None
    error: str | None = None


@dataclass
class Phase:
    rate: float
    samples: list[Sample] = field(default_factory=list)
    backlog: list[int] = field(default_factory=list)
    duration: float = 0.0

    def latencies_ms(self) -> list[float]:
        return [1000.0 * s.latency for s in self.samples if s.error is None]

    @property
    def failed(self) -> int:
        return sum(s.error is not None for s in self.samples)

    def tail(self) -> tuple[float, float]:
        """(percentile, latency ms) at the highest percentile with ten
        samples beyond it; a failed request counts as beyond any limit."""
        q = tail_percentile(len(self.samples))
        values = [1000.0 * s.latency if s.error is None else float("inf")
                  for s in self.samples]
        return q, percentile(values, q)

    def backlog_grows(self) -> bool:
        """The queue outlived the schedule: the last reply came more than
        the latency limit after the last request was due."""
        return self.duration - len(self.samples) / self.rate > LIMIT_MS / 1000.0

    def sustained(self) -> bool:
        return (self.failed == 0 and self.tail()[1] <= LIMIT_MS
                and not self.backlog_grows())


async def _timed(conn: Connection, sample: Sample) -> None:
    try:
        reply = await asyncio.wait_for(conn.send(sample.request), SERVE_TIMEOUT)
        sample.latency = now() - sample.due
        sample.reply = reply
        if not reply.get("ok"):
            sample.error = str(reply.get("error"))
    except (asyncio.TimeoutError, ConnectionError) as exc:
        sample.error = type(exc).__name__


async def open_loop(conn: Connection, mix: Mix, rate: float, count: int) -> Phase:
    """Send ``count`` Poisson arrivals at ``rate``; wait for every reply."""
    phase = Phase(rate)
    # Exponential gaps rescaled to span exactly count / rate seconds, so the
    # offered load is the rung's rate in every run.
    gaps = mix.rng.exponential(1.0, size=count)
    gaps *= (count / rate) / gaps.sum()
    requests = mix.batch(count)
    start = now() + 0.05
    tasks = []
    for offset, (kind, request) in zip(np.cumsum(gaps), requests):
        due = start + float(offset)
        delay = due - now()
        if delay > 0:
            await asyncio.sleep(delay)
        sample = Sample(kind, request, due, lag=max(0.0, now() - due))
        phase.samples.append(sample)
        phase.backlog.append(conn.outstanding)
        tasks.append(asyncio.ensure_future(_timed(conn, sample)))
        await conn.writer.drain()
    await asyncio.gather(*tasks)
    phase.duration = now() - start
    return phase


async def burst(conn: Connection, mix: Mix) -> tuple[float, list[Sample]]:
    """Closed loop: pipeline ``BURST`` reads at once; wall time to drain."""
    reads = mix.batch(BURST, BURST_MIX)
    start = now()
    samples = [Sample(kind, request, start, 0.0) for kind, request in reads]
    await asyncio.gather(*(_timed(conn, s) for s in samples))
    return now() - start, samples


# ----------------------------------------------------------------------
# The run

def start_warm_server(trace: bool = False) -> tuple[ServerProcess, float]:
    """Start a server and build its warm set; returns it and the set-up time."""
    server = ServerProcess(trace)
    try:
        async def warm():
            conn = Connection()
            await conn.open(server.port)
            try:
                for request in warm_set():
                    reply = await conn.call(request)
                    if not reply.get("ok"):
                        raise RuntimeError(f"warm-up failed: {reply.get('error')}")
            finally:
                await conn.close()

        asyncio.run(warm())
    except BaseException:
        server.kill()
        raise
    return server, now() - server.started


async def _catalog_sizes(port: int) -> dict[str, int]:
    reply = await _one_shot(port, {"op": "catalog"})
    return {row["dataset"]: int(row["n"]) for row in reply["result"]}


async def drive(port: int, seed: int, seconds: float, ladder: tuple[float, ...]):
    sizes = await _catalog_sizes(port)
    mix = Mix(np.random.default_rng(seed), sizes, miss_base=1 + 1000 * seed)
    conn = Connection()
    await conn.open(port)
    try:
        # The bursts are the same in every run (drawn from seed 0): their
        # drain time measures the server, not which nodes a seed picked.
        fixed = Mix(np.random.default_rng(0), sizes, miss_base=0)
        bursts, burst_samples = [], []
        for __ in range(BURSTS if len(ladder) > 1 else 0):
            wall, samples = await burst(conn, fixed)
            bursts.append(wall)
            burst_samples += samples
        phases = []
        others = max(1, len(ladder) - 1)
        for rate in ladder:
            share = NOMINAL_SHARE if rate == NOMINAL else (1 - NOMINAL_SHARE) / others
            phase = await open_loop(conn, mix, rate, max(10, int(rate * seconds * share)))
            phases.append(phase)
            if rate > NOMINAL and not phase.sustained():
                break
        stats = (await conn.call({"op": "stats"}))["result"]
    finally:
        await conn.close()
    return bursts, burst_samples, phases, stats


def run(seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    repeats = 1 if smoke else SETUP_REPEATS
    setups = []
    plain_p50 = None
    if trace:
        # Untraced reference for telemetry.overhead_share: the nominal rate only.
        server, setup = start_warm_server()
        try:
            __, __, phases, __ = asyncio.run(drive(server.port, seed, seconds, (NOMINAL,)))
        finally:
            server.stop()
        plain_p50 = median(phases[0].latencies_ms())
        repeats = 1
    for __ in range(repeats - 1):
        server, setup = start_warm_server()
        setups.append(setup)
        server.stop()
    server, setup = start_warm_server(trace)
    setups.append(setup)
    try:
        bursts, burst_samples, phases, stats = asyncio.run(
            drive(server.port, seed, seconds, RATES)
        )
        # Peak RSS of the two long-lived processes, read from their
        # high-water marks: a sampling thread here would delay the
        # generator's event loop and show up in the latencies.
        peak_mb = (peak_rss_bytes(server.proc.pid) + peak_rss_bytes()) / (1 << 20)
    finally:
        server.stop()
    nominal = next(p for p in phases if p.rate == NOMINAL)
    # Seeded ladder traffic first, so the checked sample is drawn from it.
    samples = [s for p in phases for s in p.samples] + burst_samples
    wrong, ratios, checked = check_sample(samples)
    failed = sum(s.error is not None for s in samples) + wrong
    problems = [f"{s.kind} {s.request}: {s.error}" for s in samples if s.error][:5]
    if wrong:
        problems.append(f"{wrong} of {checked} sampled answers differ from the batch path")
    q, tail = nominal.tail()
    sustained = [p for p in phases if p.sustained()]
    best = max(sustained, key=lambda p: p.rate) if sustained else None
    notes = [
        f"requests: {len(samples)}; answers checked against the batch path: {checked}",
        f"nominal {NOMINAL:g} req/s: {len(nominal.samples)} requests, "
        f"p50 {median(nominal.latencies_ms()):.1f} ms, p{q:g} {tail:.1f} ms; "
        f"latency limit {LIMIT_MS:g} ms",
        "ladder: " + ", ".join(
            f"{p.rate:g}/s p{p.tail()[0]:g}={p.tail()[1]:.0f}ms "
            f"{'ok' if p.sustained() else 'over'}" for p in phases
        ),
    ]
    if trace:
        metrics = serve_layers(server.spans, stats, phases, nominal, measure_setup(
            [(name, MODEL) for name in DATASETS], 1
        ))
        metrics["telemetry.overhead_share"] = (
            median(nominal.latencies_ms()) / plain_p50 - 1.0, "ratio"
        )
        notes.append(f"spans: {server.trace_path}")
    else:
        metrics = {
            "setup_s": (median(setups), "s"),
            "wall_s": (median(bursts), "s"),
            "spread_ratio": (sum(ratios) / len(ratios) if ratios else 0.0, "ratio"),
            "peak_rss_mb": (peak_mb, "MB"),
            "ok_share": (1.0 - failed / len(samples), "ratio"),
            "p50_ms": (median(nominal.latencies_ms()), "ms"),
            "rate_per_s": (len(best.samples) / best.duration if best else 0.0, "1/s"),
        }
    return {
        "attempted": len(samples),
        "failed": failed,
        "problems": problems,
        "notes": notes,
        "metrics": metrics,
    }


def serve_layers(spans, stats, phases, nominal: Phase, setups) -> dict:
    counters = stats.get("counters", {})
    metrics = layer_metrics(spans, counters, 1, setups)
    cache = stats.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    batches = counters.get("serving.coalesced_batches", 0)
    every = [s for p in phases for s in p.samples]

    def p50(kind: str, pool: list[Sample]) -> float:
        values = [1000.0 * s.latency for s in pool if s.kind == kind and s.error is None]
        return median(values) if values else 0.0

    serving = {
        "serving.sigma_p50_ms": p50("sigma", nominal.samples),
        "serving.gain_p50_ms": p50("gain", nominal.samples),
        "serving.topk_warm_p50_ms": p50("topk", nominal.samples),
        "serving.miss_p50_ms": p50("miss", every),
        "serving.tail_ms": nominal.tail()[1],
        "serving.artifact_hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
        "serving.coalesce_batch_mean": (
            counters.get("serving.coalesced_requests", 0) / batches if batches else 0.0
        ),
        "serving.artifact_evictions": float(cache.get("evictions", 0)),
        "serving.backlog_max": float(max(nominal.backlog, default=0)),
        "serving.generator_lag_ms": 1000.0 * max(s.lag for s in every),
    }
    for name, value in serving.items():
        metrics[name] = (value, PER_LAYER[name])
    return metrics


def check_sample(samples: list[Sample]) -> tuple[int, list[float], int]:
    """Check a fixed sample of answers against the batch path.

    Returns (wrong answers, served/batch ratios of the σ and gain answers,
    answers checked).  The sample is the first answers of each kind per
    graph, so it is fixed by the workload seed.
    """
    from repro import algorithms, datasets, diffusion
    from repro.diffusion.oracle import make_oracle

    model = diffusion.model_by_name(MODEL)
    graphs = {name: model.weighted(datasets.load(name), np.random.default_rng(0))
              for name in DATASETS}
    oracles: dict[tuple, object] = {}
    quota = {"sigma": 4, "gain": 2, "topk": 1, "miss": 2}
    taken: dict[tuple, int] = {}
    wrong, ratios, checked = 0, [], 0
    for s in samples:
        if s.error is not None:
            continue
        req = s.request
        slot = (s.kind, req["dataset"])
        if taken.get(slot, 0) >= quota[s.kind]:
            continue
        taken[slot] = taken.get(slot, 0) + 1
        checked += 1
        graph = graphs[req["dataset"]]
        result = s.reply["result"]
        if req["op"] == "topk":
            expect = algorithms.make("RIS", **req["params"]).select(
                graph, req["k"], model, rng=np.random.default_rng(req["seed"])
            ).seeds
            wrong += int([int(v) for v in expect] != result["seeds"])
            continue
        worlds = req.get("worlds", WORLDS)
        key = (req["dataset"], req["seed"], worlds)
        if key not in oracles:
            oracles[key] = make_oracle("snapshot", graph, model,
                                       np.random.default_rng(req["seed"]),
                                       mc_simulations=worlds)
        oracle = oracles[key]
        if req["op"] == "sigma":
            expect, got = oracle.evaluate(req["seeds"]), result["sigma"]
        else:
            expect, got = oracle.gain(req["node"], extra=req["seeds"]), result["gain"]
        wrong += int(float(expect) != got)
        if expect:
            ratios.append(got / float(expect))
    return wrong, ratios, checked
