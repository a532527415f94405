"""Workload ``serve``: spgemm jobs from two tenants to an in-process server.

A closed loop on one thread over two connections, one per tenant, taking
turns: send one job, wait for the answer and decode it, then send the
next on the other connection.  At the end of each round the client checks
its answers and times scipy's floor while the server is idle.  The server
runs in this process (``serve_in_thread``, ``concurrency=2``,
``nworkers=1``, so jobs compute inline on its plan-cache path).

Each tenant's round is ``JOBS_PER_ROUND`` jobs ``A·A``: all but the last
use one of ``HOT`` shared structures (new values each job, so only the
structure repeats, across both tenants); the last uses a structure made
fresh for it, which the plan cache cannot answer.  Every answer is checked
against scipy's product of the operands the client sent.

One client thread, not one per connection: with two client threads, the
server's threads and the interpreter lock sharing two vCPUs, a job's time
measured how the threads were scheduled more than the serve path, and
the ratio to scipy's floor spread by 0.14-0.30 of its median over ten
seeds.  For the same reason the process keeps to one CPU (``pin_to_one_cpu``).
"""

from __future__ import annotations

import base64
import json
import os
import socket
import statistics
import threading
import time

import numpy as np

from repro.core import SpgemmOptions
from repro.errors import ReproError
from repro.matrix import CSR
from repro.observability import NULL_TRACER, Tracer
from repro.rmat import er_matrix
from repro.serve import (
    build_job,
    csr_from_wire,
    decode_message,
    encode_message,
    serve_in_thread,
)

from common import (
    BENCH_PHASE,
    Ledger,
    TraceReader,
    canonical,
    child_seed,
    end_to_end,
    floor_timed,
    kernel_layers,
    median_setup,
    plan_layers,
    product_mismatch,
    timed,
    trace_layers,
    to_scipy,
)

#: (scale, edge factor) of every operand structure.
SIZES = {"full": (11, 8), "tiny": (6, 4)}
HOT = 3
JOBS_PER_ROUND = 8
CLIENTS = 2
SETUP_REPEATS = 3
OPTIONS = SpgemmOptions(algorithm="hash", engine="fast", sort_output=True)
#: Room for the hot plans and a few fresh ones.  A plan of an ER scale-11
#: square holds about 4 MB, so a cache the fresh structures could fill
#: (the default holds 64) would grow the process all run long, faster
#: the faster the jobs go.
PLAN_CACHE_SIZE = 16
RECV_BUFFER = 1 << 22
#: Keys of the hot structures' seeds, apart from every per-job seed.
HOT_KEY = 1 << 20


class Connection:
    """One client connection, speaking the wire protocol line by line.

    The job is encoded and the answer decoded by the caller, so the three
    client-side stages can be timed apart.
    """

    def __init__(self, host: str, port: int) -> None:
        # Without TCP_NODELAY, Nagle's algorithm holds back the tail of each
        # request.  A response is megabytes on one line: with the default
        # 8 KiB buffer, reading it takes hundreds of receive calls, each
        # giving up the interpreter lock and waiting to get it back from
        # the server's threads.  Either makes job times swing between runs.
        self._sock = socket.create_connection((host, port), timeout=120.0)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rwb", buffering=RECV_BUFFER)

    def roundtrip(self, frame: bytes) -> bytes:
        self._file.write(frame)
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line

    def stats(self) -> dict:
        job = build_job("stats", job_id="stats", tenant="bench")
        return decode_message(self.roundtrip(encode_message(job)))["result"]

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


class Served:
    """A running server with its two connections."""

    def __init__(self, tracer) -> None:
        self._before = set(threading.enumerate())
        self.handle = serve_in_thread(concurrency=2, nworkers=1,
                                      plan_cache_size=PLAN_CACHE_SIZE, tracer=tracer)
        self.conns: "list[Connection]" = []
        try:
            for _ in range(CLIENTS):
                self.conns.append(Connection(self.handle.host, self.handle.port))
        except OSError:
            self.close()
            raise

    def close(self) -> None:
        try:
            for conn in self.conns:
                conn.close()
        finally:
            self.handle.stop()
            # stop() lets the server's compute threads finish on their
            # own; wait for every thread the server started to end.
            for t in set(threading.enumerate()) - self._before:
                t.join(timeout=30.0)


def with_values(pattern: CSR, seed: int) -> CSR:
    values = np.random.default_rng(seed).random(pattern.nnz) + 0.5
    return CSR(pattern.shape, pattern.indptr, pattern.indices, values,
               sorted_rows=pattern.sorted_rows)


class Job:
    __slots__ = ("wall", "encode", "wait", "decode", "server", "req", "resp", "stats",
                 "floor")


def send(conn: Connection, a: CSR, tenant: str, job_id: str, tracer) -> "tuple[CSR, Job]":
    """One job, client send to decoded result, with its stages timed."""
    obs = tracer if tracer is not None else NULL_TRACER
    rec = Job()
    with obs.span(job_id, phase=BENCH_PHASE):
        t0 = time.perf_counter()
        with obs.span("encode", phase="client.encode"):
            frame = encode_message(build_job("spgemm", job_id=job_id, tenant=tenant,
                                             options=OPTIONS, a=a, b=a))
        t1 = time.perf_counter()
        with obs.span("wait", phase="client.wait"):
            line = conn.roundtrip(frame)
        t2 = time.perf_counter()
        with obs.span("decode", phase="client.decode"):
            response = decode_message(line)
            if not response.get("ok"):
                raise RuntimeError(f"server answered {response.get('error')}")
            c = csr_from_wire(response["result"]["c"])
        t3 = time.perf_counter()
    rec.wall, rec.encode, rec.wait, rec.decode = t3 - t0, t1 - t0, t2 - t1, t3 - t2
    rec.server = response["elapsed_ms"] / 1e3
    rec.req, rec.resp = len(frame), len(line)
    rec.stats = response.get("stats") or {}
    return c, rec


def operand(seed: int, k: int, r: int, j: int, hot, size) -> "tuple[CSR, str]":
    """Job ``j`` of round ``r`` of tenant ``k``: a hot structure with new
    values, or (the last job of a round) a structure made fresh."""
    s = child_seed(seed, k, r, j)
    if j == JOBS_PER_ROUND - 1:
        return er_matrix(*size, seed=s), f"fresh er scale {size[0]} seed {s}"
    h = (r * JOBS_PER_ROUND + j + k) % HOT
    return with_values(hot[h], s), f"hot structure {h}, values seed {s}"


def carry_as_text(*matrices) -> None:
    """Carry scipy CSR matrices through one line of JSON text and back,
    arrays as base64, with the standard library alone.

    Part of a served job's floor: a job moves its operand and its product
    as text, and on this machine that costs more than the product itself
    (about 34 ms against 2 ms at ER scale 11).  Run to run, a job's time
    rose and fell with this carrying far more than with scipy's product,
    so a floor of the product alone left the ratio spreading by 0.08 of
    its median over five seeds, against 0.013 over ten with this added.
    """
    for m in matrices:
        line = json.dumps({
            name: base64.b64encode(np.ascontiguousarray(getattr(m, name))).decode("ascii")
            for name in ("indptr", "indices", "data")
        }).encode() + b"\n"
        for name, text in json.loads(line).items():
            np.frombuffer(base64.b64decode(text), dtype=getattr(m, name).dtype)


def run_round(served: Served, seed: int, r: int, hot, size, ledger: Ledger,
              tracer) -> "list[Job]":
    """Round ``r``: each tenant's jobs, the connections taking turns, then
    every answer checked against scipy's product.

    A job's floor is scipy's product plus ``carry_as_text`` of the operand
    and the product, timed after the round while the server is idle.
    """
    done = []
    for j in range(JOBS_PER_ROUND):
        for k, conn in enumerate(served.conns):
            a, inputs = operand(seed, k, r, j, hot, size)
            tenant = f"tenant-{k}"
            name = f"{tenant}/r{r}/j{j}"
            try:
                c, rec = send(conn, a, tenant, name, tracer)
            except (OSError, RuntimeError, ReproError) as exc:
                ledger.fail(name, inputs, f"raised {exc!r}", wrong=False)
                continue
            done.append((name, inputs, a, c, rec))
    for name, inputs, a, c, rec in done:
        sa = to_scipy(a)
        expected, product_s = floor_timed(sa.__matmul__, sa)
        _, carry_s = timed(carry_as_text, sa, expected)
        rec.floor = product_s + carry_s
        ledger.verdict(name, inputs, product_mismatch(
            c, canonical(expected), sorted_output=True))
    return [rec for *_, rec in done]


def measure(served: Served, seed: int, hot, size, seconds: float, ledger: Ledger,
            tracer) -> "tuple[list[list[Job]], float]":
    """Whole rounds of jobs until ``seconds`` have passed, and the seconds
    spent sending them (checks and floors left out)."""
    rounds, busy = [], 0.0
    t_end = time.perf_counter() + seconds
    while True:
        rounds.append(run_round(served, seed, len(rounds), hot, size, ledger, tracer))
        busy += sum(job.wall for job in rounds[-1])
        if time.perf_counter() >= t_end:
            return rounds, busy


def as_ops(rounds: "list[list[Job]]") -> "list[list[tuple[str, float, float]]]":
    """Every job is one class of operation: the miss share is fixed per round."""
    return [[("spgemm", job.wall, job.floor) for job in rnd] for rnd in rounds]


def pin_to_one_cpu() -> None:
    """Keep this process, and every thread it starts from now on, on one CPU.

    One job is in flight at a time and the interpreter lock lets one of
    its threads run Python at once, so a second CPU adds nothing but
    wake-ups that cross CPUs.  Unpinned, the time between the server
    taking a request and the client holding the whole answer moved by
    about 30 % between runs of the same seed (46-62 ms at ER scale 11),
    while pinned it moved by 6 % (43-46 ms), and the client's own
    encoding and decoding and the server's compute by 5 % either way.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(seed: int, seconds: float, size_name: str, traced: bool) -> "tuple[Ledger, dict]":
    size = SIZES[size_name]
    pin_to_one_cpu()
    ledger = Ledger()
    gen_s = []

    def setup(tracer=None):
        hot, gen = timed(lambda: [er_matrix(*size, seed=child_seed(seed, HOT_KEY, i))
                                  for i in range(HOT)])
        gen_s.append(gen)
        served = Served(tracer)
        try:
            # Every connection's first jobs, and the hot structures' plans.
            for k, conn in enumerate(served.conns):
                for i, pattern in enumerate(hot):
                    send(conn, with_values(pattern, i), f"tenant-{k}", f"warm-{k}-{i}", None)
        except BaseException:
            served.close()
            raise
        return served, hot

    (served, hot), setup_s = median_setup(
        setup, SETUP_REPEATS, release=lambda state: state[0].close())
    if not traced:
        try:
            plain, _ = measure(served, seed, hot, size, seconds, ledger, None)
        finally:
            served.close()
        return ledger, end_to_end(setup_s, as_ops(plain))

    # An untraced and a traced server, measured in turn (untraced, traced,
    # untraced), so that the tracing overhead is not confused with the
    # drift of a warming process.  Only one of them has jobs at a time.
    # The server's own Tracer is separate, since it records other threads.
    tracer, server_tracer = Tracer(), Tracer()
    try:
        traced_served, _ = setup(server_tracer)
        try:
            plain, busy = measure(served, seed, hot, size, seconds / 4, ledger, None)
            before = traced_served.conns[0].stats()
            traced_rounds, _ = measure(traced_served, seed, hot, size, seconds / 2,
                                       ledger, tracer)
            after = traced_served.conns[0].stats()
            more, more_busy = measure(served, seed, hot, size, seconds / 4, ledger, None)
        finally:
            traced_served.close()
    finally:
        served.close()
    plain += more
    busy += more_busy
    jobs = [job for rnd in traced_rounds for job in rnd]
    n = len(jobs)
    client = TraceReader(tracer.spans)
    server = TraceReader(server_tracer.spans)
    plain_walls = [job.wall for rnd in plain for job in rnd]

    def mean(attr: str) -> float:
        return sum(getattr(job, attr) for job in jobs) / n

    def stat(key: str) -> float:
        return sum(job.stats.get(key, 0) for job in jobs) / n

    metrics = {
        "inputs.generate_s": (statistics.median(gen_s), "s"),
        **kernel_layers(server, n),
        "kernel.flop": (stat("flops"), "count"),
        "kernel.output_nnz": (stat("output_nnz"), "count"),
        "kernel.sorted_elements": (stat("sorted_elements"), "count"),
        **plan_layers(server, stat("plan_hits") * n, stat("plan_misses") * n, n),
        "serve.client_encode_ms": (mean("encode") * 1e3, "ms"),
        "serve.client_decode_ms": (mean("decode") * 1e3, "ms"),
        "serve.server_elapsed_ms": (mean("server") * 1e3, "ms"),
        "serve.transport_wait_ms": ((mean("wait") - mean("server")) * 1e3, "ms"),
        "serve.server_p50_ms": (after["latency_ms"]["p50"], "ms"),
        "serve.request_bytes": (mean("req"), "B"),
        "serve.response_bytes": (mean("resp"), "B"),
        "serve.plan_hits": ((after["plan_cache"]["hits"] - before["plan_cache"]["hits"]) / n,
                            "count"),
        "serve.plan_misses": ((after["plan_cache"]["misses"]
                               - before["plan_cache"]["misses"]) / n, "count"),
        "serve.jobs_per_s": (len(plain_walls) / busy, "1/s"),
        "serve.job_p50_ms": (statistics.median(plain_walls) * 1e3, "ms"),
        "serve.job_p90_ms": (statistics.quantiles(plain_walls, n=10)[8] * 1e3, "ms"),
        **trace_layers(client, as_ops(plain), as_ops(traced_rounds), n),
    }
    return ledger, metrics
