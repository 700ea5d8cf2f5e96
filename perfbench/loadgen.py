"""Open-loop HTTP load generator for the ``repro serve`` daemon.

Runs as its own process, beside the daemon, and imports nothing from
the program.  It reads a spec (address, rates, request mix), draws the
whole request sequence from ``--seed`` before the timed window, then
sends each request when it is due on at most ``nproc`` keep-alive
connections, pipelining behind slow replies instead of waiting for
them.  Each request is timed from when it was due, so a stall counts
against every request it delays; how late the generator itself ran is
reported beside the latencies.

An optional closed-loop writer shares the daemon: it sends the spec's
``POST /update`` bodies one at a time, each ``think_s`` after the
previous reply.  Writer and readers together stay within ``nproc``
connections.

The loop is a single thread over ``select.select``, whose timeout has
microsecond resolution; asyncio's default selector rounds sleeps up to
whole milliseconds, which would dominate sub-millisecond latencies.

Usage::

    python3 perfbench/loadgen.py --spec spec.json --out out.json --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import socket
import sys
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

#: The redbench user mix: ten query-repetition-rate bands.
REPETITION_BANDS = [((high - 10) / 100.0, high / 100.0) for high in range(10, 101, 10)]
USERS_PER_BAND = 2


def banded_mix(pool: List[List[str]], count: int, rng: random.Random) -> List[Tuple[Any, str]]:
    """``count`` ([pool index, form], body) pairs from repetition-banded users.

    Each user repeats a query from its own history with a rate drawn
    from its band, and otherwise draws fresh from the shared pool.  A
    user's successive requests alternate between the XPath and the
    JSON-AST form of the query (``pool[i]`` holds both bodies).
    """
    users = []
    for low, high in REPETITION_BANDS:
        for _ in range(USERS_PER_BAND):
            users.append({"rate": rng.uniform(low, high), "history": [], "sent": 0})
    requests = []
    for _ in range(count):
        user_index = rng.randrange(len(users))
        user = users[user_index]
        if user["history"] and rng.random() < user["rate"]:
            item = rng.choice(user["history"])
        else:
            item = rng.randrange(len(pool))
            user["history"].append(item)
        form = (user_index + user["sent"]) % 2
        user["sent"] += 1
        requests.append(([item, form], pool[item][form]))
    return requests


def zipf_mix(
    docs: List[str], queries: List[str], skew: float, count: int, rng: random.Random
) -> List[Tuple[Any, str]]:
    """``count`` ([doc index, query index], body) pairs, Zipf on both axes.

    Popularity ranks are a seeded shuffle, so hot documents are not
    simply the first ids (which would bunch them onto few shards).
    """
    doc_rank = list(range(len(docs)))
    rng.shuffle(doc_rank)
    doc_weights = [1.0 / (rank + 1) ** skew for rank in range(len(docs))]
    query_weights = [1.0 / (rank + 1) ** skew for rank in range(len(queries))]
    doc_picks = rng.choices(doc_rank, weights=doc_weights, k=count)
    query_picks = rng.choices(range(len(queries)), weights=query_weights, k=count)
    return [
        ([d, q], json.dumps({"doc": docs[d], "query": queries[q]}))
        for d, q in zip(doc_picks, query_picks)
    ]


def http_request(host: str, path: str, body: str) -> bytes:
    data = body.encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n\r\n"
    )
    return head.encode("ascii") + data


def cpu_seconds(pid: int) -> float:
    """CPU time of process ``pid`` (all threads, user and system).

    Read from the process's CPU-time clock, which Linux numbers
    ``(~pid << 3) | 2``: nanoseconds, where ``/proc/<pid>/stat`` counts
    10 ms ticks.
    """
    return time.clock_gettime((~pid << 3) | 2)


def hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmHWM for pid {pid}")


class Connection:
    """One non-blocking keep-alive socket with FIFO response matching."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        self.inflight: Deque[int] = deque()
        #: Requests queued in ``out`` whose send time is not yet stamped.
        self.unstamped: Deque[int] = deque()
        self.closed = False

    def flush(self) -> None:
        if self.out and not self.closed:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                return
            except OSError:
                self.closed = True
                return
            del self.out[:sent]

    def read(self) -> List[Tuple[int, bytes]]:
        """Complete responses now buffered, as (status, body)."""
        try:
            data = self.sock.recv(1 << 16)
        except BlockingIOError:
            return []
        except OSError:
            data = b""
        if not data:
            self.closed = True
            return []
        self.inbuf += data
        responses = []
        while True:
            end = self.inbuf.find(b"\r\n\r\n")
            if end < 0:
                break
            head = bytes(self.inbuf[:end]).decode("latin-1").split("\r\n")
            length = 0
            for line in head[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            if len(self.inbuf) < end + 4 + length:
                break
            body = bytes(self.inbuf[end + 4 : end + 4 + length])
            del self.inbuf[: end + 4 + length]
            responses.append((int(head[0].split()[1]), body))
        return responses


def run(spec: Dict[str, Any], seed: int) -> Dict[str, Any]:
    rng = random.Random(seed)
    host, port, pid = spec["host"], spec["port"], spec["daemon_pid"]
    # The schedule: a warm-up at the first rate, then each (rate,
    # seconds) segment in turn; requests are evenly spaced within one,
    # and a segment at rate 0 is a pause.
    segments = [(float(rate), float(seconds)) for rate, seconds in spec["segments"]]
    warmup = float(spec["warmup_s"])
    offsets: List[float] = []
    at = 0.0
    for rate, seconds in [(segments[0][0], warmup)] + segments:
        if rate > 0:
            offsets.extend(at + i / rate for i in range(int(round(rate * seconds))))
        at += seconds
    count = len(offsets)
    first_timed = int(round(segments[0][0] * warmup))
    duration = at - warmup
    mix = spec["mix"]
    if mix["kind"] == "banded":
        requests = banded_mix(mix["pool"], count, rng)
    elif mix["kind"] == "zipf":
        requests = zipf_mix(mix["docs"], mix["queries"], mix["skew"], count, rng)
    else:
        raise ValueError(f"unknown mix {mix['kind']!r}")
    wire = [http_request(host, "/estimate", body) for _item, body in requests]
    updates = [http_request(host, "/update", body) for body in spec.get("updates", [])]
    think = float(spec.get("think_s", 0.0))

    nproc = os.cpu_count() or 1
    readers = max(1, min(spec["connections"], nproc - (1 if updates else 0)))
    conns = [Connection(host, port) for _ in range(readers)]
    writer = Connection(host, port) if updates else None

    sent: List[Optional[float]] = [None] * count
    done: List[Optional[float]] = [None] * count
    status: List[int] = [0] * count
    value: List[Optional[float]] = [None] * count
    upd_sent: List[float] = []
    upd_done: List[float] = []
    upd_status: List[int] = []
    errors: List[str] = []

    start = time.perf_counter() + 0.05
    due = [start + offset for offset in offsets]
    window_start = start + warmup
    window_end = start + warmup + duration
    deadline = window_end + spec["drain_s"]
    cpu_start = None
    next_i = 0
    writer_due: Optional[float] = window_start if writer else None
    writer_busy = False
    sockets = {conn.sock: conn for conn in conns}
    if writer:
        sockets[writer.sock] = writer

    def outstanding() -> bool:
        return any(conn.inflight for conn in conns) or writer_busy

    while True:
        now = time.perf_counter()
        if cpu_start is None and now >= window_start:
            cpu_start = cpu_seconds(pid)
        while next_i < count and due[next_i] <= now:
            conn = conns[next_i % readers]
            conn.out += wire[next_i]
            conn.inflight.append(next_i)
            conn.unstamped.append(next_i)
            next_i += 1
        if (
            writer is not None
            and not writer_busy
            and writer_due is not None
            and now >= writer_due
            and len(upd_sent) < len(updates)
            and now < window_end
        ):
            writer.out += updates[len(upd_sent)]
            writer.inflight.append(len(upd_sent))
            upd_sent.append(now)
            writer_busy = True
        for conn in sockets.values():
            conn.flush()
            if conn.unstamped:
                stamp = time.perf_counter()
                while conn.unstamped:
                    sent[conn.unstamped.popleft()] = stamp
        if next_i >= count and not outstanding():
            break
        if now > deadline or all(conn.closed for conn in sockets.values()):
            errors.append("deadline passed with requests outstanding")
            break
        wake = deadline
        if next_i < count:
            wake = min(wake, due[next_i])
        if writer is not None and not writer_busy and writer_due is not None:
            wake = min(wake, writer_due)
        if cpu_start is None:
            wake = min(wake, window_start)
        timeout = max(0.0, wake - time.perf_counter())
        wlist = [c.sock for c in sockets.values() if c.out and not c.closed]
        rlist = [c.sock for c in sockets.values() if not c.closed]
        readable, _, _ = select.select(rlist, wlist, [], timeout)
        for sock in readable:
            conn = sockets[sock]
            for code, body in conn.read():
                stamp = time.perf_counter()
                index = conn.inflight.popleft()
                if conn is writer:
                    upd_done.append(stamp)
                    upd_status.append(code)
                    writer_busy = False
                    writer_due = stamp + think
                    if code != 200 and len(errors) < 10:
                        errors.append(f"update {index}: {code} {body[:200]!r}")
                    continue
                done[index] = stamp
                status[index] = code
                if code == 200:
                    value[index] = json.loads(body)["estimate"]
                elif len(errors) < 10:
                    errors.append(f"request {index}: {code} {body[:200]!r}")
    cpu = cpu_seconds(pid) - (cpu_start if cpu_start is not None else 0.0)
    hwm = hwm_mb(pid)
    for sock in sockets:
        sock.close()

    def rel(stamp: Optional[float]) -> Optional[float]:
        return None if stamp is None else stamp - window_start

    timed = range(first_timed, count)
    return {
        "segments": segments,
        "connections": readers + (1 if writer else 0),
        "window_s": duration,
        "due": [due[i] - window_start for i in timed],
        "sent": [rel(sent[i]) for i in timed],
        "done": [rel(done[i]) for i in timed],
        "status": [status[i] for i in timed],
        "value": [value[i] for i in timed],
        "item": [requests[i][0] for i in timed],
        "daemon_cpu_s": cpu,
        "daemon_hwm_mb": hwm,
        "updates": {
            "sent": [rel(s) for s in upd_sent],
            "done": [rel(s) for s in upd_done],
            "status": upd_status,
        },
        "errors": errors,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    with open(args.spec) as handle:
        spec = json.load(handle)
    report = run(spec, args.seed)
    with open(args.out, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
