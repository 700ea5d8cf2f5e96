"""Shared pieces of the benchmark: tracing, statistics, processes, HTTP.

Everything here belongs to the benchmark, not to the program under
test.  The program is reached only through its public entry points:
child Python processes that import ``repro`` from the checkout's
``src`` directory, and the ``python -m repro serve`` daemon.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Scratch files of one run live here, inside the checkout.
WORK_PARENT = ROOT / ".perfbench_work"

#: Inputs that outlive a run (keyed by the program's sources) live here.
CACHE_DIR = ROOT / ".perfbench_cache"

#: Every HTTP exchange with a daemon outside the timed load gives up
#: after this long, so a wedged daemon fails the run instead of hanging it.
CONTROL_TIMEOUT_S = 30.0

#: A daemon must answer /healthz within this long of being spawned.
READY_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark could not run or the program's output was wrong."""


# -- environment ---------------------------------------------------------------


def program_present() -> bool:
    """True when the checkout holds the program's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def random_hash_seed() -> int:
    """A fresh PYTHONHASHSEED, drawn as the interpreter would draw one.

    Children run under a randomized hash seed, as users' processes do;
    the benchmark picks it itself only so that it can record it.
    """
    return random.SystemRandom().randrange(2**32)


def child_env(hash_seed: int) -> Dict[str, str]:
    """Environment for a program process: the checkout's ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def cpu_ticks() -> Tuple[int, int]:
    """(all, stolen) CPU ticks of the machine so far, from /proc/stat."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:]]
    return sum(fields), fields[7] if len(fields) > 7 else 0


def environment(seed: int) -> Dict[str, Any]:
    """Machine and run facts recorded beside every result."""
    try:
        load1 = os.getloadavg()[0]
    except OSError:
        load1 = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_1m_at_start": load1,
        "seed": seed,
    }


@contextlib.contextmanager
def work_dir() -> Iterator[Path]:
    """A scratch directory inside the checkout, removed afterwards."""
    WORK_PARENT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_PARENT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_PARENT.rmdir()  # only succeeds once no run uses it


# -- statistics ----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in [0, 100]) of ``values``."""
    ordered = sorted(values)
    rank = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[min(rank, len(ordered) - 1)]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(pct, value)``: the 99th percentile, or the highest percentile
    with at least ten samples beyond it when there are too few for p99."""
    pct = min(99.0, 100.0 * (1.0 - 10.0 / len(values)))
    pct = max(50.0, math.floor(pct * 10.0) / 10.0)
    return pct, percentile(values, pct)


# -- tracing -------------------------------------------------------------------


class Tracer:
    """In-memory span recorder: (name, start, end, parent, trace id).

    Spans are kept in a list and written out once, at the end of the
    run.  A span recorded with :meth:`derived` has a duration taken
    from a counter the program fills (``BuildStats`` timers), laid out
    inside its parent because the program reports no start time.
    """

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._trace = 0

    def new_trace(self) -> int:
        self._trace += 1
        return self._trace

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        """Record the ``with`` block as a span; callers may add fields."""
        record = {
            "id": len(self.spans),
            "name": name,
            "trace": self._trace,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def derived(
        self, name: str, parent: Dict[str, Any], start: float, seconds: float
    ) -> Dict[str, Any]:
        record = {
            "id": len(self.spans),
            "name": name,
            "trace": parent["trace"],
            "parent": parent["id"],
            "start": start,
            "end": start + seconds,
            "derived": True,
        }
        self.spans.append(record)
        return record

    def extend(self, spans: List[Dict[str, Any]], trace: int) -> None:
        """Adopt spans recorded by a child process (ids are renumbered)."""
        offset = len(self.spans)
        for span in spans:
            copy = dict(span)
            copy["id"] = span["id"] + offset
            if span["parent"] is not None:
                copy["parent"] = span["parent"] + offset
            copy["trace"] = trace
            self.spans.append(copy)

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus its children's."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        result: Dict[str, List[float]] = {}
        for span in self.spans:
            own = span["end"] - span["start"] - child_time[span["id"]]
            result.setdefault(span["name"], []).append(own)
        return result

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


# -- processes -----------------------------------------------------------------


def run_child(args: List[str], hash_seed: int, timeout: float, cwd: Path) -> Dict[str, Any]:
    """Run a Python child to completion; returns its last stdout line as JSON."""
    done = subprocess.run(
        [sys.executable, *args],
        env=child_env(hash_seed),
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if done.returncode != 0:
        raise BenchError(
            f"child {args[0]} exited {done.returncode}: {done.stderr[-2000:]}"
        )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {args[0]} printed nothing")
    return json.loads(lines[-1])


class Daemon:
    """One ``python -m repro serve`` process, spawned and stopped by us."""

    def __init__(self, serve_args: List[str], hash_seed: int, log: Path) -> None:
        self._log = open(log, "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *serve_args, "--port", "0"],
            env=child_env(hash_seed),
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        self.host = "127.0.0.1"
        self.port = 0
        self._conn: Optional[http.client.HTTPConnection] = None
        try:
            self.setup_s = self._wait_ready()
        except BaseException:
            self.kill()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _wait_ready(self) -> float:
        """Seconds from spawn to the first 200 from ``/healthz``."""
        deadline = self.started + READY_TIMEOUT_S
        for line in self.proc.stdout:
            if "serving on " in line:
                address = line.strip().split("serving on ", 1)[1]
                self.port = int(address.rsplit(":", 1)[1])
                break
            if time.perf_counter() > deadline:
                break
        if not self.port:
            raise BenchError(f"daemon exited before serving: {self.log_tail()}")
        while time.perf_counter() < deadline:
            status, _ = self.request("GET", "/healthz")
            if status == 200:
                return time.perf_counter() - self.started
            time.sleep(0.001)
        raise BenchError("daemon never answered /healthz")

    def log_tail(self) -> str:
        self._log.flush()
        with open(self._log.name) as handle:
            return handle.read()[-2000:]

    def request(
        self, method: str, path: str, body: Optional[Any] = None
    ) -> Tuple[int, Any]:
        """One control request on a keep-alive connection of our own."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=CONTROL_TIMEOUT_S
            )
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        self._conn.request(method, path, body=payload, headers=headers)
        response = self._conn.getresponse()
        data = response.read()
        return response.status, json.loads(data) if data else None

    def stats(self) -> Dict[str, Any]:
        status, body = self.request("GET", "/stats")
        if status != 200:
            raise BenchError(f"/stats answered {status}")
        return body

    def stop(self) -> int:
        """``POST /shutdown`` and wait; kill if it does not exit in time."""
        try:
            if self.proc.poll() is None:
                self.request("POST", "/shutdown", {})
            return self.proc.wait(timeout=CONTROL_TIMEOUT_S)
        except (OSError, http.client.HTTPException, subprocess.TimeoutExpired):
            self.kill()
            return -1
        finally:
            self._close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._close()

    def _close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()


def measure_setup(
    serve_args: List[str], samples: int, log_dir: Path
) -> List[float]:
    """Spawn-to-ready seconds of ``samples`` fresh daemons, each stopped."""
    times = []
    for index in range(samples):
        daemon = Daemon(
            serve_args, random_hash_seed(), log_dir / f"setup-{index}.log"
        )
        times.append(daemon.setup_s)
        if daemon.stop() != 0:
            raise BenchError("daemon did not exit cleanly on /shutdown")
    return times


def run_loadgen(spec: Dict[str, Any], seed: int, work: Path, tag: str) -> Dict[str, Any]:
    """Run the load generator as its own process; returns its report."""
    spec_path = work / f"{tag}.spec.json"
    out_path = work / f"{tag}.out.json"
    spec_path.write_text(json.dumps(spec))
    seconds = sum(duration for _rate, duration in spec["segments"])
    timeout = spec["warmup_s"] + seconds + spec["drain_s"] + 60.0
    done = subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "loadgen.py"),
            "--spec", str(spec_path),
            "--out", str(out_path),
            "--seed", str(seed),
        ],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if done.returncode != 0:
        raise BenchError(f"load generator failed: {done.stderr[-2000:]}")
    return json.loads(out_path.read_text())
