"""Process-tree accounting from /proc: CPU time, proportional memory, host facts.

Everything here reads the benchmark process and its descendants (the Ray
driver, GCS, raylet and every worker it forks).  ``psutil`` is not required.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # comm may contain spaces and parentheses: split after the last ')'
    return raw[raw.rindex(")") + 2:].split()


def _snapshot(root: int) -> dict[tuple[int, str], int]:
    """``{(pid, starttime): utime+stime ticks}`` for ``root`` and every
    live descendant (starttime keeps a reused pid distinct)."""
    info: dict[int, list[str]] = {}
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None:
                info[int(name)] = fields
                children.setdefault(int(fields[1]), []).append(int(name))
    out: dict[tuple[int, str], int] = {}
    todo = [root]
    while todo:
        pid = todo.pop()
        fields = info.get(pid)
        if fields is None:
            continue
        # after ')': state=0 ppid=1 ... utime=11 stime=12 ... starttime=19
        out[(pid, fields[19])] = int(fields[11]) + int(fields[12])
        todo.extend(children.get(pid, ()))
    return out


def descendants(root: int | None = None) -> list[int]:
    """``root`` (default: this process) first, then every live descendant."""
    root = os.getpid() if root is None else root
    return [root] + sorted(pid for pid, _ in _snapshot(root) if pid != root)


def tree_pss_mb(pids: list[int]) -> float:
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/smaps_rollup") as f:
                for line in f:
                    if line.startswith("Pss:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


class TreeMonitor:
    """CPU seconds and peak summed Pss of this process tree over a ``with``
    block, sampled on a background thread.

    CPU is tracked per process: a process alive at entry counts from its
    entry reading, one born inside the block from zero, and one that exits
    counts up to its last sample (at most ``interval_s`` of its CPU is
    lost).  Reaped-children counters are not used, because Ray's raylet
    does not reliably wait for its workers."""

    def __init__(self, interval_s: float = 0.5):
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self._root = os.getpid()
        self._base: dict = {}
        self._last: dict = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        snap = _snapshot(self._root)
        self._last.update(snap)
        self.peak_mb = max(self.peak_mb, tree_pss_mb([p for p, _ in snap]))

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    @property
    def cpu_s(self) -> float:
        ticks = sum(t - self._base.get(k, 0) for k, t in self._last.items())
        return ticks / _CLK_TCK

    def __enter__(self) -> "TreeMonitor":
        self._base = _snapshot(self._root)
        self._last = dict(self._base)
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


def wait_gone(pids: list[int], timeout_s: float = 20.0) -> list[int]:
    """Wait until every pid has exited (reaping our own children); SIGKILL
    whatever is left at the deadline.  Returns the pids that had to be
    killed."""
    deadline = time.monotonic() + timeout_s
    killed: list[int] = []
    while True:
        alive = [p for p in pids if _alive(p)]
        if not alive:
            return killed
        if time.monotonic() > deadline:
            for p in alive:
                try:
                    os.kill(p, signal.SIGKILL)
                except OSError:
                    pass
            killed.extend(alive)
            deadline = time.monotonic() + 10.0
            pids = alive
        time.sleep(0.05)


def _alive(pid: int) -> bool:
    try:
        # reap if it is our own zombie child
        done, _ = os.waitpid(pid, os.WNOHANG)
        if done == pid:
            return False
    except ChildProcessError:
        pass
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def host_facts(root_dir: str, ray_cpus: int) -> dict:
    import pyarrow
    import ray

    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
                break
    nproc = subprocess.run(["nproc"], capture_output=True, text=True,
                           check=False).stdout.strip()
    sha = "n/a (not a git checkout)"
    if os.path.isdir(os.path.join(root_dir, ".git")):
        got = subprocess.run(["git", "-C", root_dir, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        sha = got.stdout.strip() or sha
    return {
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "nproc": nproc,
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "ray_cpus": ray_cpus,
        "ram_gb": round(mem_kb / 2**20, 1),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "python": sys.version.split()[0],
        "git_sha": sha,
    }
