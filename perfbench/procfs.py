"""CPU time and resident memory of this process and its descendants.

Read from ``/proc`` of the benchmark's own processes only: the driver
and everything it started (the Ray session's GCS, raylet and workers).
Ray workers, above all the aligner actors of each pipeline execution,
exit during a measurement and their CPU time is not reliably handed on
to a parent, so ``TreeMonitor`` samples every process while it lives and
keeps the last reading of each.
"""

from __future__ import annotations

import os
import threading

_TICK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int):
    """``(ppid, user + system CPU seconds)`` of one process."""
    with open(f"/proc/{pid}/stat") as f:
        data = f.read()
    fields = data[data.rindex(")") + 2:].split()
    # fields[0] is stat field 3 (state): ppid is field 4, utime/stime 14/15
    return int(fields[1]), (int(fields[11]) + int(fields[12])) / _TICK


def tree(root: int | None = None) -> dict[int, float]:
    """``{pid: cpu seconds}`` of ``root`` (default: this process) and all
    of its descendants."""
    root = os.getpid() if root is None else root
    info = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                info[int(name)] = _stat(int(name))
            except (OSError, ValueError, IndexError):
                pass  # exited while listing
    children = {}
    for pid, (ppid, _) in info.items():
        children.setdefault(ppid, []).append(pid)
    out, todo = {}, [root]
    while todo:
        pid = todo.pop()
        if pid in info:
            out[pid] = info[pid][1]
            todo.extend(children.get(pid, ()))
    return out


def _worker_hwm_mib(pid: int) -> float | None:
    """Peak resident set (VmHWM) of a Ray worker process, else None."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            if not f.read(5).startswith(b"ray::"):
                return None
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


class TreeMonitor:
    """Samples the process tree every ``interval_s`` from ``start`` to
    ``stop``: the CPU seconds it used in between (``lap`` splits them),
    and the highest peak resident memory of any one Ray worker."""

    def __init__(self, interval_s: float = 0.2):
        self.interval_s = interval_s
        self.base: dict[int, float] = {}
        self.last: dict[int, float] = {}
        self.lapped = 0.0
        self.peak_mib = 0.0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        with self._lock:
            for pid, cpu in tree().items():
                self.last[pid] = cpu
                hwm = _worker_hwm_mib(pid)
                if hwm is not None and hwm > self.peak_mib:
                    self.peak_mib = hwm

    def _cpu(self) -> float:
        self._sample()
        with self._lock:
            return sum(v - self.base.get(pid, 0.0) for pid, v in self.last.items())

    def lap(self) -> float:
        """CPU seconds since ``start`` or the previous ``lap``."""
        total = self._cpu()
        cpu, self.lapped = total - self.lapped, total
        return cpu

    def _run(self):
        while not self._stop.wait(self.interval_s):
            self._sample()

    def start(self):
        self.base = tree()
        self._thread.start()
        return self

    def stop(self) -> tuple[float, float]:
        """``(cpu seconds, peak worker MiB)`` since ``start``."""
        self._stop.set()
        self._thread.join(timeout=10)
        return self._cpu(), self.peak_mib
