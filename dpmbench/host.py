"""Host and provenance data printed with every result, plus process probes.

Everything here reads ``/proc`` (Linux).  The CPU steal share flags a run
measured while the hypervisor withheld the CPU; it never discards a run.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import signal
import sys
import time
from pathlib import Path

import numpy as np


PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt orphaned descendants: a process that a child leaves behind (a
    backend its fleet did not drain) becomes this process's child, so it can
    be counted and reaped here instead of outliving the run."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under ``root`` (relative path + bytes),
    skipping bytecode caches, so a result names the exact source it ran."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        digest.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_times() -> "tuple[int, int]":
    """(steal, total) jiffies of the aggregate ``cpu`` line of /proc/stat."""
    with open("/proc/stat", encoding="utf-8") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user/nice.
    return fields[7], sum(fields[:8])


class StealMeter:
    """CPU steal share between construction and :meth:`share`."""

    def __init__(self) -> None:
        self._start = cpu_times()

    def share(self) -> float:
        steal, total = cpu_times()
        d_total = total - self._start[1]
        return (steal - self._start[0]) / d_total if d_total > 0 else 0.0


def peak_rss_mib(pid: "int | str" = "self") -> float:
    """A process's peak resident set (``VmHWM``) in MiB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


def _stat(pid: "int | str") -> "list[str] | None":
    """The fields of ``/proc/<pid>/stat`` after the command name (state,
    ppid, ...), or ``None`` if the process is gone."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None


def reap_children() -> None:
    """Collect the exit status of every child of this process that has
    already exited, so none lingers as a zombie."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def live_descendants() -> "list[int]":
    """Every process below this one that is still running (zombies are
    reaped or skipped), found by walking the parent links in /proc."""
    reap_children()
    children: "dict[int, list[int]]" = {}
    states: "dict[int, str]" = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat(entry)
        if fields is None:
            continue
        states[int(entry)] = fields[0]
        children.setdefault(int(fields[1]), []).append(int(entry))
    found, stack = [], [os.getpid()]
    while stack:
        for child in children.get(stack.pop(), ()):
            stack.append(child)
            if states[child] not in ("Z", "X"):
                found.append(child)
    return found


def stop_descendants(grace_s: float = 10.0) -> None:
    """SIGTERM every process below this one, SIGKILL what is left after
    ``grace_s``, and reap them all.  Repeats until none is left, because a
    process that dies may leave children of its own behind, which a
    subreaper (see :func:`become_subreaper`) then adopts."""
    for sig in (signal.SIGTERM, signal.SIGKILL, signal.SIGKILL, signal.SIGKILL):
        pids = live_descendants()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + grace_s
        while pids and time.monotonic() < deadline:
            time.sleep(0.02)
            pids = live_descendants()
    pids = live_descendants()
    if pids:
        raise RuntimeError(f"processes {pids} survived SIGKILL")


def provenance(src: Path, cpus: "set[int]", steal_share: float) -> dict:
    return {
        "nproc": len(cpus),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "src_sha256": tree_digest(src),
        "cpu_steal_share": steal_share,
    }
