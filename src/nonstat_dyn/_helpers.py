"""Forked helper processes for the two parallel streams: whether one may be
forked, and the one way it is forked, fed, read and stopped.  A helper
writes the raw bytes of each frame's arrays to a pipe, the only queue: it
blocks while the pipe is full."""
from __future__ import annotations

import os
import signal
import threading
from typing import Iterable, Optional

import numpy as np


def can_fork() -> bool:
    """Whether a forked helper could run beside this process: `os.fork`
    exists, two CPUs are available to the process, and no other Python
    thread runs (one could hold a lock when the process forks; numpy's
    OpenBLAS pool is no such thread, as its own fork handler stops it
    first).  Whether the machine has a CPU idle is `cpu_idle`'s test, left
    to work that costs more CPU time when split."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


def cpu_idle() -> bool:
    """Whether a CPU of the machine is idle, for a helper to get one of its
    own.  Split in two, the builds of a stream cost more CPU time in all,
    which only pays on a CPU that would otherwise idle.  The test reads the
    load of one moment, so `transfer.ulam_operators` asks again at the
    doubles of the run at which a stream was refused."""
    return runnable_elsewhere() < (os.cpu_count() or 1) - 1


def runnable_elsewhere() -> int:
    """The tasks runnable on the machine now, as /proc/loadavg counts them,
    less the threads of this process that are: an OpenBLAS thread spinning
    for a while after a solve stops at the fork.  Where /proc cannot be
    read, one per CPU."""
    try:
        with open("/proc/loadavg") as loadavg:
            runnable = int(loadavg.read().split()[3].split("/")[0])
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/stat") as stat:
                runnable -= stat.read().rpartition(")")[2].split()[0] == "R"
    except (OSError, ValueError, IndexError):
        return os.cpu_count() or 1
    return runnable


def fork(frames: Iterable[tuple]) -> Optional[tuple]:
    """Fork a helper process that iterates `frames`, writes the raw bytes
    of each frame's arrays to a pipe, flushing once per frame, and exits.
    Returns (pid, read end as a buffered file), or None if no process could
    be forked."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        status = 1
        try:
            # every inherited descriptor but the write end: another helper's
            # read end held here would keep that helper blocked on a full
            # pipe, and its parent waiting on it, once its parent is done
            os.closerange(0, write_end)
            os.closerange(write_end + 1, os.sysconf("SC_OPEN_MAX"))
            pipe = os.fdopen(write_end, "wb")
            for frame in frames:
                for arr in frame:
                    pipe.write(arr)
                pipe.flush()
            status = 0
        finally:
            # no atexit handler or inherited stdio buffer runs here
            os._exit(status)
    os.close(write_end)
    return pid, os.fdopen(read_end, "rb")


def receive(helper: tuple, *arrays: np.ndarray) -> bool:
    """Fill each of `arrays` in turn with the next bytes from `helper`'s
    pipe; False if the data comes up short."""
    return all(helper[1].readinto(arr) == arr.nbytes for arr in arrays)


def reap(helper: tuple) -> None:
    """Close the read end, stop the helper and wait for it: whatever it has
    left to do is work nobody reads, such as the rest of a network half
    after the parent's own half raised.  Until it is waited for, its pid
    cannot be reused, so the kill reaches no other process."""
    pid, pipe = helper
    pipe.close()
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
