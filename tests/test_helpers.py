import os

import numpy as np
import pytest

from nonstat_dyn import _helpers


def counting_forks(monkeypatch):
    """Patch os.fork to record the pid of every child it starts; the list
    of pids."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid
    monkeypatch.setattr(os, "fork", counted)
    return pids


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_short_frame_is_received_as_false_and_reaped():
    # the helper's one frame holds 24 bytes and the parent asks for 32: the
    # first array is filled, the second comes up short once the helper has
    # exited, and reaping the helper leaves no child
    helper = _helpers.fork(iter([(np.arange(3, dtype=np.int64),)]))
    assert helper is not None
    head, rest = np.empty(2, dtype=np.int64), np.empty(2, dtype=np.int64)
    try:
        assert not _helpers.receive(helper, head, rest)
    finally:
        _helpers.reap(helper)
    assert head.tolist() == [0, 1]
    assert_no_child_left()
