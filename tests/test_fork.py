import os
import select
import signal
import subprocess
import sys
import threading
import time

import pytest

from benchpursuit import _fork
from benchpursuit._fork import Child, children
from conftest import assert_no_child_left

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")


def _square(v):
    return v * v


def test_child_replies_and_ignores_sigint():
    """A reply per request, in order, also after a SIGINT, which is the
    parent's to handle; an exception the call returns is a reply too."""
    kid = Child(_square, "squarer")
    try:
        kid.send(3)
        assert kid.recv() == 9
        os.kill(kid.pid, signal.SIGINT)
        kid.send(4)
        kid.send(5)
        assert [kid.recv(), kid.recv()] == [16, 25]
        kid.send("x")
        with pytest.raises(TypeError):
            kid.recv()
        assert kid.close() == 0
    finally:
        kid.close()
    assert_no_child_left()


def test_a_child_may_not_fork(monkeypatch):
    monkeypatch.setattr(_fork, "cpus", lambda: 2)
    assert _fork.may_fork()
    kid = Child(_fork.may_fork, "gate")
    try:
        kid.send()
        assert kid.recv() is False
    finally:
        kid.close()


def test_dead_child_raises_and_is_reaped():
    """EOF on the reply, or a broken pipe on the request, is the child's
    death: one RuntimeError naming the child and its exit status."""
    kid = Child(os._exit, "exiter")
    kid.send(3)
    with pytest.raises(RuntimeError, match=r"^the exiter \(pid \d+\) died with exit status 3$"):
        kid.recv()
    assert kid.close() == 3
    kid = Child(_square, "squarer")
    os.kill(kid.pid, signal.SIGKILL)
    deadline = time.monotonic() + 10
    with pytest.raises(RuntimeError, match=r"^the squarer \(pid \d+\) died with exit status -9$"):
        while time.monotonic() < deadline:  # the request fits the pipe until the child is gone
            kid.send(1)
            time.sleep(0.01)
    assert_no_child_left()


def test_a_sibling_does_not_keep_a_childs_pipe_open():
    """A child forked after another closes its copy of the other's pipe, so
    closing the first one's pipe ends it while the second lives on."""
    first, second = Child(_square, "first"), Child(_square, "second")
    closer = threading.Thread(target=first.close)
    closer.start()
    closer.join(timeout=10)
    hung = closer.is_alive()
    second.close()
    closer.join(timeout=10)
    assert not closer.is_alive()
    assert not hung, "the second child kept the first one's pipe open"
    assert_no_child_left()


def test_any_fork_drops_the_parents_children():
    """A process forked by other means than Child closes its copies of its
    parent's children's pipes, and forks children of its own."""
    kid = Child(_square, "squarer")
    try:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                own = Child(_square, "own")
                own.send(3)
                dropped = kid.conn.closed and list(_fork._live) == [own.pid]
                status = 0 if dropped and own.recv() == 9 and own.close() == 0 else 2
            finally:
                os._exit(status)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
        kid.send(2)
        assert kid.recv() == 4
    finally:
        kid.close()
    assert_no_child_left()


def test_a_fork_waits_for_a_child_being_made(monkeypatch):
    """A fork from one thread while another makes and closes children waits
    for the child being made or closed, so the forked process inherits
    neither the registry's lock held nor a pipe end half closed, and forks a
    child of its own."""
    unraisable = []  # what the at-fork rule raises in a forked process
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    stop = threading.Event()

    def churn():
        while not stop.is_set():
            Child(_square, "churned").close()

    churner = threading.Thread(target=churn)
    churner.start()
    try:
        for _ in range(100):
            pid = os.fork()
            if pid == 0:
                signal.alarm(10)  # a lock inherited held would block for ever
                status = 1
                try:
                    own = Child(_square, "own")
                    ok = not unraisable and list(_fork._live) == [own.pid]
                    status = 0 if ok and own.close() == 0 else 2
                finally:
                    os._exit(status)
            assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    finally:
        stop.set()
        churner.join(timeout=10)
    assert not churner.is_alive()
    assert_no_child_left()


_FIRST_IMPORT = """
import os, signal, sys, threading
from benchpursuit import _fork

_fork.cpus = lambda: 2
assert "multiprocessing" not in sys.modules, "imported with the package"


def square(v):
    return v * v


def churn():
    while not stop.is_set():
        _fork.may_fork()
        _fork.Child(square, "churned").close()


stop = threading.Event()
churner = threading.Thread(target=churn)
churner.start()
try:
    for k in range(30):
        pid = os.fork()
        if pid == 0:
            signal.alarm(5)  # a module lock inherited held would block for ever
            status = 1
            try:
                status = 0 if _fork.may_fork() and _fork.Child(square, "own").close() == 0 else 2
            finally:
                os._exit(status)
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        assert status == 0, f"fork {k}: the forked process ended with status {status}"
finally:
    stop.set()
    churner.join()
"""


def test_a_fork_waits_for_a_first_import():
    """In a fresh interpreter, where no child has been made, a fork from one
    thread while another imports ``multiprocessing`` for its first gate and
    child waits for the import, so the forked process does not block on a
    module lock inherited held, and forks a child of its own."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _FIRST_IMPORT], env=env, timeout=60,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _item(i):
    if i == 1:
        time.sleep(0.3)
        raise ValueError("item 1")
    if i == 3:
        raise ValueError("item 3")
    if i == 5:
        return ValueError("returned, not raised")
    time.sleep(0.3 if i == 0 else 0.0)
    return i, os.getpid()


def test_map_keeps_item_order_and_feeds_the_first_free_child():
    with children(_item, 2, "mapper") as map_:
        got = map_([0, 2, 4, 6])
        assert [i for i, _ in got] == [0, 2, 4, 6]
        pids = [pid for _, pid in got]
        assert pids[1] == pids[2] == pids[3] != pids[0], "a free child waited for a busy one"
        assert str(map_([5])[0]) == "returned, not raised"
    assert_no_child_left()


def test_map_raises_the_first_failed_item_in_order():
    """Item 3 fails first, item 1 later: item 1's error is raised, as a
    serial map would raise it, and the children serve the next map."""
    with children(_item, 2, "mapper") as map_:
        with pytest.raises(ValueError, match="^item 1$"):
            map_(range(6))
        assert [i for i, _ in map_([2, 4])] == [2, 4]
    assert_no_child_left()


_SIGKILL_PARENT = """
import os, sys, time
import numpy as np
import benchpursuit as bp
from benchpursuit import _fork, optimize

_fork.cpus = lambda: 2
_fork.TASK_PAIRS = 0
rng = np.random.default_rng(0)
x = bp.DataMatrix(rng.standard_normal((30, 3)), ("a", "b", "c"))
y = bp.DataMatrix(rng.standard_normal((30, 3)), ("a", "b", "c"))
if sys.argv[2] == "helper, then restarts":
    bp.index(bp.ProjectionFrame(np.eye(3)[:, :2]), x, y)
parent, busy = os.getpid(), False
real = optimize.index


def slow(frame, *args):
    global busy
    if os.getpid() != parent:
        if not busy:
            busy = True
            os.write(1, b"busy\\n")
        time.sleep(0.02)
    return real(frame, *args)


optimize.index = slow
if sys.argv[2] == "probes":  # 13 probes of 20 ms per task
    cfg = bp.SearchConfig(optimizer="geodesic", restarts=1, max_iterations=10**6,
                          geodesic=bp.GeodesicConfig(min_angle=1e-300))
else:  # one restart of 40 evaluations of 20 ms per task
    cfg = bp.SearchConfig(restarts=10**4, max_iterations=39)
bp.run_search(x, y, d=2, search_cfg=cfg)
"""


@pytest.mark.parametrize("kind", ["restarts", "probes", "helper, then restarts"])
def test_children_exit_with_a_sigkilled_parent(kind):
    """Every child forked by a search, and a helper forked before it, exits
    within 10 s of its parent's SIGKILL. They hold the write end of a pipe
    that the parent also held, so its read end reaches EOF once they have
    all exited."""
    read_end, write_end = os.pipe()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    parent = subprocess.Popen(
        [sys.executable, "-c", _SIGKILL_PARENT, str(write_end), kind], env=env,
        stdout=subprocess.PIPE, text=True, pass_fds=(write_end,)
    )
    os.close(write_end)
    try:
        # if no child was forked, the search runs in the parent and never ends
        if not select.select([parent.stdout], [], [], 60)[0]:
            pytest.fail("no child was busy within 60 s")
        assert parent.stdout.readline() == "busy\n"
        parent.kill()
        parent.wait(timeout=10)
        ready, _, _ = select.select([read_end], [], [], 10)
        assert ready, "a child outlived its SIGKILLed parent by 10 s"
        assert os.read(read_end, 1) == b""
    finally:
        parent.kill()
        parent.wait(timeout=10)
        parent.stdout.close()
        os.close(read_end)
