"""Work in forked children: one gate, one child type and an ordered map.

A child runs the function it inherited through the fork on each request
sent over its pipe. It ignores SIGINT and exits at EOF, when its parent
closes the pipe or exits, by SIGKILL too; a busy child notices only at its
next pipe operation, so a task should take well under 10 s.
"""

from __future__ import annotations

import os
import signal
import threading
from contextlib import contextmanager

# True in a child forked here, which may not fork children of its own.
_in_child = False
# The parent's end of the pipe of each live child, by pid. Any fork waits for
# the lock, so that no pipe is half made or half closed, and no module this
# file imports on first use half imported, when it happens; the forked
# process, however forked, then closes its copies of these ends, since its
# parent's children are not its own.
_live: dict = {}
_live_lock = threading.RLock()


def _forget_children() -> None:
    _live_lock.release()
    while _live:
        _live.popitem()[1].close()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_live_lock.acquire, after_in_parent=_live_lock.release,
                        after_in_child=_forget_children)


def cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def may_fork() -> bool:
    """Whether this process may fork a child to work beside it: it can fork,
    may run on two CPUs, is not daemonic (as a ``multiprocessing`` pool's
    worker is) and is not a child forked here."""
    if _in_child or not hasattr(os, "fork") or cpus() < 2:
        return False
    with _live_lock:  # imported on first use, and not while a fork happens
        import multiprocessing

    return not multiprocessing.current_process().daemon


class Child:
    """A forked process that replies ``fn(*args)`` to each ``send(*args)``;
    ``name`` names it in the error raised if it dies."""

    def __init__(self, fn, name: str):
        self.name, self.status = name, None
        with _live_lock:
            from multiprocessing.connection import Pipe

            self.conn, child_end = Pipe()
            self.pid = os.fork()
            if self.pid == 0:
                _serve(fn, child_end, self.conn)
            child_end.close()
            _live[self.pid] = self.conn

    def send(self, *args) -> None:
        self._exchange(self.conn.send, args)

    def recv(self):
        """The next reply: a result, or the exception raised, raised here."""
        ok, value = self._exchange(self.conn.recv)
        if not ok:
            raise value
        return value

    def _exchange(self, op, *args):
        """``op(*args)``; if that is cut short, by an interrupt, say, the
        child is closed, and if by the child's death, RuntimeError raised."""
        try:
            return op(*args)
        except BaseException as err:
            status = self.close()
            if isinstance(err, (EOFError, BrokenPipeError, ConnectionResetError)):
                raise RuntimeError(
                    f"the {self.name} (pid {self.pid}) died with exit status {status}"
                ) from None
            raise

    def close(self) -> int:
        """Close the pipe, so that the child exits once its call ends, and
        reap it; its exit status."""
        with _live_lock:
            self.conn.close()
            live = _live.pop(self.pid, None)
        if live:
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
        return self.status


def _serve(fn, conn, own_end) -> None:
    global _in_child
    try:
        _in_child = True
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        own_end.close()
        while True:
            try:
                args = conn.recv()
            except EOFError:
                os._exit(0)
            try:
                reply = True, fn(*args)
            except Exception as err:
                reply = False, err
            conn.send(reply)
    finally:
        os._exit(1)


@contextmanager
def children(fn, n: int, name: str):
    """``n`` children running ``fn``, reaped on exit; yields their map."""
    kids: list[Child] = []
    try:
        for k in range(n):
            kids.append(Child(fn, f"{name} {k}"))
        yield lambda items: _map(kids, items)
    finally:
        for kid in kids:
            kid.close()


def _map(kids: list[Child], items) -> list:
    """``[fn(item) for item in items]``, each item sent to the first child
    free. Once an item has raised, no more are sent; the running ones end,
    and the first item in order that raised raises here, as in a serial map.
    """
    from multiprocessing.connection import wait

    todo = list(enumerate(items))[::-1]
    results, raised, idle, running = [None] * len(todo), {}, list(kids), {}
    while running or todo and not raised:
        while idle and todo and not raised:
            kid, (i, item) = idle.pop(), todo.pop()
            kid.send(item)
            running[kid.conn] = kid, i
        for conn in wait(list(running)):
            kid, i = running.pop(conn)
            try:
                results[i] = kid.recv()
            except Exception as err:
                if conn.closed:  # the child died
                    raise
                raised[i] = err
            idle.append(kid)
    if raised:
        raise raised[min(raised)]
    return results
