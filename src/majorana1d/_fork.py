"""One call computed beside this process: in a forked child where it
may fork, else in this process.

``start(fn, *args)`` returns a handle, also a ``with`` block, whose
``join`` returns ``fn(*args)`` or raises its exception. A caller does
its own half between the two, so it has one order whether or not it
forks: its own half's error comes first, and the call is done when
``join`` returns.

``Child(fn, *args)`` forks. The child computes ``fn(*args)``, sends the
pickled result, or the exception it raised, back through a pipe and
ends with ``os._exit``, so none of this process's cleanup runs twice.
``join`` returns that result or re-raises that exception. Leaving a
``with`` block kills a child that was not joined and reaps it, so no
process outlives its caller, also when the caller raises first.

fork copies only the calling thread, so a lock another Python thread
holds would stay held in the child: ``start`` forks only on Linux and
while no other Python thread runs (fork is unsafe with the macOS system
frameworks and absent on Windows), and only when this process may run
on two CPUs or more; on one, the child would only add the fork's cost.
Otherwise its ``InProcess`` handle computes ``fn(*args)`` on ``join``,
and nothing when its block is left first.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import warnings


def can_fork() -> bool:
    return (
        sys.platform == "linux"
        and threading.active_count() == 1
        and len(os.sched_getaffinity(0)) >= 2
    )


def start(fn, *args) -> Child | InProcess:
    """``fn(*args)`` in a forked child where ``can_fork``, else here on ``join``."""
    return Child(fn, *args) if can_fork() else InProcess(fn, *args)


class InProcess:
    """``fn(*args)`` computed in this process by ``join``."""

    def __init__(self, fn, *args):
        self._fn, self._args = fn, args

    def join(self):
        return self._fn(*self._args)

    def __enter__(self) -> InProcess:
        return self

    def __exit__(self, *exc_info):
        pass


class _ChildTraceback(Exception):
    """The traceback text of an exception raised in the child."""


def _flush_std_streams():
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _outcome(fn, args) -> bytes:
    """The pickled ``(True, result)`` of ``fn(*args)``, or ``(False,
    pickled exception or None, traceback text)`` when it raises."""
    try:
        return pickle.dumps((True, fn(*args)))
    except BaseException as err:
        import traceback  # only here: each child would import it anew

        text = traceback.format_exc()
        try:
            pickled = pickle.dumps(err)
        except Exception:
            pickled = None
        return pickle.dumps((False, pickled, text))


class Child:
    """``fn(*args)`` computed in a child forked on construction."""

    def __init__(self, fn, *args):
        _flush_std_streams()  # else the child would write these buffers again
        read_end, write_end = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ also counts the idle BLAS threads, whose
                # pools register their own fork handlers; can_fork rules
                # out other Python threads
                warnings.filterwarnings(
                    "ignore", "This process .* is multi-threaded", DeprecationWarning
                )
                pid = os.fork()
        except BaseException:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:
            code = 1
            try:
                os.close(read_end)
                payload = _outcome(fn, args)
                with open(write_end, "wb") as pipe:
                    pipe.write(payload)
                _flush_std_streams()
                code = 0
            finally:
                os._exit(code)
        os.close(write_end)
        self._pid: int | None = pid
        self._pipe = open(read_end, "rb")

    def join(self):
        """The child's result, or its exception raised here. A child
        that ends without sending one raises RuntimeError naming its
        exit status; an exception that cannot be sent back arrives as a
        RuntimeError carrying the child's traceback text."""
        with self._pipe:
            payload = self._pipe.read()
        pid = self._pid
        code = os.waitstatus_to_exitcode(self._reap())
        if code < 0:
            raise RuntimeError(f"forked child process {pid} was killed by signal {-code}")
        if code > 0:
            raise RuntimeError(
                f"forked child process {pid} ended with exit status {code} "
                "before sending its result"
            )
        outcome = pickle.loads(payload)
        if outcome[0]:
            return outcome[1]
        _, pickled, text = outcome
        try:
            err = None if pickled is None else pickle.loads(pickled)
        except Exception:
            err = None
        if err is None:
            raise RuntimeError(
                f"forked child process {pid} raised an exception that cannot be "
                f"sent back:\n{text}"
            )
        raise err from _ChildTraceback(text)

    def _reap(self) -> int:
        pid, self._pid = self._pid, None
        return os.waitpid(pid, 0)[1]

    def kill(self):
        """Kill the child unless it was reaped, then reap it."""
        self._pipe.close()
        if self._pid is not None:
            import signal

            os.kill(self._pid, signal.SIGKILL)
            self._reap()

    def __enter__(self) -> Child:
        return self

    def __exit__(self, *exc_info):
        self.kill()
