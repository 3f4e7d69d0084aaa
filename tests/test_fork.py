import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from majorana1d import _fork, errors

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="the child is forked on Linux only")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_join_returns_what_the_child_computed():
    with _fork.Child(os.getpid) as child:
        assert child.join() != os.getpid()
    with _fork.Child(np.linspace, 0.0, 1.0, 5) as child:
        assert child.join().tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert_no_child_left()


def test_child_exception_is_raised_in_the_parent_with_its_traceback():
    def fail():
        raise errors.ConfigError("bad key in the child")

    with pytest.raises(errors.ConfigError, match="bad key in the child") as caught:
        _fork.Child(fail).join()
    assert "in fail" in str(caught.value.__cause__)
    assert_no_child_left()


# one instance of every package error whose constructor takes more than a message
ERRORS = [
    errors.InstabilityError(7, "nan at step 7"),
    errors.InstabilityError(3),
    errors.PotentialSyntaxError(4, "unknown identifier 'y'"),
    errors.UnboundLevelError("verify.n_max is 4"),
]


@pytest.mark.parametrize("error", ERRORS, ids=lambda err: f"{type(err).__name__}:{err}")
def test_package_errors_keep_their_type_message_and_fields(error):
    def fail():
        raise error

    with pytest.raises(type(error)) as caught:
        _fork.Child(fail).join()
    assert str(caught.value) == str(error)
    assert vars(caught.value) == vars(error)


@pytest.mark.parametrize(
    "end, status",
    [
        (lambda: os._exit(3), "ended with exit status 3 before sending its result"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
    ],
    ids=["exit", "signal"],
)
def test_child_that_sends_nothing_names_its_exit_status(end, status):
    with pytest.raises(RuntimeError, match=f"^forked child process \\d+ {status}$"):
        _fork.Child(end).join()
    assert_no_child_left()


def test_unpicklable_exception_arrives_as_runtime_error_with_the_traceback():
    class LocalError(Exception):  # a local class cannot be pickled
        pass

    def fail():
        raise LocalError("stays in the child")

    with pytest.raises(RuntimeError, match="cannot be sent back") as caught:
        _fork.Child(fail).join()
    assert "LocalError: stays in the child" in str(caught.value)
    assert_no_child_left()


def test_leaving_the_block_kills_and_reaps_a_running_child():
    began = time.monotonic()
    with pytest.raises(ValueError, match="parent failed"):
        with _fork.Child(time.sleep, 60):
            raise ValueError("parent failed")
    assert time.monotonic() - began < 10
    assert_no_child_left()


def test_start_forks_only_on_linux_with_one_thread_and_two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with _fork.start(os.getpid) as child:
        assert child.join() != os.getpid()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert _fork.start(os.getpid) is None
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert _fork.start(os.getpid) is None
    finally:
        release.set()
        other.join()

    monkeypatch.setattr(sys, "platform", "win32")
    assert _fork.start(os.getpid) is None
    assert_no_child_left()
