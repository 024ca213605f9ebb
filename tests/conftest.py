"""Shared test helpers."""

import contextlib
import signal

import pytest


@contextlib.contextmanager
def _deadline(seconds: float):
    """Raise ``TimeoutError`` in the block after ``seconds`` of wall time, so
    a call that would loop forever fails its test instead of hanging the
    run (POSIX ``SIGALRM``; main thread only)."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def deadline():
    """``with deadline(s): ...`` fails the test after ``s`` seconds."""
    return _deadline
