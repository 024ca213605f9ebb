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


@pytest.fixture
def count_solves(monkeypatch):
    """The engine's saturated prefix solves, one ``(rates, prefix)`` entry
    per ``adaptive_stationary`` call: the prefix's arrival rates and its
    queues in increasing order, as the ``prefix_law`` call that made it
    names them."""
    import coupledq.engine

    calls = []
    prefixes = []  # the prefix of each prefix_law call in progress
    solve = coupledq.engine.adaptive_stationary
    law = coupledq.engine.StabilityEngine.prefix_law

    def counted(rates, deaths, **kwargs):
        calls.append((tuple(rates), prefixes[-1]))
        return solve(rates, deaths, **kwargs)

    def named(self, rates, prefix):
        prefixes.append(tuple(sorted(prefix)))
        try:
            return law(self, rates, prefix)
        finally:
            prefixes.pop()

    monkeypatch.setattr(coupledq.engine, "adaptive_stationary", counted)
    monkeypatch.setattr(coupledq.engine.StabilityEngine, "prefix_law", named)
    return calls
