import contextlib
import signal

import pytest


@pytest.fixture
def time_limit():
    """`with time_limit(s):` fails the block once it has run s seconds, so a
    regression to exponential-time code fails instead of hanging the suite.
    Uses SIGALRM; where that does not exist the block runs unbounded."""
    @contextlib.contextmanager
    def limit(seconds: float):
        if not hasattr(signal, "setitimer"):
            yield
            return

        def expire(signum, frame):
            raise TimeoutError(f"block ran longer than {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return limit
