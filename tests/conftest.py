"""Suite-wide fixtures."""

import faulthandler
import os
import sys

import pytest

from driftlab import strategies

# No test runs near this long; one that does is hung (a pool worker that
# forked with a lock held, say), so dump every thread's stack and exit.
HANG_SECONDS = 120

STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # output capture is suspended here, so this copies the terminal's
    # stderr; a dump written inside a captured test would die with it
    config.stash[STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[STDERR_FD])


@pytest.fixture(autouse=True)
def traceback_on_hang(request):
    faulthandler.dump_traceback_later(
        HANG_SECONDS, exit=True, file=request.config.stash[STDERR_FD])
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture(autouse=True)
def shared_work_closed():
    """Fail a test that leaves strategies.shared_work open, its memos empty
    or not: a later test would silently reuse its generators or trained
    models instead of fitting and training."""
    yield
    left = {name: memo for name, memo in (("fit", strategies._fits),
                                          ("training", strategies._trained))
            if memo is not None}
    if left:
        strategies._fits = strategies._trained = None
        pytest.fail("strategies.shared_work was left open, holding "
                    + ", ".join(f"{len(memo)} {name} entries" for name, memo in left.items()))
