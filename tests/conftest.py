"""Suite-wide guards."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_outlives_a_test():
    """Fail a test that leaves a child process running (a process pool's
    worker, the order-1 process of file-mode TSM), after stopping it so
    that later tests start clean."""
    yield
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
        child.join()
    assert not children, f"child processes outlived the test: {children}"
