"""The shared collector pause (:mod:`repro.collector`).

The pause is process-wide: concurrent holders on different threads must
keep the collector off until the last one leaves, and a collector the
caller disabled must stay disabled.
"""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro.collector import collector_paused


@pytest.fixture(autouse=True)
def collector_on():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def test_pause_disables_then_restores():
    with collector_paused():
        assert not gc.isenabled()
        with collector_paused():  # re-entrant
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_pause_restores_after_an_exception():
    with pytest.raises(KeyError):
        with collector_paused():
            raise KeyError("boom")
    assert gc.isenabled()


def test_a_disabled_collector_stays_disabled():
    gc.disable()
    with collector_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_first_thread_out_leaves_the_collector_off():
    """Thread A pauses, thread B pauses, A leaves: B's bulk section is
    still running, so the collector stays off until B leaves too."""
    a_in, b_in, a_out, b_release = (threading.Event() for _ in range(4))
    seen = {}

    def first():
        with collector_paused():
            a_in.set()
            assert b_in.wait(10)
        a_out.set()

    def second():
        assert a_in.wait(10)
        with collector_paused():
            b_in.set()
            assert a_out.wait(10)
            seen["after_a_left"] = gc.isenabled()
            assert b_release.wait(10)

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    assert a_out.wait(10)
    b_release.set()
    for thread in threads:
        thread.join(10)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == {"after_a_left": False}
    assert gc.isenabled()


def test_concurrent_holders_never_see_the_collector_on():
    """More threads than cores entering and leaving the pause with a
    short switch interval: a lost holder count would turn collection
    back on under a holder, or leave it off at the end."""
    violations = []

    def churn():
        for _ in range(2000):
            with collector_paused():
                [[index] for index in range(50)]  # a bulk section
                if gc.isenabled():
                    violations.append(threading.get_ident())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert violations == []
    assert gc.isenabled()
