"""The catalog lock (``RWLock``) on its own: writer preference, the write
holder's reads, a failed reader's slot, and the write-wait observer.

Each test starts at most four threads and joins every one with a timeout,
so a lock that hangs fails the test instead of the suite."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.engine import RWLock

TIMEOUT = 5.0


def _start(target) -> threading.Thread:
    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def _join(*threads: threading.Thread) -> None:
    for thread in threads:
        thread.join(TIMEOUT)
        assert not thread.is_alive(), "the lock hung"


def _until(predicate) -> None:
    deadline = time.monotonic() + TIMEOUT
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting for the lock state"
        time.sleep(0.001)


def test_a_waiting_writer_blocks_a_new_reader_until_it_has_run():
    lock = RWLock()
    events: list[str] = []
    reader_trying = threading.Event()

    def write():
        with lock.write_locked():
            events.append("writer")

    def read():
        reader_trying.set()
        with lock:
            events.append("reader")

    with lock.read_locked():
        writer = _start(write)
        _until(lambda: lock._writers_waiting == 1)
        reader = _start(read)
        assert reader_trying.wait(TIMEOUT)
        time.sleep(0.05)  # a reader that did not wait would be in by now
        assert events == []
    _join(writer, reader)
    assert events == ["writer", "reader"]


def test_the_write_holder_enters_the_read_side():
    lock = RWLock()
    entered: list[int] = []

    def transition():
        with lock.write_locked():
            with lock:
                with lock.read_locked():
                    entered.append(lock._readers)
            with lock.write_locked():  # reentrant on the write side too
                entered.append(lock._writer_depth)

    _join(_start(transition))
    assert entered == [0, 2]
    assert lock._writer is None and lock._readers == 0
    with lock:  # released for readers again
        pass


def test_a_reader_that_raises_gives_its_slot_back():
    lock = RWLock()
    with pytest.raises(ValueError):
        with lock:
            raise ValueError("the statement failed")
    assert lock._readers == 0
    wrote = threading.Event()

    def write():
        with lock.write_locked():
            wrote.set()

    _join(_start(write))
    assert wrote.is_set()


def test_the_write_wait_observer_fires_once_per_contended_write():
    lock = RWLock()
    waits: list[float] = []
    lock.write_wait_observer = waits.append

    def write():
        with lock.write_locked():
            with lock.write_locked():  # a reentrant write waits for nothing
                pass

    with lock:
        writer = _start(write)
        _until(lambda: lock._writers_waiting == 1)
        time.sleep(0.02)
    _join(writer)
    assert len(waits) == 1
    assert waits[0] >= 0.02
