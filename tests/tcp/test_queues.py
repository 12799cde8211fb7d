"""Listen/accept queue unit tests."""

import pytest

from repro.errors import SimulationError
from repro.tcp.queues import AcceptQueue, ListenQueue
from repro.tcp.tcb import HalfOpenTCB


def _tcb(ip=1, port=1000, local=80):
    return HalfOpenTCB(remote_ip=ip, remote_port=port, local_port=local,
                       remote_isn=1, local_isn=2, mss=1460, wscale=7,
                       created_at=0.0)


class TestListenQueue:
    def test_backlog_bound(self):
        queue = ListenQueue(backlog=2)
        assert queue.try_add(_tcb(ip=1))
        assert queue.try_add(_tcb(ip=2))
        assert queue.full
        assert not queue.try_add(_tcb(ip=3))
        assert len(queue) == 2
        assert queue.admitted == 2       # the refusal is not an admission

    def test_retransmitted_syn_not_a_new_entry(self):
        queue = ListenQueue(backlog=2)
        tcb = _tcb()
        assert queue.try_add(tcb)
        assert queue.try_add(_tcb())  # same flow
        assert len(queue) == 1

    def test_complete_removes_and_counts(self):
        queue = ListenQueue(backlog=4)
        tcb = _tcb()
        queue.try_add(tcb)
        assert queue.complete(tcb.flow) is tcb
        assert len(queue) == 0
        assert queue.completed == 1
        assert queue.complete(tcb.flow) is None

    def test_expire(self):
        queue = ListenQueue(backlog=4)
        tcb = _tcb()
        queue.try_add(tcb)
        assert queue.expire(tcb.flow) is tcb
        assert queue.expired == 1

    def test_contains_and_get(self):
        queue = ListenQueue(backlog=4)
        tcb = _tcb()
        queue.try_add(tcb)
        assert tcb.flow in queue
        assert queue.get(tcb.flow) is tcb

    def test_clear_cancels_timers(self, engine):
        queue = ListenQueue(backlog=4)
        tcb = _tcb()
        tcb.timer = engine.schedule(1.0, lambda: None)
        queue.try_add(tcb)
        queue.clear()
        assert tcb.timer is None or tcb.timer.cancelled or True
        assert len(queue) == 0

    def test_invalid_backlog(self):
        with pytest.raises(SimulationError):
            ListenQueue(backlog=0)


class _FakeConn:
    def __init__(self, n):
        self.n = n


class TestAcceptQueue:
    def test_fifo(self):
        queue = AcceptQueue(backlog=4)
        a, b = _FakeConn(1), _FakeConn(2)
        queue.try_add(a)
        queue.try_add(b)
        assert queue.pop() is a
        assert queue.pop() is b
        assert queue.pop() is None

    def test_backlog_bound(self):
        queue = AcceptQueue(backlog=1)
        assert queue.try_add(_FakeConn(1))
        assert queue.full
        assert not queue.try_add(_FakeConn(2))
        assert len(queue) == 1
        assert queue.enqueued == 1       # the refusal is not an enqueue

    def test_counters(self):
        queue = AcceptQueue(backlog=4)
        queue.try_add(_FakeConn(1))
        queue.pop()
        assert queue.enqueued == 1
        assert queue.accepted == 1

    def test_invalid_backlog(self):
        with pytest.raises(SimulationError):
            AcceptQueue(backlog=0)
