"""Unit tests for the event heap."""

import pytest

from repro.rt import EventHeap, EventKind


class TestEventHeap:
    def test_orders_by_time(self):
        heap = EventHeap()
        heap.push(2.0, EventKind.PERIODIC, "late")
        heap.push(1.0, EventKind.JOB_FINISH, "early")
        assert heap.pop() == (1.0, EventKind.JOB_FINISH, "early")
        assert heap.pop() == (2.0, EventKind.PERIODIC, "late")

    def test_ties_break_in_insertion_order(self):
        heap = EventHeap()
        # Kinds and payloads that do not order (or compare) among themselves:
        # a tie must be settled by insertion order alone.
        heap.push(1.0, EventKind.PERIODIC, {"first": 1})
        heap.push(1.0, EventKind.JOB_FINISH, {"second": 2})
        heap.push(1.0, EventKind.SOURCE_RELEASE, None)
        assert [heap.pop()[1] for _ in range(3)] == [
            EventKind.PERIODIC,
            EventKind.JOB_FINISH,
            EventKind.SOURCE_RELEASE,
        ]

    def test_negative_time_rejected(self):
        heap = EventHeap()
        with pytest.raises(ValueError, match="negative time"):
            heap.push(-1.0, EventKind.PERIODIC, None)
        assert not heap

    def test_len_and_bool(self):
        heap = EventHeap()
        assert not heap and len(heap) == 0
        heap.push(1.0, EventKind.SOURCE_RELEASE, "x")
        assert heap and len(heap) == 1
        heap.pop()
        assert not heap and len(heap) == 0
