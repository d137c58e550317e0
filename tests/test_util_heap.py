"""Unit and property tests for the addressable heap."""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.util.heap import AddressableHeap


class TestBasics:
    def test_empty(self):
        h = AddressableHeap()
        assert len(h) == 0
        assert not h
        with pytest.raises(IndexError):
            h.pop()
        with pytest.raises(IndexError):
            h.peek()

    def test_push_pop_sorted(self):
        h = AddressableHeap()
        for i, key in enumerate([5.0, 1.0, 3.0, 2.0, 4.0]):
            h.push(f"p{i}", key)
        keys = [h.pop()[1] for _ in range(5)]
        assert keys == sorted(keys)

    def test_peek_does_not_remove(self):
        h = AddressableHeap()
        h.push("a", 2.0)
        h.push("b", 1.0)
        assert h.peek() == ("b", 1.0)
        assert len(h) == 2

    def test_duplicate_push_rejected(self):
        h = AddressableHeap()
        h.push("a", 1.0)
        with pytest.raises(KeyError):
            h.push("a", 2.0)

    def test_contains_and_key_of(self):
        h = AddressableHeap()
        h.push("a", 1.5)
        assert "a" in h
        assert "b" not in h
        assert h.key_of("a") == 1.5
        with pytest.raises(KeyError):
            h.key_of("b")

    def test_update_decrease_and_increase(self):
        h = AddressableHeap()
        h.push("a", 5.0)
        h.push("b", 3.0)
        h.update("a", 1.0)
        assert h.peek()[0] == "a"
        h.update("a", 10.0)
        assert h.peek()[0] == "b"

    def test_push_or_update(self):
        h = AddressableHeap()
        h.push_or_update("a", 3.0)
        h.push_or_update("a", 1.0)
        assert h.key_of("a") == 1.0
        assert len(h) == 1

    def test_remove_returns_key(self):
        h = AddressableHeap()
        h.push("a", 1.0)
        h.push("b", 2.0)
        assert h.remove("a") == 1.0
        assert "a" not in h
        assert h.pop() == ("b", 2.0)

    def test_remove_missing_raises(self):
        h = AddressableHeap()
        with pytest.raises(KeyError):
            h.remove("ghost")

    def test_fifo_tie_breaking(self):
        h = AddressableHeap()
        for name in ["first", "second", "third"]:
            h.push(name, 1.0)
        assert h.pop()[0] == "first"
        assert h.pop()[0] == "second"
        assert h.pop()[0] == "third"

    def test_update_preserves_insertion_tiebreak(self):
        h = AddressableHeap()
        h.push("a", 1.0)
        h.push("b", 1.0)
        h.update("a", 1.0)  # same key; seqno must not change
        assert h.pop()[0] == "a"

    def test_add_to_all(self):
        h = AddressableHeap()
        h.push("a", 1.0)
        h.push("b", 2.0)
        h.add_to_all(-0.5)
        assert h.key_of("a") == 0.5
        assert h.key_of("b") == 1.5
        h.check_invariants()

    def test_clear(self):
        h = AddressableHeap()
        h.push("a", 1.0)
        h.clear()
        assert len(h) == 0
        h.push("a", 2.0)  # reusable after clear
        assert h.peek() == ("a", 2.0)

    def test_iteration_and_items(self):
        h = AddressableHeap()
        h.push("a", 1.0)
        h.push("b", 2.0)
        assert set(h) == {"a", "b"}
        assert dict(h.items()) == {"a": 1.0, "b": 2.0}


#: Op weights: key-changing updates dominate, so stale entries pile past
#: the rebuild bound (2·len + 32) several times in one sequence;
#: ``add_to_all`` rebuilds too, so it is rare.
OP_WEIGHTS = {
    "update": 100, "push_or_update": 20, "push": 8, "pop": 3, "peek": 3,
    "remove": 5, "key_of": 5, "add_to_all": 1,
}
OPS = [op for op, weight in OP_WEIGHTS.items() for _ in range(weight)]
#: Small integers make ties (FIFO by push order); -0.0 tells a stored
#: key from an equal one.
KEYS = [float(i) for i in range(-4, 5)] + [-0.0, 0.5, -2.25, 1e-9, 37.125]


class _CountingHeap(AddressableHeap):
    """Counts the rebuilds the size bound triggers."""

    __slots__ = ("rebuilds",)

    def __init__(self) -> None:
        super().__init__()
        self.rebuilds = 0

    def _rebuild(self) -> None:
        self.rebuilds += 1
        super()._rebuild()

    def add_to_all(self, delta: float) -> None:
        super().add_to_all(delta)
        self.rebuilds -= 1  # its rebuild is unconditional


@settings(max_examples=100, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, 7), st.sampled_from(KEYS)),
        min_size=200,
        max_size=400,
    )
)
def test_heap_matches_reference(ops):
    """Random op sequences agree with a dict + min() reference, through
    the lazy heap's rebuilds."""
    h = _CountingHeap()
    ref: dict[int, float] = {}
    seq: dict[int, int] = {}
    counter = 0

    def smallest():
        want_key = min(ref.values())
        candidates = [i for i, v in ref.items() if v == want_key]
        return min(candidates, key=lambda i: seq[i])

    def same(a, b):  # equal, and the same sign of zero
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)

    for op, item, key in ops:
        if op in ("push", "push_or_update") and item not in ref:
            getattr(h, op)(item, key)
            ref[item] = key
            seq[item] = counter
            counter += 1
        elif op == "pop" and ref:
            want = smallest()
            got_item, got_key = h.pop()
            assert got_item == want
            assert same(got_key, ref.pop(want))
        elif op == "peek" and ref:
            got_item, got_key = h.peek()
            assert got_item == smallest()
            assert same(got_key, ref[got_item])
        elif op in ("update", "push_or_update") and item in ref:
            getattr(h, op)(item, key)
            ref[item] = key
        elif op == "remove" and item in ref:
            assert same(h.remove(item), ref.pop(item))
        elif op == "key_of":
            if item in ref:
                assert same(h.key_of(item), ref[item])
            else:
                with pytest.raises(KeyError):
                    h.key_of(item)
        elif op == "add_to_all":
            h.add_to_all(key)
            ref = {i: v + key for i, v in ref.items()}
        h.check_invariants()
        assert len(h._heap) <= 2 * len(h) + 32
        assert len(h) == len(ref)
        assert dict(h.items()) == ref
    event(f"bound rebuilds: {min(h.rebuilds, 4)}{'+' if h.rebuilds >= 4 else ''}")
    # Drain and confirm full sorted order.
    drained = [h.pop() for _ in range(len(h))]
    assert [k for _, k in drained] == sorted(ref.values())
