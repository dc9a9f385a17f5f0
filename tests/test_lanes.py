import threading

from polyscore import lanes


def _record(n, n_lanes):
    """The thread that ran each item of one call, by item."""
    threads = {}

    def work(i):
        threads[i] = threading.current_thread()

    lanes.run(n, work, n_lanes)
    return threads


def test_two_lanes_split_items_by_parity():
    caller = threading.current_thread()
    threads = _record(7, 2)
    assert sorted(threads) == list(range(7))
    assert all(threads[i] is caller for i in range(0, 7, 2))
    assert {threads[i].name for i in range(1, 7, 2)} == {"polyscore-lane"}
    assert not [t for t in threading.enumerate() if t.name == "polyscore-lane"]


def test_one_lane_or_one_item_runs_in_order_on_the_calling_thread():
    caller = threading.current_thread()
    for n, n_lanes in ((5, 1), (1, 2), (0, 2)):
        order = []
        lanes.run(n, lambda i: order.append((i, threading.current_thread())), n_lanes)
        assert order == [(i, caller) for i in range(n)]


def test_a_helper_that_cannot_start_leaves_its_share_to_the_calling_thread(monkeypatch):
    # Thread.start raises RuntimeError when the process is at its thread
    # limit; the calling thread then runs the helper's items after its own
    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    caller = threading.current_thread()
    order = []
    lanes.run(5, lambda i: order.append((i, threading.current_thread())), 2)
    assert order == [(i, caller) for i in (0, 2, 4, 1, 3)]
