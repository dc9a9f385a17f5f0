"""Two lanes for work split by index: the calling thread and one helper thread.

:func:`run` calls ``work(i)`` for every item ``i`` of a call. With two lanes,
the calling thread runs items 0, 2, 4 and so on and a helper thread, which
the call starts and joins before it returns, runs items 1, 3, 5. The split
is static, so there is no queue or lock, and an item may use scratch indexed
by its lane, ``i % lanes``. NumPy's FFTs, elementwise ufuncs, reductions and
matrix products release the interpreter lock, so the lanes overlap.

Callers split their work into the same items whatever the lane count, and
give every array larger than a small transient to the items from the calling
thread, so a lane only fills memory it was handed. Memory that the helper
thread allocated would stay in its own malloc arena after the call, and
grow the process's resident set.

:func:`count` is the one rule for how many lanes a caller may use: two when
the process may run on two or more CPUs and OpenBLAS runs one thread, else
one. Beside a BLAS pool of two or more threads, whose idle workers spin, a
helper thread would compete with them and slow the call down.
"""
from __future__ import annotations

import os
import threading


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def count() -> int:
    """Lanes a call may run on: two when the process may run on two or more
    CPUs and OpenBLAS runs one thread, else one.

    OpenBLAS sizes its pool at load from the first positive
    ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``, and
    with none of them from every CPU.
    """
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return 2 if threads == 1 and _cpu_count() >= 2 else 1
    return 1


def run(n: int, work, lanes: int) -> None:
    """Call ``work(i)`` for ``i`` in ``range(n)`` on ``lanes`` lanes (1 or 2).

    With one lane, or fewer than two items, every item runs on the calling
    thread in order. With two, the helper thread's items are 1, 3, 5 and so
    on; when the thread cannot be started (the process is at its thread
    limit), the calling thread runs them after its own. An error raised by
    an item on the helper thread is raised again on the calling thread once
    the helper is joined; one raised on the calling thread wins.
    """
    if lanes == 1 or n < 2:
        for i in range(n):
            work(i)
        return
    errors: list[BaseException] = []

    def helper_lane() -> None:
        try:
            for i in range(1, n, 2):
                work(i)
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)

    helper = threading.Thread(target=helper_lane, name="polyscore-lane")
    try:
        helper.start()
    except RuntimeError:  # no thread to be had: the calling thread runs both shares
        helper = None
    try:
        for i in range(0, n, 2):
            work(i)
    finally:
        if helper is not None:
            helper.join()
    if helper is None:
        helper_lane()
    if errors:
        raise errors[0]
