#!/usr/bin/env python3
"""Time how far the caller's and the helper's shares of a table pass overlap.

On two usable CPUs, every row of the paper's table with three forms or
more is evaluated on two processes: the caller evaluates every second
form, the helper process the others (``classpoly._evaluate_all``).  The
two shares only save time if they run at once.  This script times each
share of every shared row of one pass over the 38-row table, after one
untimed pass that forks the helper: the caller's share in this process
(around the ``own`` that ``classpoly._shared`` runs), the helper's in
the helper (``classpoly._sent_values``, replaced by a timed copy before
the fork, as ``scripts/sweep_split.py`` replaces functions), on the
system-wide ``time.perf_counter`` clock.  The helper's times come back
through one more shared call to a function of this script, added to
the helper's table of tasks (``helper.TASKS``) before the fork.

Before the table pass it probes the host: the seconds of one forked
CPU-bound child alone, then of two such children at once.  Two that
take about as long as one ran on two CPUs; two that take twice as long
shared one, so a low overlap below is the host's doing and not the
helper's placement.  Next to the probe it times one table pass shared
with the helper and one with ``classpoly._shared`` giving None, so on
one process, each after an untimed pass of its own: whether the helper
pays on this host right now.  On a 2-core host the answer flipped with
the host's state: while two CPU-bound children ran as fast as one, the
benchmark's ``table`` read 0.039 to 0.041 reference seconds shared and
0.050 to 0.052 serial; while two took 2.3 times as long as one, it read
0.052 to 0.060 shared and 0.050 to 0.055 serial.  Nothing is gated on
these numbers.

It prints the CPUs each process may run on during a share, then per
pass: the shared rows, the median overlap of the two shares as a share
of the shorter one, the wait after the caller's share summed over the
rows, and the pass time.  An overlap near 0% means that both processes
ran on one CPU, one after the other.

Usage:
    python scripts/helper_overlap.py [--passes P]
"""

import argparse
import os
import statistics
import sys
import time

import classinv.classpoly as classpoly
import classinv.helper as helper

TABLE_NS = tuple(n for n in range(107, 996) if n % 24 == 11)
"""The 38 rows of the paper's table."""

_helper_times = []
"""(rows, start, end) of each ``_sent_values`` call in the helper."""


def _timed_sent_values(evaluate, rows, digits, _original=classpoly._sent_values):
    start = time.perf_counter()
    values = _original(evaluate, rows, digits)
    _helper_times.append((tuple(map(tuple, rows)), start, time.perf_counter()))
    return values


def _sent_times():
    """The helper's share times so far, then none: a task for the helper."""
    times = list(_helper_times)
    _helper_times.clear()
    return times


def _timing_shared(caller_times, masks, _original=classpoly._shared):
    """A ``_shared`` that appends (rows, start, end, returned) of each
    shared ``_sent_values`` call to ``caller_times``: rows are the
    helper's, start and end bound this process's share, returned is when
    the helper's reply was in.  ``masks`` gains this process's CPUs
    during each share."""
    def shared(own, task, *args, **kwargs):
        spans = []

        def timed_own(*own_args):
            masks.add(frozenset(os.sched_getaffinity(0)))
            spans.append(time.perf_counter())
            try:
                return own(*own_args)
            finally:
                spans.append(time.perf_counter())

        result = _original(timed_own, task, *args, **kwargs)
        if task == "_sent_values" and result is not None:
            caller_times.append((tuple(map(tuple, args[1])), *spans, time.perf_counter()))
        return result

    return shared


def _children(count):
    """Seconds until ``count`` forked children, started together and each
    summing the same 5 million squares, have all exited."""
    start = time.perf_counter()
    pids = []
    for _ in range(count):
        pid = os.fork()
        if pid == 0:
            sum(i * i for i in range(5_000_000))
            os._exit(0)
        pids.append(pid)
    for pid in pids:
        os.waitpid(pid, 0)
    return time.perf_counter() - start


def table_pass():
    """Seconds of one pass over the table."""
    start = time.perf_counter()
    for n in TABLE_NS:
        classpoly.compute_ramanujan(n)
    return time.perf_counter() - start


def shared_and_serial_passes():
    """Seconds of one table pass shared with the helper, then of one on
    one process (``classpoly._shared`` giving None), each timed after an
    untimed pass in its mode."""
    shared = classpoly._shared
    seconds = []
    for share in (shared, lambda *args, **kwargs: None):
        classpoly._shared = share
        table_pass()
        seconds.append(table_pass())
    classpoly._shared = shared
    return seconds


def overlap(caller, helper):
    """The time both shares ran, as a share of the shorter one."""
    (c_start, c_end), (h_start, h_end) = caller, helper
    both = min(c_end, h_end) - max(c_start, h_start)
    return max(0.0, both) / min(c_end - c_start, h_end - h_start)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=1, help="timed table passes")
    args = parser.parse_args(argv)
    affinity = getattr(os, "sched_getaffinity", None)
    if not hasattr(os, "fork") or affinity is None or len(affinity(0)) < 2:
        print("fewer than two usable CPUs, no os.fork or no CPU masks: nothing is shared")
        return 0
    print(f"host probe: one CPU-bound child {_children(1):.2f} s alone,"
          f" two at once {_children(2):.2f} s")
    shared, serial = shared_and_serial_passes()
    print(f"table pass: {1000 * shared:.1f} ms shared with the helper,"
          f" {1000 * serial:.1f} ms on one process")
    caller_times = []
    masks = set()
    helper._stop_helper()
    classpoly._sent_values = _timed_sent_values
    helper.TASKS["_sent_times"] = sys.modules[__name__]
    classpoly._shared = _timing_shared(caller_times, masks)
    table_pass()
    if not caller_times:
        print("no row was shared")
        return 0
    print(f"caller CPUs during a share {sorted(set().union(*masks))},"
          f" helper CPUs {sorted(os.sched_getaffinity(helper._helper[0]))}")
    classpoly._shared(lambda: None, "_sent_times")
    for number in range(1, args.passes + 1):
        caller_times.clear()
        seconds = table_pass()
        helper_times = {rows: (start, end) for rows, start, end in
                        classpoly._shared(lambda: None, "_sent_times")[1]}
        overlaps, wait = [], 0.0
        for rows, start, end, returned in caller_times:
            overlaps.append(overlap((start, end), helper_times[rows]))
            wait += returned - end
        print(f"pass {number}: {len(overlaps)} shared rows, median overlap"
              f" {100 * statistics.median(overlaps):.1f}%, wait after the caller's share"
              f" {1000 * wait:.2f} ms in all, pass {1000 * seconds:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
