"""The helper process that shares a rung's work with the caller.

``classpoly._shared`` checks its guards (``os.fork`` exists, no other
thread runs, at least two CPUs are usable) and only then imports this
module and calls ``share``: a computation that shares nothing never
loads it.  The helper is one long-lived process, forked by the first
call that shares work and killed and reaped when the interpreter exits
(the atexit hook registered below).  A process forked from the caller
forgets it (the at-fork hook) and forks its own.  Each shared call
sends the helper a task over a pipe: the name of a function of
``classpoly``, which the helper looks up in that module's namespace as
it was at the fork, so a task that a test or a script adds or patches
before the fork runs there too.
"""

from __future__ import annotations

import atexit
import marshal
import os
from functools import partial
from typing import BinaryIO, Callable, List, Optional, Sequence, Tuple, TypeVar

from . import classpoly

T = TypeVar("T")

_helper: Optional[Tuple[int, BinaryIO, BinaryIO]] = None
"""This process's helper: its pid, this process's end of the pipe that
takes its tasks and of the one that brings its replies; None before the
first shared call, and after a failure."""


def share(own: Callable[..., T], task: str, *args,
          stream: bool = False) -> Optional[Tuple[T, object]]:
    """``(own(), f(*args))``, f being the function of ``classpoly`` named
    ``task``, run by the helper while this process runs ``own()``; or
    None for the caller to run its one-process path instead.

    The first call forks the helper (``_fork_helper``), which then stays
    until the interpreter exits: each call sends it ``(task, args,
    stream)`` and reads back f's result, both as ``marshal`` writes them
    (plain ints, strings, None, and tuples and lists of them).  A task
    with little data costs about 40 us on a 2-core host, where a fork,
    ``_exit`` and ``waitpid`` cost 2.6 to 3.1 ms.  The helper runs
    classpoly's functions as they were when it was forked: a function
    replaced later, by a test's patch say, is replaced in this process
    only.

    The two processes are left where the kernel puts them.  A 2-core
    host that woke the helper on the caller's CPU ran the two shares one
    after the other (``scripts/helper_overlap.py`` shows it); pinning
    the two to different CPUs made a lone table pass 22 to 24% faster,
    but two processes at once 40% slower, every caller then sharing one
    CPU and every helper the other.

    A ``stream`` task takes more data while it runs: ``own`` is called
    with a function that sends one more message down the task pipe, and
    f is given, as its last argument, an iterator over those messages.
    Once ``own`` returns, this process sends None, which ends the stream;
    the helper's loop (``_serve``) reads the stream to that end, however
    much of it f read, before it replies.

    If f raises an Exception, the helper replies so and stays, and None
    comes back.  Any other exception, from the fork, the task's send,
    ``own()``, the stream's end or the reply's read (a message that
    finds the helper dead, say), may leave a message half written or a
    reply unread: it kills and reaps the helper and forgets it
    (``_stop_helper``), and the next call forks a new one.  None then
    comes back for an Exception; anything else (KeyboardInterrupt) is
    raised.
    """
    global _helper
    try:
        if _helper is None:
            _helper = _fork_helper()
        _send(_helper[1], (task, args, stream))
        mine = own(partial(_send, _helper[1])) if stream else own()
        if stream:
            _send(_helper[1], None)
        done, theirs = _receive(_helper[2])
    except BaseException as error:
        _stop_helper()
        if isinstance(error, Exception):
            return None
        raise
    return (mine, theirs) if done else None


def _send(pipe: BinaryIO, data: object) -> None:
    """Write ``data`` to the pipe as ``marshal`` writes it, after its
    length in 8 bytes."""
    packed = marshal.dumps(data)
    pipe.write(len(packed).to_bytes(8, "little"))
    pipe.write(packed)
    pipe.flush()


def _receive(pipe: BinaryIO) -> object:
    """What ``_send`` wrote to the pipe; EOFError at or before its end.

    One read of the whole message: ``marshal.load`` on the pipe would
    read it in thousands of small pieces, a millisecond for 6 kB."""
    # an empty or short read leaves marshal too few bytes, and EOFError
    return marshal.loads(pipe.read(int.from_bytes(pipe.read(8), "little")))


def _fork_helper() -> Tuple[int, BinaryIO, BinaryIO]:
    """Fork the helper (``_serve``): its pid, and this process's ends of
    its task pipe, to write, and of its reply pipe, to read."""
    ends: List[int] = []
    try:
        ends += os.pipe()
        ends += os.pipe()
        pid = os.fork()
    except BaseException:
        for end in ends:
            os.close(end)
        raise
    tasks_read, tasks_write, replies_read, replies_write = ends
    if pid == 0:
        _serve(ends)
    os.close(tasks_read)
    os.close(replies_write)
    return pid, open(tasks_write, "wb"), open(replies_read, "rb")


def _serve(ends: Sequence[int]) -> None:
    """The helper's loop over the pipe ends of ``_fork_helper``: read a
    task, run it, read the rest of its stream if it is a ``stream`` task
    (``share``), then send its result or the news that it raised.  A
    stream task is given an iterator over the messages that follow it
    on the task pipe, up to the None that ends them; what the task
    leaves unread, however it ends, is read here, so the next message is
    the next task.  The loop runs until the helper is killed
    (``_stop_helper``) or the task pipe ends, as it does when the caller
    exits without its atexit hooks.  The helper leaves only through
    ``os._exit``, so no atexit handler or buffered stream of the caller
    runs twice: with 0 at the pipe's end, 1 if anything else ends the
    loop (a KeyboardInterrupt, a reply pipe closed early)."""
    tasks_read, tasks_write, replies_read, replies_write = ends
    status = 1
    try:
        os.close(tasks_write)
        os.close(replies_read)
        tasks = open(tasks_read, "rb")
        replies = open(replies_write, "wb")
        while True:
            try:
                task, args, stream = _receive(tasks)
            except EOFError:
                break
            messages = iter(partial(_receive, tasks), None)
            if stream:
                args = (*args, messages)
            try:
                reply = True, getattr(classpoly, task)(*args)
            except Exception:
                reply = False, None
            if stream:
                for _ in messages:
                    pass
            _send(replies, reply)
        status = 0
    finally:
        os._exit(status)


def _stop_helper() -> None:
    """Kill the helper, close this process's ends of its pipes and reap
    it; nothing when there is no helper.  It runs on every failure of a
    shared call, when the helper may be busy or dead, and at exit, when
    it is idle and a kill costs nothing more than a close: so no helper
    outlives the interpreter."""
    global _helper
    if _helper is None:
        return
    pid, tasks, replies = _helper
    _helper = None
    # signal is imported here only: a computation that shares work loads
    # no module that only stopping the helper needs
    import signal
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # reaped already by another wait
    for pipe in (tasks, replies):
        try:
            pipe.close()
        except OSError:
            pass  # a task left unflushed in a broken pipe
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass


def _forget_helper() -> None:
    """In a process forked from this one, close the copies of the
    helper's pipe ends and forget it: the copy never writes into its
    parent's pipes, and forks its own helper if it shares work.  The
    parent's helper still sees its task pipe end when the parent closes
    it, whether or not the copy has exited."""
    global _helper
    if _helper is not None:
        for pipe in _helper[1:]:
            pipe.close()
        _helper = None


atexit.register(_stop_helper)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)
