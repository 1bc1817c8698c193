"""Independent pieces of one computation, run on every usable CPU.

`run(jobs)` takes zero-argument callables and returns their results in
order, as [job() for job in jobs] would. Job 0 runs in the calling
process and each further job, up to workers() - 1 of them, in one forked
child, which sends its result back marshalled through a pipe; so a job
that may run in a child must return a marshal-able value (ints, strings,
bools, None, and tuples, lists and dicts of them).

The caller runs job 0 itself rather than wait: two children and a parent
that samples a speed probe (perfbench does, from SIGALRM; forked
children do not inherit the interval timer) would be three busy
processes on two cores, slowing the probe and making the scaled times
look better than they are. A job that got no child, because there are
more jobs than workers or the fork was refused, runs in the caller after
job 0, and so does a job whose child exits nonzero or sends short data.
A job that raises therefore raises here, after the jobs before it, as in
a serial run: its child exits nonzero and the caller runs it again.
Children end in os._exit, so nothing of the parent's (buffered output,
atexit hooks, the caller's code) runs in them, and are reaped on every
path, killed first on an exception.

A child works on a copy of the parent's memory: what a job caches there
is gone when the child exits, and the parent's resource.getrusage
(RUSAGE_SELF) does not count the child.
"""

import contextlib
import marshal
import os

_FAILED = object()


def workers():
    """The number of usable CPUs, or 1 where os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run(jobs):
    """[job() for job in jobs], jobs 1 .. workers() - 1 in forked children
    (see the module docstring)."""
    children = {}
    try:
        for k in range(1, min(len(jobs), workers())):
            with contextlib.suppress(OSError):
                children[k] = _fork(jobs[k])
        results = [job() for job in jobs[:1]]
        for k in range(1, len(jobs)):
            result = _collect(children, k) if k in children else _FAILED
            results.append(jobs[k]() if result is _FAILED else result)
    finally:
        if children:
            import signal  # not at import: only a run cut short needs it
        for pid, pipe in children.values():
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def _fork(job):
    """(pid, pipe) of a forked child that runs job and sends its result
    through the pipe, marshalled, then ends in os._exit."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            data = marshal.dumps(job())
            with os.fdopen(w, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _collect(children, k):
    """Job k's result as child k sent it, or _FAILED where the child
    exited nonzero or sent short data; reaps the child."""
    pid, pipe = children[k]
    data = pipe.read()
    status = os.waitpid(pid, 0)[1]
    del children[k]
    pipe.close()
    if os.waitstatus_to_exitcode(status) == 0:
        with contextlib.suppress(EOFError, ValueError, TypeError):
            return marshal.loads(data)
    return _FAILED
