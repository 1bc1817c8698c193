"""Two independent halves of one computation, on two CPUs where possible.

`run(first, second)` returns (first(), second()). Where os.fork exists
and more than one CPU is usable, a forked child runs second and sends
its result back through a pipe, marshalled (so ints, strings, bools,
None, and tuples, lists and dicts of them), while the caller runs first.
If the pipe or the fork is refused, or the child exits nonzero or sends
short or unmarshalable data, the caller runs second itself after first,
so an error in second is raised here, after first, as in a serial run.
The child ends in os._exit, so nothing of the parent's (buffered output,
atexit hooks, the caller's code) runs in it; it is reaped on every path,
killed first when first raises. It works on a copy of the parent's
memory: what second caches there is gone when it exits, and the
parent's resource.getrusage (RUSAGE_SELF) does not count it.
"""

import contextlib
import marshal
import os


def _cpus():
    """The number of usable CPUs."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run(first, second):
    """(first(), second()), second in a forked child where it can be."""
    if not hasattr(os, "fork") or _cpus() < 2:
        return first(), second()
    try:
        pid, pipe = _fork(second)
    except OSError:
        return first(), second()
    with pipe:
        try:
            head = first()
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
        except BaseException:
            import signal  # not at import: only a run cut short needs it
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            raise
    if os.waitstatus_to_exitcode(status) == 0:
        with contextlib.suppress(EOFError, ValueError, TypeError):
            return head, marshal.loads(data)
    return head, second()


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
