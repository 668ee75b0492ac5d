"""BLAS's thread count, set through OpenBLAS's own API.

:class:`single_thread` is one process-wide, re-entrant scope under
which every OpenBLAS found in the process runs on one thread.  The
outermost scope saves each library's count on entry and restores it on
every exit; scopes entered inside it, on any thread, change nothing.
The libraries are found through ``ctypes`` among the shared objects
mapped into the process (Linux's ``/proc/self/maps``), under the names
numpy's wheels and plain OpenBLAS builds export.  When none is found
the scope does nothing, and BLAS keeps the count its environment
variables gave it.
"""

import ctypes
import functools
import os
import threading
from contextlib import ContextDecorator

# (prefix, suffix) of the thread-count functions: numpy 2's
# scipy-openblas wheels, older numpy wheels, then plain builds.
_NAMES = (("scipy_", "64_"), ("", "64_"), ("", ""))

_lock = threading.Lock()
_depth = 0
_saved = []


@functools.cache
def controls():
    """``(get, set)`` pairs of the thread counts of every loaded OpenBLAS;
    empty when there is none or its functions cannot be found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in os.path.basename(line.split()[-1]).lower()})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _NAMES:
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return tuple(found)


class single_thread(ContextDecorator):
    """Run the body, or the decorated function, with BLAS on one thread;
    see the module docstring."""

    def __enter__(self):
        global _depth, _saved
        libs = controls()
        with _lock:
            if _depth == 0:
                _saved = [get() for get, _ in libs]
                for _, put in libs:
                    put(1)
            _depth += 1
        return self

    def __exit__(self, *exc):
        global _depth
        libs = controls()
        with _lock:
            _depth -= 1
            if _depth == 0:
                for (_, put), count in zip(libs, _saved):
                    put(count)
        return False
