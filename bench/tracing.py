"""Span tracing around calls into the program's public functions.

``Tracer.install`` replaces each named function with a timing wrapper
wherever an ``ssnt`` module binds it, so calls between modules (for
example ``ssnt.solvers`` calling ``loss_and_grad``) are caught as well
as the benchmark's own calls.  ``numpy.linalg.svd`` is caught only as
reached from ``ssnt.network``, through a proxy of that module's ``np``.
Spans are kept in memory as ``[name, start, end, parent, attrs]`` and
written out once the run ends.  A function a later change removes or
renames is listed in ``missing``; it does not fail the run.
"""

import functools
import importlib
import os
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

import reference


def _mode3_flops(args, kwargs, out):
    t, a = args[0], args[1]
    return {"flops": 2.0 * np.size(t) * np.shape(a)[0]}


def _svd_slices(args, kwargs, out):
    shape = np.shape(args[0])
    return {"slices": int(np.prod(shape[:-2])) if len(shape) > 2 else 1}


def _container_bytes(path, nbytes):
    """Array bytes against the file's size less header and trailer."""
    size = os.path.getsize(path)
    return {"bytes": nbytes, "file_bytes": size,
            "ok": size - reference.HEADER_LEN - reference.TRAILER_LEN == nbytes}


def _read_bytes(args, kwargs, out):
    return _container_bytes(args[0], np.asarray(out).nbytes)


def _write_bytes(args, kwargs, out):
    return _container_bytes(args[0], np.asarray(args[1], dtype=np.float64).nbytes)


def _cli_command(args, kwargs, out):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else ""}


# (module, attribute, span name, attrs(args, kwargs, result) or None)
TARGETS = (
    ("ssnt.tensors", "mode3_product", "tensors.mode3_product", _mode3_flops),
    ("ssnt.tensors", "unfold3", "tensors.unfold3", None),
    ("ssnt.tensors", "diff_p", "tensors.diff_p", None),
    ("ssnt.tensors", "diff_p_adj", "tensors.diff_p_adj", None),
    ("ssnt.network", "forward_f", "network.forward_f", None),
    ("ssnt.network", "forward_g", "network.forward_g", None),
    ("ssnt.network", "reconstruct", "network.reconstruct", None),
    ("ssnt.network", "loss_and_grad", "network.loss_and_grad", None),
    ("ssnt.problems", "fidelity", "problems.fidelity", None),
    ("ssnt.problems", "init_observation", "problems.init_observation", None),
    ("ssnt.problems", "ObservationModel.__init__", "problems.ObservationModel", None),
    ("ssnt.problems", "assemble", "problems.assemble", None),
    ("ssnt.solvers", "solve_ssnt", "solvers.loop", None),
    ("ssnt.solvers", "solve_ssnt_tv", "solvers.loop", None),
    ("ssnt.solvers", "adam_step", "solvers.adam_step", None),
    ("ssnt.solvers", "v_update", "solvers.v_update", None),
    ("ssnt.solvers", "multiplier_update", "solvers.multiplier_update", None),
    ("ssnt.fileio", "read_tensor", "fileio.read_tensor", _read_bytes),
    ("ssnt.fileio", "write_tensor", "fileio.write_tensor", _write_bytes),
    ("ssnt.fileio", "export_diagnostics", "fileio.export_diagnostics", None),
    ("ssnt.metrics", "metric_report", "metrics.metric_report", None),
    ("ssnt.metrics", "acc_egy", "metrics.acc_egy", None),
    ("ssnt.cli", "main", "cli.main", _cli_command),
)
SVD_CALLER = "ssnt.network"
SVD_SPAN = "network.lowrank_svd"


class _Proxy:
    """Attribute access to ``target`` except for the given overrides."""

    def __init__(self, target, **overrides):
        self.__dict__.update(overrides)
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []
        self._patches = []
        self._local = threading.local()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _enter(self, name):
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, None])
        stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _exit(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name, **attrs):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)
            self.spans[idx][4] = attrs or None

    def wrap(self, name, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if attrs is not None:
                tracer.spans[idx][4] = attrs(args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, targets=TARGETS):
        modules = [m for n, m in list(sys.modules.items()) if n == "ssnt" or n.startswith("ssnt.")]
        for module, attr, name, attrs in targets:
            try:
                owner = importlib.import_module(module)
                *path, last = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, last)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self.wrap(name, original, attrs)
            if path:
                self._patch(owner, last, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        caller = sys.modules.get(SVD_CALLER)
        if caller is not None and getattr(caller, "np", None) is np:
            svd = self.wrap(SVD_SPAN, np.linalg.svd, _svd_slices)
            self._patch(caller, "np", _Proxy(np, linalg=_Proxy(np.linalg, svd=svd)))
        else:
            self.missing.append(f"{SVD_CALLER}.np.linalg.svd")

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def self_times(spans):
    """Each span's duration less the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def phase_of(spans):
    """Index of each span's root span (-1 for the roots themselves)."""
    roots = []
    for s in spans:
        parent = s[3]
        roots.append(-1 if parent < 0 else (parent if roots[parent] < 0 else roots[parent]))
    return roots
