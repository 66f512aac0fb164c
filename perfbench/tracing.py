"""Span recording around the program's public layer functions.

Each target is a function (or a class attribute) of an ``aschur`` module.
``Tracer.install`` replaces every module attribute that refers to it, in
every loaded ``aschur`` module, so internal callers that imported the name
are covered too.  A target missing from a later version of the program is
skipped and simply reports zero calls.

Spans are kept in memory as ``[name, start, end, parent]`` and written out
once, at the end of the traced run.  Self time is a span's duration minus
the durations of its direct children; the process is single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, span name); a dotted attribute names a class member.
TARGETS = [
    ("aschur.poisson", "assemble", "poisson.assemble"),
    ("aschur.decomp", "partition", "decomp.partition"),
    ("aschur.decomp", "build_interface_map", "decomp.interface_map"),
    ("aschur.decomp", "extract_local", "decomp.extract"),
    ("aschur.splitting", "interface_diagonal", "splitting.diagonal"),
    ("aschur.splitting", "build_splitting", "splitting.build"),
    ("aschur.splitting", "certify_async", "splitting.certify"),
    ("aschur.linalg", "lu_factorize", "linalg.lu_factorize"),
    ("aschur.linalg", "lu_solve", "linalg.lu_solve"),
    ("aschur.linalg", "spmv", "linalg.spmv"),
    ("aschur.solvers", "compute_d", "solvers.schur_rhs"),
    ("aschur.solvers", "schur_apply", "solvers.local_apply"),
    ("aschur.solvers", "apply_interface_operator", "solvers.operator_apply"),
    ("aschur.solvers", "global_residual", "solvers.residual"),
    ("aschur.solvers", "cg_schur", "solvers.cg"),
    ("aschur.solvers", "sync_relaxation", "solvers.sync"),
    ("aschur.runtime", "async_solve", "runtime.async"),
    ("aschur.runtime", "cg_with_restart", "runtime.cg_restart"),
    ("aschur.runtime", "AsyncSimulator.inject_fault", "runtime.fault_inject"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid][1] = start
                spans[sid][2] = end

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "aschur" or key.startswith("aschur.")]
        for mod_name, attr, span in TARGETS:
            home = sys.modules.get(mod_name)
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, member, None) if owner is not None else None
            if original is None:
                continue
            wrapped = self._wrap(span, original)
            holders = [owner] if owner_name else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, key, value))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._undo):
            setattr(holder, key, value)
        self._undo.clear()

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        ``solvers.residual`` calls made inside an asynchronous solve are
        the runtime's exact-residual confirmations and are reported as
        ``runtime.confirm`` instead.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for sid, (name, start, end, parent) in enumerate(self.spans):
            if name == "solvers.residual" and self._under(sid, "runtime.async"):
                name = "runtime.confirm"
            row = out[name]
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child[sid]
        return out

    def _under(self, sid: int, name: str) -> bool:
        parent = self.spans[sid][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent\n")
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent}\n")
