"""In-memory spans around calls into spincorr's public functions.

The traced run installs wrappers from outside the program: every module
of the program that binds one of the wrapped functions gets the wrapper
in its place, so calls made through any import path are seen. Spans are
kept in a list and written once, when the run ends. Nothing here is
active in an untraced run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import sys
import time


@dataclasses.dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict | None = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Span store for one process; spans nest by call order."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.algebras = {}

    def open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, parent, name, time.perf_counter()))
        self._stack.append(sid)
        return sid

    def close(self, sid, attrs=None):
        span = self.spans[sid]
        span.end = time.perf_counter()
        span.attrs = attrs
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        sid = self.open(name)
        try:
            yield sid
        finally:
            self.close(sid, attrs)

    def write(self, path):
        path.write_text(json.dumps([dataclasses.asdict(s) for s in self.spans]) + "\n")


def _case_tag(case):
    return "case_" + str(case).lower()


def _traced(tracer, fn, name_of, attrs_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name_of(args, kwargs))
        attrs = None
        try:
            result = fn(*args, **kwargs)
            if attrs_of:
                attrs = attrs_of(args, result)
            return result
        finally:
            tracer.close(sid, attrs)

    return wrapper


def _first(pname):
    """Reads the first parameter of a call, named `pname`, positional or keyword."""
    return lambda args, kwargs: args[0] if args else kwargs[pname]


class Instrumentation:
    """Installs the wrappers for one traced iteration and removes them after."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._undo = []

    def _rebind(self, fn, wrapper):
        # every spincorr module that holds `fn` as a global calls the wrapper
        for mname, mod in list(sys.modules.items()):
            if mname == "spincorr" or mname.startswith("spincorr."):
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._undo.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def wrap(self, fn, name, attrs_of=None):
        self._rebind(fn, _traced(self.tracer, fn, lambda a, k: name, attrs_of))

    def wrap_by_case(self, fn, base, case_of):
        self._rebind(fn, _traced(self.tracer, fn, lambda a, k: f"{base}.{_case_tag(case_of(a, k))}"))

    def install(self):
        import numpy as np

        from spincorr import checks, classical, cli, lorentz, qfw
        from spincorr.opalg import core, identities

        tr = self.tracer
        self.wrap(classical.integrate, "classical.integrate", lambda a, r: {"steps": len(r) - 1})
        self.wrap(classical.eom_rhs, "classical.eom_rhs")
        self.wrap(classical.bmt_consistency_residual, "classical.bmt_consistency_residual")
        self.wrap(classical.covariance_scaling, "classical.covariance_scaling")
        self.wrap(lorentz.bmt_rhs, "lorentz.bmt_rhs")
        for cname in checks.CHECK_INFO:
            self.wrap(getattr(checks, f"check_{cname}"), f"checks.{cname}")
        self.wrap(cli.main, "cli.main")

        for fname in ("build_hamiltonian", "build_correspondence"):
            self.wrap_by_case(getattr(qfw, fname), f"qfw.{fname}", _first("case"))
        self.wrap_by_case(qfw.eriksen_fw, "qfw.eriksen_fw", lambda a, k: _first("H")(a, k).case)
        self.wrap(qfw.parity_check, "qfw.parity_check")
        self.wrap(qfw.darwin_vs_classical_hd, "qfw.darwin_vs_classical_hd")

        for fname in ("series_sqrt_expand", "claimed_expansion"):
            self.wrap_by_case(getattr(identities, fname), f"opalg.{fname}", _first("case"))
        self.wrap(identities.matchup_report, "opalg.matchup_report")

        case_algebra = identities.case_algebra

        def capture_algebra(case):
            alg = case_algebra(case)
            tr.algebras[_case_tag(case)] = alg
            return alg

        self._rebind(case_algebra, capture_algebra)

        multiply = core.Algebra.multiply
        self._undo.append((core.Algebra, "multiply", multiply))
        core.Algebra.multiply = _traced(tr, multiply, lambda a, k: "opalg.multiply")

        for fname in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, fname)
            self._undo.append((np.linalg, fname, fn))
            setattr(
                np.linalg,
                fname,
                _traced(tr, fn, lambda a, k, f=fname: f"numpy.linalg.{f}", lambda a, r: {"n": int(a[0].shape[-1])}),
            )
        return self

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def self_times(spans):
    """Span duration minus the time its child spans cover, by span id."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def totals(spans, name):
    """(calls, seconds, attrs list) over the spans called `name`."""
    hits = [s for s in spans if s.name == name]
    return len(hits), sum(s.duration for s in hits), [s.attrs or {} for s in hits]
