"""In-memory spans recorded around calls into the program's layers.

The traced run wraps a fixed list of public callables (``TARGETS``) in
the benchmark process and, through ``serve_traced.py``, in the server.
Each call records one span: id, parent id (the enclosing span on the
same thread), name, start, end, the wire ``request_id`` it belongs to
(0 when the call does not carry one), the rows it processed, and the
thread.  Spans stay in memory and are written out once, at exit.

A target that a later refactor removed is skipped: its span is absent,
which is not an error.  Spans *inside* the program are not recorded here.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
from time import perf_counter


def _rows(x) -> int:
    n = getattr(x, "n", None)  # PackedHV
    if isinstance(n, int):
        return n
    shape = getattr(x, "shape", None)
    if not shape:
        return 0
    return int(shape[0]) if len(shape) > 1 else 1


def _request_id(msg) -> int:
    rid = getattr(msg, "request_id", 0)
    return rid if isinstance(rid, int) else 0


def _arg(i):
    """Positional argument ``i`` of the wrapped call (``self`` is 0)."""
    return lambda args, kwargs, result: args[i] if len(args) > i else None


_NO_ARG = lambda args, kwargs, result: None  # noqa: E731
_RESULT = lambda args, kwargs, result: result  # noqa: E731

#: (span name, module, attribute path, where the request id is, where
#: the row count is) — the layer boundaries the per-layer metrics use
TARGETS = [
    ("hd.encoder.encode", "repro.hd.encoder", "Encoder.encode", _NO_ARG, _arg(1)),
    ("core.inference_privacy.obfuscate", "repro.core.inference_privacy",
     "InferenceObfuscator.obfuscate_encodings", _NO_ARG, _arg(1)),
    ("client.prepare", "repro.core.inference_privacy",
     "InferenceObfuscator.prepare_packed", _NO_ARG, _arg(1)),
    ("backend.packed.pack", "repro.backend.packed", "pack_hypervectors",
     _NO_ARG, _arg(0)),
    ("proto.send", "repro.proto.session", "WireSession.send_parts", _arg(1), _NO_ARG),
    ("proto.decode", "repro.proto.messages", "decode_message", _RESULT, _NO_ARG),
    ("serve.api.submit", "repro.serve.api", "ServingAPI.submit_score", _arg(1), _NO_ARG),
    ("serve.api.submit", "repro.serve.api", "ServingAPI.submit_score_batch",
     _arg(1), _NO_ARG),
    ("serve.api.submit", "repro.serve.fleet", "FleetAPI.submit_score", _arg(1), _NO_ARG),
    ("serve.api.submit", "repro.serve.fleet", "FleetAPI.submit_score_batch",
     _arg(1), _NO_ARG),
    ("serve.engine.score", "repro.serve.engine", "InferenceEngine.scores",
     _NO_ARG, _arg(1)),
    ("serve.fleet.fused", "repro.serve.fleet", "fused_tenant_scores", _NO_ARG, _arg(0)),
    ("serve.fleet.admit", "repro.serve.registry", "ModelRegistry.load",
     _NO_ARG, _NO_ARG),
    ("serve.artifact.load", "repro.serve.artifact", "ModelArtifact.load",
     _NO_ARG, _NO_ARG),
]

#: a submit's returned future resolving: the end of its queue wait +
#: kernel, recorded as an event on the thread that resolved it
COMPLETE_EVENT = "serve.api.complete"


class SpanRecorder:
    """Collects spans and events; :meth:`dump` writes them as JSON."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.events: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, rid_of, rows_of):
        spans, events, ids, stack_of = self.spans, self.events, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                rid = _request_id(rid_of(args, kwargs, result))
                spans.append((sid, parent, name, t0, t1, rid,
                              _rows(rows_of(args, kwargs, result)),
                              threading.get_ident()))
                if name == "serve.api.submit" and hasattr(result, "add_done_callback"):
                    result.add_done_callback(
                        lambda _f, rid=rid: events.append(
                            (COMPLETE_EVENT, perf_counter(), rid,
                             threading.get_ident())))

        traced.__wrapped_by_perfbench__ = True
        return traced

    def span(self, name: str):
        """Context manager for the benchmark's own spans (e.g. a request)."""
        return _OwnSpan(self, name)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "events": self.events}, fh)


class _OwnSpan:
    def __init__(self, recorder: SpanRecorder, name: str):
        self.recorder, self.name = recorder, name

    def __enter__(self):
        stack = self.recorder._stack()
        self.sid = next(self.recorder._ids)
        self.parent = stack[-1] if stack else 0
        stack.append(self.sid)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        self.recorder._stack().pop()
        self.recorder.spans.append((self.sid, self.parent, self.name, self.t0,
                                    t1, 0, 0, threading.get_ident()))


#: imported before wrapping, so that every ``from x import f`` alias of a
#: wrapped module-level function in them is replaced as well
PRELOAD = ("repro.cli", "repro.serve", "repro.client")


def install(recorder: SpanRecorder) -> list[str]:
    """Wrap every target that exists; return the names of absent ones."""
    for name in PRELOAD:
        importlib.import_module(name)
    absent = []
    for span_name, module_name, path, rid_of, rows_of in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            absent.append(f"{module_name}.{path}")
            continue
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or not hasattr(owner, attr):
            absent.append(f"{module_name}.{path}")
            continue
        if isinstance(owner, type):
            _wrap_method(recorder, owner, attr, span_name, rid_of, rows_of)
        else:
            _wrap_function(recorder, module, attr, span_name, rid_of, rows_of)
    return absent


def _wrap_method(recorder, cls, attr, span_name, rid_of, rows_of) -> None:
    """Wrap ``cls.attr`` and every subclass override of it."""
    todo, seen = [cls], set()
    while todo:
        klass = todo.pop()
        if klass in seen:
            continue
        seen.add(klass)
        todo.extend(klass.__subclasses__())
        raw = klass.__dict__.get(attr)
        if raw is None:
            continue
        if isinstance(raw, classmethod):
            fn = raw.__func__
            if not getattr(fn, "__wrapped_by_perfbench__", False):
                setattr(klass, attr, classmethod(
                    recorder.wrap(span_name, fn, rid_of, rows_of)))
        elif callable(raw) and not getattr(raw, "__wrapped_by_perfbench__", False):
            setattr(klass, attr, recorder.wrap(span_name, raw, rid_of, rows_of))


def _wrap_function(recorder, module, attr, span_name, rid_of, rows_of) -> None:
    original = getattr(module, attr)
    traced = recorder.wrap(span_name, original, rid_of, rows_of)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, traced)
