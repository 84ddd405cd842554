"""Span tracing of sftkit's layers, installed from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
sftkit module that binds it (``from .core import build_rauzy`` makes one
binding per importing module), so nested library calls are seen too.  Each
call records a span (name, start, end, parent span, pass id) in memory; counts
are read from the returned objects.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import os
import sys
import time

MODULES = ("core", "classify", "cycles", "compiler", "solve", "entropy", "cli")


def _rauzy_counts(args, kwargs, result):
    return {"core.rauzy_vertices": len(result.vertices), "core.rauzy_edges": len(result.edges)}


def _strip_counts(args, kwargs, result):
    return {
        "solve.strip_states": len(result.states),
        "solve.strip_transitions": sum(len(s) for s in result.successors),
    }


def _compile_counts(args, kwargs, result):
    return {"compiler.dfa_states": len(result[0].states)}


def _words_counts(args, kwargs, result):
    return {"compiler.words.count": len(result)}


def _perron_1d(args, kwargs, result):
    return {"entropy.perron_iterations": result.iterations}


def _perron_strip(args, kwargs, result):
    return {"entropy.perron_iterations": result[2]}


def _cli_counts(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    if argv and "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return {"cli.output_bytes": os.path.getsize(path)}
    return {}


# (span name, module, attribute or (class, method), counts reader)
TRACED = (
    ("core.build_rauzy", "core", "build_rauzy", _rauzy_counts),
    ("classify.check_condition_d", "classify", "check_condition_d", None),
    ("cycles.find_cycle_pair", "cycles", "find_cycle_pair", None),
    ("compiler.build_grammar", "compiler", "build_grammar", None),
    ("compiler.compile_wang", "compiler", "compile_wang", _compile_counts),
    ("compiler.words", "compiler", ("VerticalPresentation", "words"), _words_counts),
    ("compiler.encode_pattern", "compiler", "encode_pattern", None),
    ("compiler.decode_pattern", "compiler", "decode_pattern", None),
    ("solve.strip_build", "solve", ("StripAutomaton", "build"), _strip_counts),
    ("solve.count_width", "solve", ("StripAutomaton", "count_width"), None),
    ("solve.count_rectangles", "solve", "count_rectangles", None),
    ("solve.decide_with_certificate", "solve", "decide_with_certificate", None),
    ("entropy.entropy_1d", "entropy", "entropy_1d", _perron_1d),
    ("entropy.entropy_bounds_2d", "entropy", "entropy_bounds_2d", None),
    ("entropy.strip_spectral_radius", "solve", ("StripAutomaton", "spectral_radius"), _perron_strip),
    ("entropy.build_realization", "entropy", "build_realization", None),
    ("entropy.count_realization", "entropy", "count_realization", None),
    ("entropy.realization_sandwich", "entropy", "realization_sandwich", None),
    ("entropy.ntilde_count", "entropy", "ntilde_count", None),
    ("entropy.statesplit_entropy", "entropy", "statesplit_entropy", None),
    ("entropy.root_entropy_check", "entropy", "root_entropy_check", None),
    ("cli.main", "cli", "main", _cli_counts),
)

COUNT_NAMES = (
    "core.rauzy_vertices",
    "core.rauzy_edges",
    "compiler.dfa_states",
    "compiler.words.count",
    "solve.strip_states",
    "solve.strip_transitions",
    "entropy.perron_iterations",
    "cli.output_bytes",
)


class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent, pass id)."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.spans = []
        self.counts = {}  # top-level span index -> {count name: value}
        self._stack = []
        self._restore = []

    def span(self, name):
        return _Span(self, name)

    def _wrap(self, name, fn, counts):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as sp:
                result = fn(*args, **kwargs)
                if counts is not None:
                    sp.add_counts(counts(args, kwargs, result))
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        mods = {m: sys.modules[f"sftkit.{m}"] for m in MODULES}
        for name, home, attr, counts in TRACED:
            if isinstance(attr, tuple):
                cls = getattr(mods[home], attr[0])
                raw = cls.__dict__[attr[1]]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, counts))
                else:
                    new = self._wrap(name, raw, counts)
                self._restore.append((cls, attr[1], raw))
                setattr(cls, attr[1], new)
                continue
            fn = getattr(mods[home], attr)
            wrapped = self._wrap(name, fn, counts)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore = []

    def self_times(self):
        """{span name: (calls, self seconds)}; self = duration - children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, busy = out.get(name, (0, 0.0))
            out[name] = (calls + 1, busy + (end - start) - child[i])
        return out


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else None
        self.index = len(t.spans)
        t._stack.append(self.index)
        t.spans.append((self.name, time.perf_counter(), None, parent, t.pass_id))
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        name, start, _, parent, pid = t.spans[self.index]
        t.spans[self.index] = (name, start, end, parent, pid)
        return False

    def add_counts(self, counts):
        """Attribute counts to the enclosing top-level span."""
        t = self.tracer
        top = t._stack[0] if t._stack else self.index
        bucket = t.counts.setdefault(top, {})
        for key, value in counts.items():
            bucket[key] = bucket.get(key, 0) + value
