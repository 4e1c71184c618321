"""In-memory spans around calls into the kgcn modules.

The benchmark wraps module and class attributes (for example
`kgcn.trainer.adam_step` or `kgcn.model.KgcnScorer.score`) so that every call
made through them, by the benchmark or by the CLI, records one span. A span is
(name, start, end, parent); the parent is the innermost span open when the
call began, so a layer's self time is its duration minus its children's.
Time spent in the tracer's own count hooks is taken out of every span open
while a hook runs, so layer times do not include it; it still shows in the
tracing overhead. Nothing is written until the run ends.
"""

import contextlib
import functools
import time


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.hook_s = []        # per span: count-hook seconds spent while it was open
        self.counts = {}        # counter name -> list of values, one per call
        self._open = []
        self._patched = []

    def count(self, name, value):
        self.counts.setdefault(name, []).append(value)

    @contextlib.contextmanager
    def span(self, name):
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(None)
        self.hook_s.append(0.0)
        self._open.append(sid)
        self.starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.ends[sid] = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr, name, on_return=None):
        """Replace owner.attr by a version that records a span per call,
        until restore() is called.

        owner is a module or a class; on a class, plain methods stay methods
        and class methods are wrapped bound to their class. on_return(args,
        result) runs after the span closes, to record counts taken from the
        call's inputs and outputs; its time is taken out of the spans still
        open.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                t0 = time.perf_counter()
                on_return(args, result)
                spent = time.perf_counter() - t0
                for sid in self._open:
                    self.hook_s[sid] += spent
            return result

        setattr(owner, attr, staticmethod(timed) if isinstance(raw, (classmethod, staticmethod)) else timed)
        self._patched.append((owner, attr, raw))

    def restore(self):
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # ---- queries over recorded spans -------------------------------------

    def ids(self, name):
        return [i for i, n in enumerate(self.names) if n == name]

    def duration(self, sid):
        return self.ends[sid] - self.starts[sid] - self.hook_s[sid]

    def total(self, name):
        return sum(self.duration(i) for i in self.ids(name))

    def mean(self, name):
        ids = self.ids(name)
        return self.total(name) / len(ids) if ids else 0.0

    def children(self, sid, name=None):
        return [i for i, p in enumerate(self.parents)
                if p == sid and (name is None or self.names[i] == name)]

    def self_time(self, sid):
        return self.duration(sid) - sum(self.duration(c) for c in self.children(sid))

    def as_records(self):
        return [
            {"id": i, "name": n, "parent": p, "start": s, "end": e, "hook_s": h}
            for i, (n, p, s, e, h) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends, self.hook_s))
        ]
