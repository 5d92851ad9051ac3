"""In-memory spans and counts for the traced pass.

A span is (name, start, end, parent, operation id); the name is
`<layer>.<stage>`, where the layer is the formalbrauer module the stage
belongs to. Spans come from wrapping the program's own functions in place,
where the program looks them up, for the length of one traced call; the
program's stage order is therefore the one measured. Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or None, op]
        self.counts = []     # (name, value, op)
        self._stack = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [name, perf_counter(), None, parent, self.op]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int):
        self.counts.append((name, value, self.op))

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(out).items():
                    self.count(key, value)
            return out
        return traced

    @contextmanager
    def installed(self, stages):
        """Wrap the stages in place while the block runs. `stages` holds
        (span name, counter or None, [(holder, attribute), ...]): each holder
        (a module or a class) has its attribute replaced by a wrapper that
        opens the span, then records counter(result). A place the program no
        longer has is reported on stderr and left out."""
        saved = []
        try:
            for name, counter, places in stages:
                for holder, attr in places:
                    fn = getattr(holder, attr, None)
                    if fn is None:
                        sys.stderr.write(f"trace: {holder.__name__}.{attr} "
                                         f"not found; {name} not traced "
                                         "there\n")
                        continue
                    saved.append((holder, attr, fn))
                    setattr(holder, attr, self._wrap(fn, name, counter))
            yield
        finally:
            for holder, attr, fn in reversed(saved):
                setattr(holder, attr, fn)

    def totals(self, first_span: int = 0, first_count: int = 0) -> dict:
        """Per span name: total duration and total self time (duration minus
        the part covered by child spans); per `parent>name` pair: the total
        duration of the spans so nested; per count name: the sum. Only
        records from the given indices on are included."""
        spans = self.spans
        child = defaultdict(float)
        for name, start, end, parent, _ in spans[first_span:]:
            if parent is not None:
                child[parent] += end - start
        duration = defaultdict(float)
        self_time = defaultdict(float)
        under = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans[first_span:],
                                                          start=first_span):
            duration[name] += end - start
            self_time[name] += end - start - child[i]
            if parent is not None:
                under[f"{spans[parent][0]}>{name}"] += end - start
        counts = defaultdict(int)
        for name, value, _ in self.counts[first_count:]:
            counts[name] += value
        return {"duration": dict(duration), "self": dict(self_time),
                "under": dict(under), "counts": dict(counts)}

    def dump(self, path):
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "spans": [{"name": n, "start": s - t0, "end": e - t0,
                       "parent": parent, "op": op}
                      for n, s, e, parent, op in self.spans],
            "counts": [{"name": n, "value": v, "op": op}
                       for n, v, op in self.counts],
        }
        path.write_text(json.dumps(doc))
