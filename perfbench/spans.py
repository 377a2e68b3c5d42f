"""In-memory spans around the calls into pelljeru's layers.

A span is (id, parent id, name, start, end, attrs).  `Tracer.install()`
replaces each traced function with a recording wrapper under every name a
caller can look it up by: `discrepancy` reaches `build2d` through the
`pelljeru.exact` namespace, and `metrics.report` calls `_discrepancy`, so
patching only the defining module would miss those calls.  The functions
that answer one point in a few microseconds are not wrapped, since a wrapper
would cost about as much as the call; the workload records one span around
each batch of them, with the batch size as its `calls` attribute.
"""

from __future__ import annotations

import functools
import importlib
import json
import re
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _fmt_name(base):
    """Span name `<base>.<fmt>` for writers; the return value is the byte count."""
    def name_of(args, kwargs):
        return f"{base}.{args[1] if len(args) > 1 else kwargs['fmt']}"
    return name_of


# (span name or name function, module, attribute, class or None, record the result as bytes)
TARGETS = (
    ("exact.discrepancy", "pelljeru.exact", "discrepancy", None, False),
    ("exact.rasterize_exact", "pelljeru.exact", "rasterize_exact", None, False),
    ("grid2d.build2d", "pelljeru.grid2d", "build2d", None, False),
    ("grid2d.difference_count", "pelljeru.grid2d", "difference_count", "Grid2D", False),
    ("grid3d.build3d", "pelljeru.grid3d", "build3d", None, False),
    (_fmt_name("export.write2d"), "pelljeru.export", "write2d", None, True),
    (_fmt_name("export.write3d"), "pelljeru.export", "write3d", None, True),
    ("export.read_pbm_ascii", "pelljeru.export", "read_pbm_ascii", None, False),
    ("export.read_csv", "pelljeru.export", "read_csv", None, False),
    ("metrics.report", "pelljeru.metrics", "report", None, False),
    ("metrics.dim_analytic", "pelljeru.metrics", "dim_analytic", None, False),
    ("cli.main", "pelljeru.cli", "main", None, False),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0, attrs) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, t0, t1, attrs))

    @contextmanager
    def span(self, name: str, **attrs):
        sid, parent = self._open()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, t0, attrs)

    def _wrap(self, fn, name, record_bytes: bool):
        name_of = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            t0 = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                attrs = {"bytes": result} if record_bytes and result is not None else {}
                self._close(sid, parent, name_of(args, kwargs) if name_of else name, t0, attrs)

        return wrapper

    def install(self):
        """Patch every traced function wherever pelljeru binds it; return an undo function."""
        undo = []
        for name, mod_name, attr, cls_name, record_bytes in TARGETS:
            module = importlib.import_module(mod_name)
            if cls_name:
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(original, name, record_bytes))
                undo.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, record_bytes)
            for mod in list(sys.modules.values()):
                mod_name_seen = getattr(mod, "__name__", "")
                if mod_name_seen != "pelljeru" and not mod_name_seen.startswith("pelljeru."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))

        def restore():
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

        return restore

    def summary(self, scale: float = 1.0) -> dict[str, dict]:
        """Per span name: calls, total and self seconds times `scale`, and summed numeric attributes."""
        covered = defaultdict(float)
        for sid, parent, name, t0, t1, attrs in self.spans:
            if parent is not None:
                covered[parent] += t1 - t0
        out: dict[str, dict] = {}
        for sid, parent, name, t0, t1, attrs in self.spans:
            s = out.setdefault(name, {"spans": 0, "total_s": 0.0, "self_s": 0.0})
            s["spans"] += 1
            s["total_s"] += (t1 - t0) * scale
            s["self_s"] += (t1 - t0 - covered[sid]) * scale
            for key, value in attrs.items():
                if isinstance(value, (int, float)):
                    s[key] = s.get(key, 0) + value
        return out

    def dump(self, path, label: str) -> None:
        with open(path, "a", encoding="ascii") as fh:
            for sid, parent, name, t0, t1, attrs in self.spans:
                fh.write(json.dumps({"run": label, "id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, **attrs}) + "\n")


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Milliseconds from `python -X importtime -c "import pelljeru"`.

    `pelljeru` is the package's cumulative import time; each of numpy,
    scipy and mpmath is the self time of all its modules, so numpy modules
    that scipy pulls in count towards numpy.
    """
    self_ms = defaultdict(float)
    out = {}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        own, cumulative, name = int(m.group(1)), int(m.group(2)), m.group(4)
        root = name.split(".")[0]
        self_ms[root] += own / 1000
        if name == "pelljeru":
            out["pelljeru"] = cumulative / 1000
    for root in ("numpy", "scipy", "mpmath"):
        out[root] = self_ms[root]
    return out
