"""Layer timings traced from outside the library.

:meth:`Tracer.install` replaces each traced function by a timing wrapper on every
``qlfun`` module that holds it (that is how one layer calls the next, for
example ``qlfun.verify.H_pq`` or ``qlfun.lfun.euler_number``), and the
traced method on its class.  Each call records a span (name, start, end,
parent) in memory; :meth:`Tracer.restore` puts the originals back, and
:meth:`Tracer.summary` turns the spans into calls, inclusive and self time
per name.  A traced name the library no longer has is reported as absent.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Tuple

#: (module, name) of every traced function; "Class.method" names a method
TRACED: Tuple[Tuple[str, str], ...] = (
    ("numerics", "binom_rat"),
    ("numerics", "binom_padic"),
    ("numerics", "padic_pow"),
    ("numerics", "sum_guarded"),
    ("numerics", "QContext.embed"),
    ("characters", "chi_eval"),
    ("qeuler", "euler_number"),
    ("qeuler", "euler_poly_frac"),
    ("lfun", "H_pq"),
    ("lfun", "K_partial"),
    ("lfun", "T_partial"),
    ("lfun", "l_pq"),
    ("verify", "thm5_lhs_exact"),
    ("verify", "thm5_rhs"),
    ("verify", "thm5_report"),
)

#: names whose calls are also keyed by their arguments, to count repeats
REPEAT_KEYED = ("H_pq", "K_partial", "euler_number")


def metric_name(module: str, name: str) -> str:
    return f"{module}.{name.rsplit('.', 1)[-1]}"


class Tracer:
    """Spans of one traced pass, kept in parallel lists."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.stack: List[int] = []
        self.seen: Dict[str, set] = {name: set() for name in REPEAT_KEYED}
        self.repeats: Dict[str, int] = {name: 0 for name in REPEAT_KEYED}
        self.series_terms = 0
        self.absent: List[str] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, metric: str, fn):
        short = metric.rsplit(".", 1)[-1]
        keyed = short in self.seen
        tracer = self

        def wrapper(*args, **kwargs):
            if keyed:
                tracer.count_repeat(short, (args, tuple(sorted(kwargs.items()))))
            idx = tracer.open(metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if short == "sum_guarded":
                tracer.series_terms += result.last_index + 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / restore ----------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "qlfun" or key.startswith("qlfun."))]
        for module, name in TRACED:
            home = sys.modules.get(f"qlfun.{module}")
            metric = metric_name(module, name)
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(home, cls_name, None)
                original = cls.__dict__.get(attr) if cls is not None else None
                if original is None:
                    self.absent.append(metric)
                    continue
                self._patch(cls, attr, original, self._wrap(metric, original))
                continue
            original = getattr(home, name, None)
            if original is None:
                self.absent.append(metric)
                continue
            wrapper = self._wrap(metric, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis -----------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """calls, inclusive seconds and self seconds per span name.  Self
        time is the span's duration minus that of its direct children."""
        count = len(self.names)
        child_ns = [0] * count
        for idx in range(count):
            parent = self.parents[idx]
            if parent >= 0:
                child_ns[parent] += self.ends[idx] - self.starts[idx]
        out: Dict[str, Dict[str, float]] = {}
        for idx in range(count):
            duration = self.ends[idx] - self.starts[idx]
            row = out.setdefault(self.names[idx], {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += duration / 1e9
            row["self_s"] += (duration - child_ns[idx]) / 1e9
        return out

    def count_repeat(self, short: str, key) -> None:
        seen = self.seen[short]
        try:
            repeated = key in seen
        except TypeError:  # unhashable arguments cannot be compared here
            return
        if repeated:
            self.repeats[short] += 1
        else:
            seen.add(key)

    def repeat_share(self, short: str) -> float:
        """Share of keyed calls whose arguments repeat an earlier call."""
        calls = len(self.seen[short]) + self.repeats[short]
        return self.repeats[short] / calls if calls else 0.0
