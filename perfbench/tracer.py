"""Spans around the module boundaries of normgroups, patched from outside.

The tracer wraps the functions and methods that cross a module boundary
on the decision path, by replacing the attribute the caller looks up at
call time (a module global such as ``normalizing.certificate_from_matrix``
or a class method such as ``Bitmap.test_batch``).  Nothing under ``src/``
changes.  Every call becomes a span: name, start, end, parent span and
the workload item that was current.  Spans stay in memory until
``write`` dumps them.

A boundary that no longer exists (renamed or removed by a refactor) is
listed in ``absent`` and simply records no spans.

``transform`` is not wrapped: a wrapper on ``Transformation.__init__``
would cost more than the call itself, so transform time shows up as the
self time of its callers.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Any, Callable

MODULES = ("catalog", "groups", "bitset", "semigroups", "normalizing", "cli")

_clock = time.perf_counter
_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index, item id); a None slot is still open
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.item: Any = None
        self.counts: Counter = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.absent: list[str] = []
        # (owner, attribute, what to restore; _MISSING when it was inherited)
        self._undo: list[tuple[Any, str, Any]] = []
        self._open: dict[int, tuple] = {}
        self._closures: dict[int, int] = {}

    # -- spans ------------------------------------------------------------------

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._open[sid] = (name, _clock(), self.stack[-1] if self.stack else -1, self.item)
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        name, start, parent, item = self._open.pop(sid)
        self.stack.pop()
        self.spans[sid] = (name, start, _clock(), parent, item)

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """fn inside a span; observe(args, result, error) runs after the call."""
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.begin(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                tracer.end(sid)
                if observe is not None:
                    observe(args, result, error)

        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str, observe: Callable | None = None) -> None:
        where = f"{getattr(owner, '__name__', owner)}.{attr}"
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.append(where)
            return
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, self.wrap(name, original, observe))

    def patch_iterator(self, cls: Any, attr: str, name: str, on_close: Callable) -> None:
        """Time each step of a generator method; on_close(obj, steps) at its end."""
        original = getattr(cls, attr, None)
        if original is None:
            self.absent.append(f"{cls.__name__}.{attr}")
            return
        tracer = self

        def traced_iter(obj):
            it = original(obj)
            steps = 0
            try:
                while True:
                    sid = tracer.begin(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(sid)
                    steps += 1
                    yield item
            finally:
                on_close(obj, steps)

        self._undo.append((cls, attr, vars(cls).get(attr, _MISSING)))
        setattr(cls, attr, traced_iter)

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- boundaries of normgroups ----------------------------------------------

    def install(self, ng: Any) -> None:
        """Patch every boundary of the normgroups package `ng`."""
        cat, groups, bitset = ng.catalog_module, ng.groups, ng.bitset
        semi, norm, cli = ng.semigroups, ng.normalizing, ng.cli

        self.patch(cat, "catalog", "catalog.catalog")
        for mod in (norm, cli):
            self.patch(mod, "catalog", "catalog.catalog")
        PG = getattr(groups, "PermutationGroup", None)
        if PG is None:
            self.absent.append("groups.PermutationGroup")
        else:
            for attr in ("elements", "element_matrix", "inverse_matrix"):
                self.patch(PG, attr, "groups.setup")
            self.patch(PG, "__contains__", "groups.contains")

        BM = getattr(bitset, "Bitmap", None)
        if BM is None:
            self.absent.append("bitset.Bitmap")
        else:
            for attr in ("next_unset", "test_batch", "set_batch"):
                self.patch(BM, attr, "bitset")

        self.patch(norm, "certificate_from_matrix", "semigroups.certificate", self._on_certificate)
        cert_cls = getattr(semi, "RClassCertificate", None)
        if cert_cls is None:
            self.absent.append("semigroups.RClassCertificate")
        else:
            self.patch(cert_cls, "contains_products", "semigroups.rclass", self._on_rclass_batch)
        self.patch(norm, "in_r_class", "semigroups.rclass", self._on_rclass_one)
        self.patch(norm, "TransSemigroup", "semigroups.closure", self._on_closure_new)
        sg_cls = getattr(semi, "TransSemigroup", None)
        if sg_cls is None:
            self.absent.append("semigroups.TransSemigroup")
        else:
            self.patch(sg_cls, "contains", "semigroups.closure", self._on_closure_contains)

        checker = getattr(norm, "_MapChecker", None)
        if checker is None:
            self.absent.append("normalizing._MapChecker")
        else:
            self.patch(checker, "check", "normalizing.check", self._on_check)
            self.patch(checker, "check_pair", "normalizing.check", self._on_check)
        for attr in ("is_a_normalizing", "check_pair", "is_k_normalizing", "is_normalizing"):
            self.patch(norm, attr, "normalizing.api")
        self.patch(norm, "is_class_normalizing", "normalizing.class_sweep")
        self.patch(norm, "m12_witness_check", "normalizing.api")
        self.patch(cli, "classify", "normalizing.api")
        sweep_cls = getattr(norm, "ConjugacySweep", None)
        if sweep_cls is None:
            self.absent.append("normalizing.ConjugacySweep")
        else:
            self.patch_iterator(sweep_cls, "__iter__", "normalizing.sweep.enum", self._on_sweep_close)
        self.patch(cli, "main", "cli.main")

    # -- observers --------------------------------------------------------------

    def _on_certificate(self, args, cert, error) -> None:
        if error is not None:
            self.counts["certificate.errors"] += 1
            return
        self.samples["certificate.conjugates"].append(len(args[0]))
        orbit = len(cert.strong_orbit)
        self.samples["certificate.strong_orbit"].append(orbit)
        self.samples["certificate.induced_order"].append(cert.size // orbit)

    def _on_rclass_batch(self, args, result, error) -> None:
        if error is None:
            self.counts["rclass.tested"] += len(result)
            self.counts["rclass.passed"] += int(result.sum())

    def _on_rclass_one(self, args, result, error) -> None:
        if error is None:
            self.counts["rclass.tested"] += 1
            self.counts["rclass.passed"] += bool(result)

    def _on_closure_new(self, args, sgp, error) -> None:
        if error is None:
            idx = len(self._closures)
            sgp._perfbench_id = idx
            self._closures[idx] = len(sgp)

    def _on_closure_contains(self, args, result, error) -> None:
        sgp = args[0]
        idx = getattr(sgp, "_perfbench_id", None)
        if idx is not None:
            self._closures[idx] = len(sgp)
        self.counts["closure.contains"] += 1
        if error is None:
            self.counts["closure.member"] += bool(result)
        elif type(error).__name__ == "ClosureCapExceeded":
            self.counts["closure.capped"] += 1

    def _on_check(self, args, verdict, error) -> None:
        if error is None and verdict.trace:
            self.counts["stage." + verdict.trace[-1]] += 1

    def _on_sweep_close(self, sweep, steps: int) -> None:
        self.counts["sweep.orbits"] += int(getattr(sweep, "orbits", 0))
        self.counts["sweep.reps"] += steps

    # -- results ----------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time (duration minus child spans) and span count per span name."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        self_s: defaultdict[str, float] = defaultdict(float)
        count: Counter = Counter()
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            self_s[span[0]] += (span[2] - span[1]) - child[i]
            count[span[0]] += 1
        return dict(self_s), dict(count)

    def metrics(self) -> dict[str, float]:
        self_s, count = self.self_times()
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def mean(xs: list) -> float:
            return sum(xs) / len(xs) if xs else 0.0

        checks = count.get("normalizing.check", 0)
        closures = list(self._closures.values())
        out = {
            "groups.setup_s": self_s.get("catalog.catalog", 0.0) + self_s.get("groups.setup", 0.0),
            "groups.contains.calls": count.get("groups.contains", 0),
            "groups.contains_s": self_s.get("groups.contains", 0.0),
            "normalizing.sweep.enum_s": self_s.get("normalizing.sweep.enum", 0.0),
            "normalizing.sweep.orbits": c["sweep.orbits"],
            "normalizing.sweep.reps_checked": c["sweep.reps"],
            "normalizing.check.calls": checks,
            "normalizing.check.self_s": self_s.get("normalizing.check", 0.0),
            "normalizing.class_sweep_s": self_s.get("normalizing.class_sweep", 0.0),
            "normalizing.shortcut.ratio": ratio(c["stage.shortcut"], checks),
            "normalizing.rclass.ratio": ratio(c["stage.r-class"], checks),
            "normalizing.closure.ratio": ratio(c["stage.closure"], checks),
            "semigroups.certificate.calls": count.get("semigroups.certificate", 0),
            "semigroups.certificate_s": self_s.get("semigroups.certificate", 0.0),
            "semigroups.certificate.conjugates_mean": mean(self.samples["certificate.conjugates"]),
            "semigroups.certificate.strong_orbit_mean": mean(self.samples["certificate.strong_orbit"]),
            "semigroups.certificate.induced_order_max": max(self.samples["certificate.induced_order"], default=0),
            "semigroups.certificate.errors": c["certificate.errors"],
            "semigroups.rclass.pass_ratio": ratio(c["rclass.passed"], c["rclass.tested"]),
            "semigroups.closure.calls": len(closures),
            "semigroups.closure_s": self_s.get("semigroups.closure", 0.0),
            "semigroups.closure.size_mean": mean(closures),
            "semigroups.closure.member_ratio": ratio(c["closure.member"], c["closure.contains"]),
            "semigroups.closure.capped": c["closure.capped"],
            "bitset.calls": count.get("bitset", 0),
            "bitset_s": self_s.get("bitset", 0.0),
            "cli.self_s": self_s.get("cli.main", 0.0),
        }
        layer_s: defaultdict[str, float] = defaultdict(float)
        layer_n: Counter = Counter()
        for name, secs in self_s.items():
            layer_s[name.split(".")[0]] += secs
            layer_n[name.split(".")[0]] += count[name]
        for module in MODULES:
            out[f"layer.{module}.self_s"] = layer_s.get(module, 0.0)
            out[f"layer.{module}.calls"] = layer_n.get(module, 0)
        out["trace.spans"] = len(self.spans)
        out["trace.absent"] = len(self.absent)
        return out

    def write(self, path: str) -> None:
        """One JSON object per line: name, start, end, parent, item."""
        t0 = min((s[1] for s in self.spans if s is not None), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is None:
                    continue
                name, start, end, parent, item = span
                fh.write(json.dumps({
                    "name": name, "start": round(start - t0, 7), "end": round(end - t0, 7),
                    "parent": parent, "item": item,
                }) + "\n")
