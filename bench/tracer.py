"""Per-layer spans and counts, recorded from wrappers around library calls.

The wrappers live here, in the benchmark, and are installed only for the
traced pass; the untraced pass calls the library as it stands.  Spans are
kept in memory as tuples and written out once at the end.

Layers are the package modules.  Calls at a layer boundary get a span
(name, start, end, parent, instance); hot inner calls (PolyVec.lm,
PolyVec.__init__, reduce_step and the Zpr methods) only bump a counter,
because a span per call would cost more than the call.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

RING_METHODS = (
    "reduce", "add", "sub", "mul", "neg", "vp", "ord",
    "is_unit", "unit_part", "inv", "digits", "from_digits",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, str, float, float]] = []
        self.counts: Counter = Counter()
        self.instance = ""
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # generators and reducer lists seen by the current buchberger call
        self._generators = 0
        self._reducers: dict[int, list] = {}

    # -- installing wrappers ---------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, pg, workloads) -> None:
        """Wrap the layer boundaries of the freshly imported package pg."""
        self._too_large = pg.EnumerationTooLarge
        self._patch(workloads, "read_sequence", self._spanned("polyvec.parse", workloads.read_sequence))
        self._patch(workloads, "read_matrix", self._spanned("polyvec.parse", workloads.read_matrix))
        self._patch(pg, "shortest_lrr", self._spanned("lrr.shortest", pg.shortest_lrr))
        for owner in (pg, pg.lrr):
            self._patch(owner, "buchberger", self._spanned("groebner.buchberger", owner.buchberger, self._enter_buchberger, self._exit_buchberger))
            self._patch(owner, "build_p_basis", self._spanned("pbasis.build", owner.build_p_basis, exit=self._exit_build))
        self._patch(pg.groebner, "normal_form", self._spanned("groebner.normal_form", pg.groebner.normal_form, self._enter_normal_form, self._exit_normal_form))
        self._patch(pg, "enumerate_shortest", self._spanned("lrr.enumerate", pg.enumerate_shortest, exit=self._exit_enumerate))
        for name in ("lrr_doc", "render_lrr_doc", "render_p_basis_doc"):
            self._patch(pg.reports, name, self._spanned("reports.render", getattr(pg.reports, name)))

        self._patch(pg.groebner, "reduce_step", self._counted(pg.groebner.reduce_step, "groebner.reduce_steps"))
        self._patch(pg.PolyVec, "lm", self._counted(pg.PolyVec.lm, "polyvec.lm_calls"))
        self._patch(pg.PolyVec, "__init__", self._counted_init(pg.PolyVec.__init__))
        for name in RING_METHODS:
            extra = f"ring.{name}_calls" if name in ("inv", "vp") else None
            self._patch(pg.Zpr, name, self._counted(getattr(pg.Zpr, name), "ring.calls", extra))

    def run(self, ident: str, fn, *args):
        """fn(*args) under a root span for one instance."""
        self.instance = ident
        return self._spanned("instance", fn)(*args)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- wrappers ------------------------------------------------------------------

    def _spanned(self, name: str, fn, enter=None, exit=None):
        stack, spans, ids = self._stack, self.spans, self._ids

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            if enter is not None:
                enter(args)
            stack.append(sid)
            start = time.perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, self.instance, name, start, end))
                if exit is not None:
                    exit(args, result, error)

        return wrapper

    def _counted(self, fn, key: str, extra: str | None = None):
        counts = self.counts

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += 1
            if extra:
                counts[extra] += 1
            return result

        return wrapper

    def _counted_init(self, init):
        counts = self.counts

        def wrapper(vec, *args, **kwargs):
            init(vec, *args, **kwargs)
            counts["polyvec.vecs_built"] += 1
            counts["polyvec.terms_built"] += len(vec.terms)

        return wrapper

    # -- hooks that read results at the boundary ---------------------------------

    def _enter_buchberger(self, args) -> None:
        self._reducers = {}
        self._generators = len(args[0])

    def _exit_buchberger(self, args, result, error) -> None:
        # The live reducer list only grows inside one completion, so its
        # size when completion returns is the largest basis it reached.
        peak = max([self._generators] + [len(F) for F in self._reducers.values()])
        self._reducers = {}
        if error is None:
            self.counts["groebner.completions"] += 1
            self.counts["groebner.peak_basis_sum"] += peak
            self.counts["groebner.final_basis_sum"] += len(result)

    def _enter_normal_form(self, args) -> None:
        F = args[1]
        self._reducers[id(F)] = F

    def _exit_normal_form(self, args, result, error) -> None:
        if error is None:
            self.counts["groebner.normal_forms"] += 1
            if result.is_zero():
                self.counts["groebner.zero_normal_forms"] += 1

    def _exit_build(self, args, result, error) -> None:
        if error is None:
            self.counts["pbasis.vectors"] += result.N

    def _exit_enumerate(self, args, result, error) -> None:
        if error is not None:
            if isinstance(error, self._too_large):
                self.counts["lrr.enum_capped"] += 1
            return
        sol = args[0]
        p = sol.ring.p
        slots = sum(budget + 1 for d, budget in sol.param_basis if not d.is_zero())
        self.counts["lrr.enum_tuples"] += (p - 1) * p**slots
        self.counts["lrr.enum_monic"] += len(result)

    # -- results ---------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        busy: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for sid, parent, _, name, start, end in self.spans:
            busy[name] += end - start
            if parent is not None:
                child[parent] += end - start
        shortest_self = sum(
            ((end - start) - child[sid] for sid, _, _, name, start, end in self.spans if name == "lrr.shortest"),
            0.0,
        )
        c = self.counts
        completions = c["groebner.completions"]
        return {
            "groebner.normal_forms": c["groebner.normal_forms"],
            "groebner.zero_normal_forms": c["groebner.zero_normal_forms"],
            "groebner.useful_ratio": _ratio(c["groebner.normal_forms"] - c["groebner.zero_normal_forms"], c["groebner.normal_forms"]),
            "groebner.reduce_steps": c["groebner.reduce_steps"],
            "groebner.peak_basis": _ratio(c["groebner.peak_basis_sum"], completions),
            "groebner.final_basis": _ratio(c["groebner.final_basis_sum"], completions),
            "groebner.buchberger_s": busy["groebner.buchberger"],
            "groebner.normal_form_s": busy["groebner.normal_form"],
            "polyvec.lm_calls": c["polyvec.lm_calls"],
            "polyvec.vecs_built": c["polyvec.vecs_built"],
            "polyvec.terms_built": c["polyvec.terms_built"],
            "polyvec.parse_s": busy["polyvec.parse"],
            "ring.calls": c["ring.calls"],
            "ring.inv_calls": c["ring.inv_calls"],
            "ring.vp_calls": c["ring.vp_calls"],
            "lrr.enumerate_s": busy["lrr.enumerate"],
            "lrr.enum_tuples": c["lrr.enum_tuples"],
            "lrr.enum_useful_ratio": _ratio(c["lrr.enum_monic"], c["lrr.enum_tuples"]),
            "lrr.enum_capped": c["lrr.enum_capped"],
            "lrr.shortest_self_s": shortest_self,
            "pbasis.build_s": busy["pbasis.build"],
            "pbasis.vectors": c["pbasis.vectors"],
            "reports.render_s": busy["reports.render"],
        }

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sid, parent, inst, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "instance": inst, "name": name, "start": start, "end": end}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
