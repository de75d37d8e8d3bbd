"""Spans and exact counts around calls into ordstat, recorded from outside.

The tracer replaces public ordstat functions with timing wrappers in every
ordstat module that binds them (``stochorder`` calls the
``second_order_sf_*`` names it imported, so that binding is the one that
must be patched).  Nothing in ``src/`` changes, and ``restore`` puts the
original functions back.

A span is (name, start, end, parent span, op id).  Spans stay in memory and
are written out when the run ends.  A layer's self time is its span's
duration minus the time of its child spans.  ``copula.joint_eval`` runs
2^n times per oracle call, so its calls are folded into the parent span
as a count and a duration instead of one span each.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

FOLDED = "copula.joint_eval"


def _sf_points(args, kwargs):
    x = kwargs.get("x", args[-1])
    return {"orderstats.sf.points": int(np.size(x))}


def _oracle_subsets(args, kwargs):
    return {"orderstats.oracle.subsets": 1 << args[0].n}


def _mc_draws(args, kwargs):
    marginals, replications = args[0], args[1]
    return {"mcsim.draws": int(replications) * len(marginals)}


# span name -> (module, function names, extra counter or None)
LAYERS = {
    "cli": ("cli", ("main",), None),
    "svgplot.render": ("svgplot", ("render_csv_plot",), None),
    "scenarios.parse": ("scenarios", ("parse_scenario",), None),
    "stochorder.validate": ("stochorder", ("validate_theorem",), None),
    "stochorder.check": ("stochorder", ("check_st", "check_hr", "check_rh"), None),
    "orderstats.sf": ("orderstats", ("second_order_sf_dependent",
                                     "second_order_sf_independent",
                                     "second_order_sf_random_n",
                                     "multiple_outlier_sf_in_x",
                                     "multiple_outlier_second_order_sf"), _sf_points),
    "orderstats.hazard": ("orderstats", ("second_order_hazard_dependent",
                                         "second_order_hazard_independent",
                                         "multiple_outlier_hazard_in_x",
                                         "multiple_outlier_second_order_hazard"), None),
    "orderstats.oracle": ("orderstats", ("exceedance_count_distribution",), _oracle_subsets),
    "marginals": ("marginals", ("mphr_sf", "mphr_hazard", "mphr_cdf", "mphr_quantile"), None),
    FOLDED: ("copula", ("survival_copula_eval",), None),
    "mcsim.sample": ("mcsim", ("sample_lifetime_matrix",), _mc_draws),
    "mcsim.empirical": ("mcsim", ("empirical_second_order_sf",), None),
}


class Tracer:
    """Collects spans and per-op counters while ``op`` is set.

    Outside an op (``op is None``: warm-up, output checks) the wrappers call
    straight through and record nothing.
    """

    def __init__(self):
        self.op: int | None = None
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # span rows: [name id, start ns, end ns, parent row or -1, op, folded ns, folded calls]
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.op_counts: list[Counter] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def begin_op(self, op: int) -> None:
        self.op = op
        while len(self.op_counts) <= op:
            self.op_counts.append(Counter())

    def end_op(self) -> None:
        self.op = None

    def count(self, name: str, amount: int = 1) -> None:
        if self.op is not None:
            self.op_counts[self.op][name] += amount

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, extra=None):
        nid = self._name_id(name)
        clock = time.perf_counter_ns

        if name == FOLDED:
            @functools.wraps(fn)
            def folded(*args, **kwargs):
                if self.op is None:
                    return fn(*args, **kwargs)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    self.op_counts[self.op][name + ".calls"] += 1
                    self.op_counts[self.op][name + ".ns"] += dt
                    if self._stack:
                        row = self.spans[self._stack[-1]]
                        row[5] += dt
                        row[6] += 1
            return folded

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            counts = self.op_counts[self.op]
            # a call nested in a span of the same layer (second_order_sf_random_n
            # calling second_order_sf_dependent) is not a new curve evaluation
            if not any(self.spans[i][0] == nid for i in self._stack):
                counts[name + ".calls"] += 1
                if extra is not None:
                    counts.update(extra(args, kwargs))
            row = [nid, 0, 0, self._stack[-1] if self._stack else -1, self.op, 0, 0]
            self.spans.append(row)
            self._stack.append(len(self.spans) - 1)
            row[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                self._stack.pop()
        return traced

    def wrap_attribute(self, obj, attr: str, name: str) -> None:
        """Trace one attribute of an object the benchmark owns."""
        setattr(obj, attr, self.wrap(getattr(obj, attr), name))

    # -- patching --------------------------------------------------------
    def install(self, ordstat) -> None:
        """Patch every ordstat module binding of each traced function."""
        modules = [m for key, m in sys.modules.items()
                   if key == "ordstat" or key.startswith("ordstat.")]
        for name, (home, funcs, extra) in LAYERS.items():
            home_mod = getattr(ordstat, home)
            for fname in funcs:
                original = getattr(home_mod, fname)
                wrapper = self.wrap(original, name, extra)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------
    def self_ms_by_name(self) -> dict[str, float]:
        """Total self time per layer, in ms, over all recorded spans."""
        child = [0] * len(self.spans)
        for row in self.spans:
            if row[3] >= 0:
                child[row[3]] += row[2] - row[1]
        totals: dict[str, float] = {}
        for i, row in enumerate(self.spans):
            self_ns = row[2] - row[1] - child[i] - row[5]
            key = self.names[row[0]]
            totals[key] = totals.get(key, 0.0) + self_ns / 1e6
        folded_ns = sum(c[FOLDED + ".ns"] for c in self.op_counts)
        totals[FOLDED] = folded_ns / 1e6
        return totals

    def counts_over(self, ops: range) -> Counter:
        total: Counter = Counter()
        for op in ops:
            total.update(self.op_counts[op])
        return total

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"header": header, "names": self.names,
               "span_fields": ["name", "start_ns", "end_ns", "parent", "op",
                               "folded_ns", "folded_calls"],
               "spans": self.spans}
        path.write_text(json.dumps(doc, separators=(",", ":")))
