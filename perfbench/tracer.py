"""Outside-in tracer for the symprop package.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces each public
entry point of the layer modules with a timing wrapper wherever the function
is bound: the defining module, every other symprop module that imported the
name (``symprop.cli`` imports most names directly), and, for the memo table,
the ``ProportionTable.ensure/count/prop`` methods on the class.  Private
helpers and generator functions are left alone, so their time counts as
self time of the entry point that called them.

Each call records a span (name, start, end, parent).  Spans stay in memory
and are written out once, by ``dump``, after the pass.  A layer's self time
is the summed duration of its spans minus the time covered by their child
spans.  Counters are taken at the same boundaries, from arguments and
return values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import time
from array import array
from collections import Counter
from typing import Any, Callable

from workloads import thm1_cells

LAYERS = ("cli", "reports", "proportions", "bounds", "divisors", "enclosure",
          "recognition", "sampler")
PACKAGE_MODULES = ("symprop",) + tuple(f"symprop.{name}" for name in LAYERS)
TABLE_METHODS = ("ensure", "count", "prop")
SAMPLER_RUNS = ("estimate_order_divides", "estimate_case_event", "estimate_predicate",
                "search_cost_sim")

_clock = time.perf_counter


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Argument extractors with the signatures of the functions they read.
def _row_of_ensure(_table, m, upto, signed=False):
    return m, signed, upto


def _row_of_count(_table, n, m, signed=False):
    return m, signed, n


def _sweep_cells(n_lo=5, n_hi=300, m_multiplier=3, **_):
    return thm1_cells(n_lo, n_hi, m_multiplier)


def _first_arg(name: str) -> Callable[..., Any]:
    def get(*args, **kwargs):
        return args[0] if args else kwargs[name]

    return get


def _report_rows(_out, reports):
    return len(reports)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._rows: dict[tuple[int, int, bool], int] = {}
        self._tables: dict[int, Any] = {}
        self._original_count: Callable[..., int] | None = None

    # --- spans ---------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn: Callable, post: Callable | None = None,
             pre: Callable | None = None) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``pre(args, kwargs)`` runs before the clock starts and its value is
        handed to ``post(args, kwargs, result, seconds, token)``, which runs
        after the clock stops and only when the call returned.
        """
        name_id = len(self.names)
        self.names.append(f"{layer}:{name}")
        stack = self._stack
        self_s, calls = self.self_s, self.calls
        span_id, span_name, span_parent = self.span_id, self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = pre(args, kwargs) if pre is not None else None
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += dur
                span_id.append(sid)
                span_name.append(name_id)
                span_parent.append(parent)
                span_start.append(t0)
                span_end.append(t1)
            if post is not None:
                post(args, kwargs, result, dur, token)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public entry points wherever they are bound."""
        modules = {name: importlib.import_module(name) for name in PACKAGE_MODULES}
        hooks = self._hooks()
        wrappers: dict[int, Callable] = {}
        for layer in LAYERS:
            mod = modules[f"symprop.{layer}"]
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                post, pre = hooks.get(f"{layer}.{name}", (None, None))
                wrappers[id(obj)] = self.wrap(layer, name, obj, post, pre)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    setattr(mod, name, wrapper)
        table_cls = modules["symprop.proportions"].ProportionTable
        self._original_count = table_cls.count
        for method in TABLE_METHODS:
            extract = _row_of_ensure if method == "ensure" else _row_of_count
            fn = getattr(table_cls, method)
            setattr(table_cls, method, self.wrap(
                "proportions", f"ProportionTable.{method}", fn, self._row_hook(extract)))

    # --- counters ------------------------------------------------------------

    def _add(self, key: str, value: float = 1) -> None:
        self.counts[key] += value

    def _row_hook(self, extract: Callable) -> Callable:
        rows, tables = self._rows, self._tables

        def post(args, kwargs, _result, _dur, _token):
            m, signed, n = extract(*args, **kwargs)
            if n <= 0:
                return
            table = args[0]
            key = (id(table), m, bool(signed))
            if rows.get(key, 0) < n:
                rows[key] = n
                tables[id(table)] = table

        return post

    def _hooks(self) -> dict[str, tuple[Callable | None, Callable | None]]:
        add = self._add

        def count(key: str, amount: Callable | None = None):
            def post(args, kwargs, result, dur, _token):
                add(key, 1 if amount is None else amount(*args, **kwargs))

            return post, None

        def sweep(args, kwargs, _result, dur, _token):
            add("bounds.cells", _sweep_cells(*args, **kwargs))
            add("bounds.sweep_s", dur)

        sieve_limit = _first_arg("limit")

        def sieve(args, kwargs, _result, dur, _token):
            add("divisors.sieve_s", dur)
            add("divisors.sieve_limit", sieve_limit(*args, **kwargs))

        def rss_before(_args, _kwargs):
            return _peak_rss_mb()

        def sampler_run(_args, _kwargs, result, _dur, rss0):
            add("sampler.draws", result.trials)
            add("sampler.rss_growth_mb", max(0.0, _peak_rss_mb() - rss0))

        hooks = {
            "bounds.sweep_prop_bound": (sweep, None),
            "bounds.verify_shat_condition": count("bounds.majorant_m"),
            "divisors.divisor_count_sieve": (sieve, None),
            "divisors.sweep_quadratic_divisor_sums": count(
                "divisors.quad_n", _first_arg("n_max")),
            "recognition.cond_prob": count("recognition.degrees"),
            "reports.dec6": count("reports.dec6_calls"),
            "reports.write_reports_csv": count("reports.rows", _report_rows),
            "reports.write_cond_reports_csv": count("reports.rows", _report_rows),
        }
        for name in SAMPLER_RUNS:
            hooks[f"sampler.{name}"] = (sampler_run, rss_before)
        return hooks

    def end_op(self) -> None:
        """Read back the rows an op touched: entries demanded and their bits.

        Runs after the op, outside every span, through the original public
        ``ProportionTable.count``; each read is a memo hit.
        """
        count = self._original_count
        for (tid, m, signed), n in self._rows.items():
            table = self._tables[tid]
            self._add("proportions.row_entries", n)
            self._add("proportions.row_bits",
                      sum(count(table, k, m, signed).bit_length() for k in range(1, n + 1)))
        self._rows.clear()
        self._tables.clear()

    # --- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the pass (cli.ops and friends come from the worker)."""
        c, s = self.counts, self.self_s

        def rate(num: float, den: float) -> float:
            return num / den if den > 0 else 0.0

        out = {f"{layer}.self_s": s[layer] for layer in LAYERS if layer != "enclosure"}
        out.update({
            "proportions.calls": self.calls["proportions"],
            "proportions.row_entries": c["proportions.row_entries"],
            "proportions.row_bits": c["proportions.row_bits"],
            "proportions.entries_per_s": rate(c["proportions.row_entries"],
                                              s["proportions"]),
            "bounds.cells": c["bounds.cells"],
            "bounds.majorant_m": c["bounds.majorant_m"],
            "bounds.cells_per_s": rate(c["bounds.cells"], c["bounds.sweep_s"]),
            "divisors.sieve_s": c["divisors.sieve_s"],
            "divisors.sieve_limit": c["divisors.sieve_limit"],
            "divisors.quad_n": c["divisors.quad_n"],
            "recognition.degrees": c["recognition.degrees"],
            "sampler.draws": c["sampler.draws"],
            "sampler.draws_per_s": rate(c["sampler.draws"], s["sampler"]),
            "sampler.rss_growth_mb": c["sampler.rss_growth_mb"],
            "reports.rows": c["reports.rows"],
            "reports.dec6_calls": c["reports.dec6_calls"],
            "enclosure.calls": self.calls["enclosure"],
        })
        return out

    def dump(self, path: str) -> int:
        """Write every span as csv, in completion order, times in seconds
        from the first span's start.  Returns the number of spans."""
        base = min(self.span_start) if self.span_start else 0.0
        names = self.names
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for i in range(len(self.span_id)):
                fh.write(f"{self.span_id[i]},{self.span_parent[i]},"
                         f"{names[self.span_name[i]]},"
                         f"{self.span_start[i] - base:.9f},{self.span_end[i] - base:.9f}\n")
        return len(self.span_id)
