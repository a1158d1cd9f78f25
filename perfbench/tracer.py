"""Traced in-process run of one workload, with a span around every layer call.

Run from the repository root with the package on the path:

    PYTHONPATH=src python3 perfbench/tracer.py --workload verify-4x4 [--spans FILE]

The tracer wraps, from outside the package, the public functions of each
qgenocchi module and the arithmetic methods of its classes, then runs
`cli.main` once on the workload's command line with stdout captured.  Spans
(name, parent, start, end) are kept in memory and reduced at the end to
per-name call counts and self times; `--spans FILE` also writes them out as
tab-separated rows.  Self time is a span's duration minus the time covered by
its child spans.  The last line of stdout is one JSON object with the report
digest, the raw per-span statistics and the derived per-layer metrics.

Names are wrapped wherever they are bound.  `ratfunc` does
`from .poly import gcd`, `qcore` and `engine` import `q_integer` and
`monomial_q` the same way, so patching only the defining module would miss
those calls.  Methods are wrapped on their classes, which covers every caller.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import inspect
import io
import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import redirect_stdout
from fractions import Fraction

from workloads import WORKLOADS

MODULES = ("poly", "ratfunc", "series", "classical", "qcore", "engine", "records", "cli")

# Span name -> (module, class, attributes).  `__rmul__ = __mul__` and
# `__radd__ = __add__` are the same function object, so both names get the
# one wrapper.  `Series.__rmul__` delegates to `self.__mul__` and is left alone.
METHODS = {
    "poly.mul": ("poly", "Poly", ("__mul__", "__rmul__")),
    "poly.divmod": ("poly", "Poly", ("__divmod__",)),
    "ratfunc.add": ("ratfunc", "RatFunc", ("__add__", "__radd__")),
    "ratfunc.mul": ("ratfunc", "RatFunc", ("__mul__", "__rmul__")),
    "ratfunc.canon": ("ratfunc", "RatFunc", ("__init__",)),
    "series.mul": ("series", "Series", ("__mul__",)),
    "series.recip": ("series", "Series", ("recip",)),
    "records.to_dict": ("records", "VerificationRecord", ("to_dict",)),
    "records.sort_key": ("records", "VerificationRecord", ("sort_key",)),
}

# `poly.max_degree` runs inside every `Poly.__init__`; a span there would
# cost more than the work it measures.
SKIP = {"poly.max_degree"}
RENAME = {"cli.shift_law_record": "cli.shift_law"}


class Tracer:
    """In-memory span store plus the exact counters kept at span boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name, fn, after=None):
        """Return fn wrapped in a span; `after(args, result)` updates counters."""
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None and result is not NotImplemented:
                after(args, result)
            return result

        return traced

    def per_name(self) -> dict[str, dict]:
        """calls, total and self seconds for each span name."""
        n = len(self.start)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            stats = out[self.names[self.name_of[i]]]
            stats["calls"] += 1
            stats["total_s"] += dur[i]
            stats["self_s"] += dur[i] - child[i]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                name = self.names[self.name_of[i]]
                handle.write(
                    f"{i}\t{self.parent[i]}\t{name}\t{self.start[i]!r}\t{self.end[i]!r}\n"
                )


def _counters(tracer: Tracer, poly_mod):
    """Counter hooks for the spans that carry exact counts."""
    Poly = poly_mod.Poly
    counts = tracer.counts

    def see_degree(*polys):
        for p in polys:
            if isinstance(p, Poly) and p.degree > counts["poly.max_degree"]:
                counts["poly.max_degree"] = p.degree

    def after_mul(args, result):
        a, b = args
        if isinstance(b, Poly):
            counts["poly.mul.coeff_products"] += len(a.coeffs) * len(b.coeffs)
        elif isinstance(b, (int, Fraction)) and b:
            counts["poly.mul.coeff_products"] += len(a.coeffs)
        see_degree(a, b, result)

    def after_divmod(args, result):
        see_degree(*args, *result)

    def after_gcd(args, result):
        see_degree(*args, result)

    def after_ratfunc_gcd(args, result):
        after_gcd(args, result)
        counts["ratfunc.gcd.calls"] += 1
        counts["ratfunc.gcd.useful"] += result.degree > 0

    # "name@module" hooks apply only where the name is bound in that module.
    return {
        "poly.mul": after_mul,
        "poly.divmod": after_divmod,
        "poly.gcd": after_gcd,
        "poly.gcd@ratfunc": after_ratfunc_gcd,
    }


def instrument(tracer: Tracer, mods: dict) -> None:
    """Wrap every target in place, at each module that binds it."""
    hooks = _counters(tracer, mods["poly"])

    for name, (m, cls_name, attrs) in METHODS.items():
        cls = getattr(mods[m], cls_name)
        wrapped = {}
        for attr in attrs:
            fn = cls.__dict__[attr]
            if fn not in wrapped:
                wrapped[fn] = tracer.wrap(name, fn, hooks.get(name))
            setattr(cls, attr, wrapped[fn])

    targets = {}
    for m, mod in mods.items():
        for attr, obj in vars(mod).items():
            name = RENAME.get(f"{m}.{attr}", f"{m}.{attr}")
            if (
                attr.startswith("_")
                or name in SKIP
                or not inspect.isfunction(getattr(obj, "__wrapped__", obj))
                or obj.__module__ != mod.__name__
            ):
                continue
            targets[id(obj)] = (obj, name)

    wrappers = {}
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] != "qgenocchi":
            continue
        site = key.rpartition(".")[2]
        for attr, obj in list(vars(mod).items()):
            target = targets.get(id(obj))
            if target is None or target[0] is not obj:
                continue
            name = target[1]
            hook = hooks.get(f"{name}@{site}", hooks.get(name))
            if (name, hook) not in wrappers:
                wrappers[name, hook] = tracer.wrap(name, obj, hook)
            setattr(mod, attr, wrappers[name, hook])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cache_hit_ratio(functions) -> float:
    infos = [f.cache_info() for f in functions]
    hits = sum(i.hits for i in infos)
    return _ratio(hits, hits + sum(i.misses for i in infos))


def layer_metrics(spans: dict, counts: dict, caches: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, named for their modules."""

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(prefix):
        return sum(
            s["self_s"]
            for name, s in spans.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    return {
        "poly.mul.calls": calls("poly.mul"),
        "poly.mul.self_s": self_s("poly.mul"),
        "poly.mul.coeff_products": counts.get("poly.mul.coeff_products", 0),
        "poly.divmod.calls": calls("poly.divmod"),
        "poly.divmod.self_s": self_s("poly.divmod"),
        "poly.gcd.calls": calls("poly.gcd"),
        "poly.gcd.self_s": self_s("poly.gcd"),
        "poly.max_degree": counts.get("poly.max_degree", 0),
        "ratfunc.add.calls": calls("ratfunc.add"),
        "ratfunc.add.self_s": self_s("ratfunc.add"),
        "ratfunc.mul.calls": calls("ratfunc.mul"),
        "ratfunc.mul.self_s": self_s("ratfunc.mul"),
        "ratfunc.canon.calls": calls("ratfunc.canon"),
        "ratfunc.canon.self_s": self_s("ratfunc.canon"),
        "ratfunc.gcd_useful_ratio": _ratio(
            counts.get("ratfunc.gcd.useful", 0), counts.get("ratfunc.gcd.calls", 0)
        ),
        "series.recip.self_s": self_s("series.recip"),
        "series.mul.self_s": self_s("series.mul"),
        "classical.self_s": self_s("classical"),
        "classical.cache_hit_ratio": caches["classical"],
        "qcore.q_power_sum.self_s": self_s("qcore.q_power_sum"),
        "qcore.q_binomial.self_s": self_s("qcore.q_binomial"),
        "qcore.q_integer.calls": calls("qcore.q_integer"),
        "engine.coefficient_terms.self_s": self_s("engine.coefficient_terms"),
        "engine.fermionic_sum.self_s": self_s("engine.fermionic_sum"),
        "engine.cache_hit_ratio": caches["engine"],
        "cli.shift_law.self_s": self_s("cli.shift_law"),
        "records.self_s": self_s("records"),
        "cli.build_report.self_s": self_s("cli.build_report"),
        "cli.render_report.self_s": self_s("cli.render_report"),
    }


def traced_run(argv, spans_path: str | None = None) -> dict:
    """Run `cli.main(argv)` once under the tracer and summarize it."""
    mods = {m: importlib.import_module(f"qgenocchi.{m}") for m in MODULES}
    classical_caches = [f for f in vars(mods["classical"]).values() if hasattr(f, "cache_info")]
    engine_caches = [mods["engine"].q_genocchi_number, mods["engine"].q_genocchi_number_shifted]
    tracer = Tracer()
    instrument(tracer, mods)
    out = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out):
        exit_code = mods["cli"].main(list(argv))
    wall_s = time.perf_counter() - t0
    report = out.getvalue().encode("utf-8")
    if spans_path:
        tracer.write_spans(spans_path)
    spans = tracer.per_name()
    caches = {
        "classical": _cache_hit_ratio(classical_caches),
        "engine": _cache_hit_ratio(engine_caches),
    }
    return {
        "exit_code": exit_code,
        "size": len(report),
        "sha256": hashlib.sha256(report).hexdigest(),
        "wall_s": wall_s,
        "spans": spans,
        "counts": dict(tracer.counts),
        "metrics": layer_metrics(spans, tracer.counts, caches),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--spans", default=None, help="write every span to this TSV file")
    args = parser.parse_args()
    result = traced_run(WORKLOADS[args.workload].argv, args.spans)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
