"""Per-layer tracing of pbent from outside the package.

`Tracer.install` wraps public functions and methods of the layers gf,
funcrep, walsh, cyclo, derivanalysis, constructions and cli.  A wrapped
function is replaced in every `pbent` module namespace that holds it, and a
wrapped method on its class, so calls between modules are seen too.  Each
call records a span (id, parent, name, start, end); a span's self time is
its duration minus the durations of its direct children, so the self times
of all spans under one command add up to that command's wall time.
`CycInt.norm_sq` runs millions of times per command and is only counted.
"""

from __future__ import annotations

import sys
import time

# (span name, module, attribute path)
SPANS = (
    ("gf.tables", "pbent.gf", "FieldCtx._build_tables"),
    ("funcrep.truth_table", "pbent.funcrep", "TraceForm.truth_table"),
    ("funcrep.anf", "pbent.funcrep", "truth_to_anf"),
    ("funcrep.derivative", "pbent.funcrep", "PFunction.derivative"),
    ("walsh.transform", "pbent.walsh", "walsh_fast"),
    ("walsh.spectrum_build", "pbent.walsh", "WalshSpectrum.__init__"),
    ("walsh.is_bent", "pbent.walsh", "is_bent"),
    ("walsh.certificate", "pbent.walsh", "extract_certificate"),
    ("walsh.classify", "pbent.walsh", "classify"),
    ("derivanalysis.cubic_like", "pbent.derivanalysis", "cubic_like_certificate"),
    ("derivanalysis.battery", "pbent.derivanalysis", "wr_identity_check"),
    ("constructions.trinomial", "pbent.constructions", "trinomial_bent"),
    ("cli.analyze", "pbent.cli", "analyze_function"),
    ("cli.report", "pbent.cli", "main"),
)
COUNTED = (("cyclo.norm_sq_calls", "pbent.cyclo", "CycInt.norm_sq"),)

# per-layer metric -> unit
METRICS = {
    "gf.tables_s": "s", "gf.tables_built": "count",
    "funcrep.truth_table_s": "s", "funcrep.anf_s": "s", "funcrep.anf_calls": "count",
    "funcrep.derivative_s": "s", "funcrep.derivatives": "count",
    "walsh.transform_s": "s", "walsh.spectrum_build_s": "s", "walsh.transforms": "count",
    "walsh.points": "count", "walsh.is_bent_s": "s", "walsh.is_bent_calls": "count",
    "walsh.certificate_s": "s", "walsh.certificates": "count", "walsh.classify_s": "s",
    "cyclo.norm_sq_calls": "count", "cyclo.norms_per_point": "ratio",
    "derivanalysis.cubic_like_s": "s", "derivanalysis.directions": "count",
    "derivanalysis.battery_s": "s", "derivanalysis.pairs": "count",
    "derivanalysis.transforms_per_pair": "ratio",
    "constructions.trinomial_s": "s",
    "cli.analyze_s": "s", "cli.report_s": "s",
    "trace.ops_wall_s": "s", "trace.span_share": "ratio",
}


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []      # (id, parent, name, start, end, self)
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts = {"walsh.points": 0, "derivanalysis.pairs": 0,
                       "derivanalysis.directions": 0, "gf.tables_built": 0,
                       "battery_transforms": 0}
        self.root_s: dict[str, float] = {}
        self._stack: list[list] = []      # [span id, start, child seconds]
        self._in_battery = 0
        self._next_id = 0
        self._patched: list[tuple] = []   # (owner, attribute, original)
        self._cells: dict[str, list] = {}  # counted-only calls

    # -- span bookkeeping ------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack, spans = self._stack, self.spans
        self_s, calls = self.self_s, self.calls
        self_s.setdefault(name, 0.0)
        calls.setdefault(name, 0)
        hook = getattr(self, "_on_" + name.replace(".", "_"), None)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [self._next_id, clock(), 0.0]
            self._next_id += 1
            stack.append(frame)
            try:
                result = hook(fn, args, kwargs) if hook else fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                own = dur - frame[2]
                self_s[name] += own
                calls[name] += 1
                if stack:
                    stack[-1][2] += dur
                else:
                    self.root_s[name] = self.root_s.get(name, 0.0) + dur
                spans.append((frame[0], parent, name, frame[1], end, own))
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str, fn):
        """Count calls of a method that takes no arguments, as cheaply as a
        Python wrapper allows (no timing, no packing of arguments)."""
        cell = [0]
        self._cells[name] = cell

        def counted(obj):
            cell[0] += 1
            return fn(obj)

        counted.__wrapped__ = fn
        return counted

    # -- counts taken at the layer boundaries ----------------------------------

    def _on_walsh_transform(self, fn, args, kwargs):
        self.counts["walsh.points"] += args[0].ctx.q
        if self._in_battery:
            self.counts["battery_transforms"] += 1
        return fn(*args, **kwargs)

    def _on_derivanalysis_battery(self, fn, args, kwargs):
        self._in_battery += 1
        try:
            report = fn(*args, **kwargs)
        finally:
            self._in_battery -= 1
        self.counts["derivanalysis.pairs"] += report.pair_count
        return report

    def _on_derivanalysis_cubic_like(self, fn, args, kwargs):
        self.counts["derivanalysis.directions"] += args[0].ctx.q - 1
        return fn(*args, **kwargs)

    def _on_gf_tables(self, fn, args, kwargs):
        if args[0].exp_table is None:
            self.counts["gf.tables_built"] += 1
        return fn(*args, **kwargs)

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the currently imported pbent modules."""
        modules = [m for name, m in sys.modules.items()
                   if name == "pbent" or name.startswith("pbent.")]
        for name, module, path in SPANS + COUNTED:
            owner, attr, fn = _resolve(module, path)
            wrapper = (self._counter if (name, module, path) in COUNTED else self._wrap)(name, fn)
            if isinstance(owner, type):
                self._patched.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Put every original back."""
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # -- results -------------------------------------------------------------------

    def metrics(self, ops_wall_s: float) -> dict[str, float]:
        s, c, k = self.self_s, self.calls, self.counts
        points = k["walsh.points"]
        pairs = k["derivanalysis.pairs"]
        norms = self._cells["cyclo.norm_sq_calls"][0]
        values = {
            "gf.tables_s": s["gf.tables"], "gf.tables_built": k["gf.tables_built"],
            "funcrep.truth_table_s": s["funcrep.truth_table"],
            "funcrep.anf_s": s["funcrep.anf"], "funcrep.anf_calls": c["funcrep.anf"],
            "funcrep.derivative_s": s["funcrep.derivative"],
            "funcrep.derivatives": c["funcrep.derivative"],
            "walsh.transform_s": s["walsh.transform"],
            "walsh.spectrum_build_s": s["walsh.spectrum_build"],
            "walsh.transforms": c["walsh.transform"], "walsh.points": points,
            "walsh.is_bent_s": s["walsh.is_bent"], "walsh.is_bent_calls": c["walsh.is_bent"],
            "walsh.certificate_s": s["walsh.certificate"],
            "walsh.certificates": c["walsh.certificate"],
            "walsh.classify_s": s["walsh.classify"],
            "cyclo.norm_sq_calls": norms,
            "cyclo.norms_per_point": norms / points if points else 0.0,
            "derivanalysis.cubic_like_s": s["derivanalysis.cubic_like"],
            "derivanalysis.directions": k["derivanalysis.directions"],
            "derivanalysis.battery_s": s["derivanalysis.battery"],
            "derivanalysis.pairs": pairs,
            "derivanalysis.transforms_per_pair":
                k["battery_transforms"] / pairs if pairs else 0.0,
            "constructions.trinomial_s": s["constructions.trinomial"],
            "cli.analyze_s": s["cli.analyze"], "cli.report_s": s["cli.report"],
            "trace.ops_wall_s": ops_wall_s,
            "trace.span_share":
                self.root_s.get("cli.report", 0.0) / ops_wall_s if ops_wall_s else 0.0,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}
