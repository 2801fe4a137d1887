"""Spans around glchar's public functions, recorded from outside the package.

Run as a fresh process in one of two modes; both keep spans in memory and
write them, as JSON, to --out when they finish:

    python3 perfbench/tracing.py cli --out SPANS -- recover --q 13 --json
        runs one glchar CLI invocation with the wrappers below installed;
        stdout is the CLI's own and must match an untraced run byte for byte.
        These are the wrappers the probe's figures are taken under, so the
        traced pass against an untraced one gives trace.overhead_frac.
        run.py reads only the cli.import span: one CLI process mixes cold
        and warm calls (each rho-query process is all cold), so the layer
        figures come from the probe, which keeps them apart.  The other
        spans stay in the file for inspection by hand.

    python3 perfbench/tracing.py probe --out SPANS --q 19 --labels L... \
        [--jobs2-labels L...]
        times each layer at one q by calling its public functions directly:
        the density gate, sheet build, validation, JSON emit and parse,
        sheet_from_dict, CycNum triples, cold and warm sparse_decompose,
        recover_E over the given rows, and recover_E with jobs=2.

A span is [id, parent id or null, name, start, end, attrs], times from
time.perf_counter().  glchar must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               name, time.perf_counter(), None, attrs]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, attrs=None):
        def traced(*args, **kwargs):
            with self.span(name, **(attrs(*args) if attrs else {})):
                return fn(*args, **kwargs)
        return traced

    def wrap_cold(self, fn, name: str):
        """Span only the calls that miss fn's lru_cache (the cold ones)."""
        def traced(*args):
            misses = fn.cache_info().misses
            start = time.perf_counter()
            out = fn(*args)
            end = time.perf_counter()
            if fn.cache_info().misses != misses:
                self.spans.append(
                    [len(self.spans), self._stack[-1] if self._stack else None,
                     name, start, end, {"torus": args[0].label}])
            return out
        return traced

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def _torus_attr(f, T, *rest):
    return {"torus": T.label}


def _label_attr(sheet, label, *rest):
    return {"label": label}


# (module, attribute, span name, attrs): the public functions the CLI
# reaches, patched where the caller looks them up.
WRAPPED = (
    ("glchar.cli", "build_sheet", "sheets.build_sheet", None),
    ("glchar.cli", "load_sheet", "sheets.load_sheet", None),
    ("glchar.cli", "sheet_to_json_text", "sheets.sheet_to_json_text", None),
    ("glchar.cli", "recover_E", "recovery.recover_E", _label_attr),
    ("glchar.sheets", "sheet_from_dict", "sheets.sheet_from_dict", None),
    ("glchar.sheets", "validate_sheet", "sheets.validate_sheet", None),
    ("glchar.recovery", "check_q_condition", "tori.check_q_condition", None),
    ("glchar.recovery", "sparse_decompose", "recovery.sparse_decompose",
     _torus_attr),
    ("glchar.recovery", "geom_class_id", "tori.geom_class_id", None),
)
COLD = ("glchar.tori", "glchar.sheets", "glchar.recovery")


def install(tracer: Tracer) -> None:
    for modname, attr, name, attrs in WRAPPED:
        mod = importlib.import_module(modname)
        setattr(mod, attr, tracer.wrap(getattr(mod, attr), name, attrs))
    tori = importlib.import_module("glchar.tori")
    cold = tracer.wrap_cold(tori.regular_elements, "tori.regular_elements")
    for modname in COLD:
        setattr(importlib.import_module(modname), "regular_elements", cold)


def run_cli(out: str, argv: list[str]) -> int:
    tracer = Tracer()
    with tracer.span("cli.import"):
        import glchar.cli
    install(tracer)
    with tracer.span("cli.main", argv=argv):
        code = glchar.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(out)
    return code


def run_probe(out: str, q: int, labels: list[str],
              jobs2_labels: list[str]) -> int:
    tracer = Tracer()
    span = tracer.span
    with span("cli.import"):
        import glchar.cli  # noqa: F401  (imports every layer)
    from glchar import cyclotomic, recovery, sheets, tori
    install(tracer)

    spec = tori.GroupSpec(2, q)
    with span("tori.gate"):
        gate_ok = tori.check_q_condition(spec).ok
    points = {tt.label: len(tori.regular_elements(tt))
              for tt in tori.enumerate_tori(spec)}

    with span("sheets.build"):
        sheet = sheets.build_gl2_sheet(q)
    with span("sheets.validate"):
        valid = sheets.validate_sheet(sheet).ok
    with span("sheets.emit"):
        text = sheets.sheet_to_json_text(sheet)
    with span("sheets.parse"):
        data = json.loads(text)
    with span("sheets.from_dict"):
        loaded = sheets.sheet_from_dict(data)
    same_load = all(a.values == b.values for a, b in zip(sheet.rows, loaded.rows))

    values = [v for r in sheet.rows for tt in sheet.tori
              for v in r.values[tt.blocks].values()]
    with span("cyclotomic.to_triples"):
        triples = [v.to_triples() for v in values]
    with span("cyclotomic.from_triples"):
        back = [cyclotomic.CycNum.from_triples(sheet.zeta_level, t)
                for t in triples]
    same_triples = back == values

    # first call per torus builds the solver tables; the repeat is warm
    row0 = sheet.row(labels[0])
    for tt in sheet.tori:
        for phase in ("recovery.cold_decompose", "recovery.warm_decompose"):
            with span(phase, torus=tt.label):
                recovery.sparse_decompose(row0.values[tt.blocks], tt)

    reports = {}
    for lab in labels:
        with span("recovery.row", label=lab):
            reports[lab] = recovery.recover_E(
                sheet, lab, validate=False).to_dict()
    jobs2_reports = {}
    for lab in jobs2_labels:
        with span("recovery.jobs2_row", label=lab):
            jobs2_reports[lab] = recovery.recover_E(
                sheet, lab, validate=False, jobs=2).to_dict()

    tracer.dump(out, q=q, points=points, emit_bytes=len(text.encode()),
                values=len(values), reports=reports,
                jobs2_reports=jobs2_reports,
                checks={"gate passes": gate_ok,
                        "built sheet validates": valid,
                        "sheet_from_dict returns the emitted values": same_load,
                        "CycNum triples round-trip": same_triples})
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["cli"]:
        p = argparse.ArgumentParser(prog="tracing.py cli")
        p.add_argument("--out", required=True)
        p.add_argument("argv", nargs=argparse.REMAINDER)
        args = p.parse_args(argv[1:])
        rest = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return run_cli(args.out, rest)
    p = argparse.ArgumentParser(prog="tracing.py probe")
    p.add_argument("mode", choices=("probe",))
    p.add_argument("--out", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--labels", nargs="+", required=True)
    p.add_argument("--jobs2-labels", nargs="*", default=[])
    args = p.parse_args(argv)
    return run_probe(args.out, args.q, args.labels, args.jobs2_labels)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
