"""Span tracing of cosetchar's public functions, installed from outside.

`install(recorder)` replaces each function listed in `TRACED` with a wrapper
that records one span per call (name, start, end, parent, result sizes), in
its defining module and wherever another cosetchar module imported it by
name.  The program's files are not changed; calling the returned function
puts the originals back.

Run as a script to trace one CLI call in a fresh process.  The program's
standard output passes through; the spans go to OUT as JSON, with times in
seconds from the start of this script:

    PYTHONPATH=src python3 perfbench/spans.py OUT analyze SPEC --json
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable

_T0 = time.perf_counter()

# module -> {attribute: span name}; "Class.method" names a method.
TRACED = {
    "groupio": {
        "parse_group_spec": "groupio.parse_group_spec",
        "build_group": "groupio.build_group",
        "parse_theta": "groupio.parse_theta",
    },
    "groups": {
        "generate_group": "groups.generate_group",
        "subgroup_generated": "groups.subgroup_generated",
        "conjugacy_classes": "groups.conjugacy_classes",
        "quotient": "groups.quotient",
        "subgroup_as_group": "groups.subgroup_as_group",
    },
    "chartable": {
        "class_constants": "chartable.class_constants",
        "character_table": "chartable.character_table",
        "restriction_norm": "chartable.restriction_norm",
    },
    "cosets": {
        "dual_group": "cosets.dual_group",
        "compute_orbits": "cosets.compute_orbits",
        "build_mq": "cosets.build_mq",
        "CosetAnalysis.__init__": "cosets.analysis",
        "CosetAnalysis.normal_group_data": "cosets.normal_group_data",
        "CosetAnalysis.extendability_counts": "cosets.extendability_counts",
        "CosetAnalysis.restriction_row_indices": "cosets.restriction_row_indices",
        "CosetAnalysis.nontrivial_extension": "cosets.nontrivial_extension",
    },
    "inversion": {
        "decompose": "inversion.decompose",
        "psi_power_value": "inversion.psi_power_value",
        "power_sums_to_multiset": "inversion.power_sums_to_multiset",
        "choose_roots": "inversion.choose_roots",
        "Theta.from_values": "inversion.theta_from_values",
        "Theta.from_multiplicities": "inversion.theta_from_multiplicities",
    },
    "corpus": {"run_property_suite": "corpus.run_property_suite"},
    "cli": {"main": "cli.main"},
}

# span name -> sizes recorded from the call's result
SIZES: dict[str, Callable[[object], dict]] = {
    "groupio.build_group": lambda r: {"order": r[0].order, "normal_order": r[1].order},
    "groups.conjugacy_classes": lambda r: {"classes": r.n_classes},
    "chartable.character_table": lambda r: {"exponent": r.exponent},
    "groups.quotient": lambda r: {"cosets": r.size},
    "cosets.compute_orbits": lambda r: {"orbits": len(r)},
    "inversion.decompose": lambda r: {"components": len(r)},
}


class Recorder:
    """Spans kept in memory: dicts with id, name, start, end, parent, sizes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def begin(self, name: str, **fields) -> dict:
        span = {"id": len(self.spans), "name": name, "start": time.perf_counter(),
                "end": None, "parent": self._open[-1] if self._open else None,
                **fields}
        self.spans.append(span)
        self._open.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    def attach(self, spans: list[dict], parent: dict, offset: float) -> None:
        """Add spans recorded by another process under `parent`, shifting
        their times (seconds from that process's start) by `offset`."""
        base = len(self.spans)
        for s in spans:
            self.spans.append({**s, "id": base + s["id"],
                               "start": s["start"] + offset, "end": s["end"] + offset,
                               "parent": parent["id"] if s["parent"] is None
                               else base + s["parent"]})


def _traced(recorder: Recorder, name: str, fn: Callable) -> Callable:
    sizes = SIZES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if sizes is not None:
            span["sizes"] = sizes(result)
        return result

    return wrapper


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every function in TRACED; returns a function that unwraps them."""
    modules = {m: importlib.import_module(f"cosetchar.{m}") for m in TRACED}
    undo = []
    for mod_name, attrs in TRACED.items():
        module = modules[mod_name]
        for attr, span_name in attrs.items():
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(_traced(recorder, span_name, raw.__func__))
                else:
                    new = _traced(recorder, span_name, raw)
                setattr(cls, meth, new)
                undo.append((cls, meth, raw))
                continue
            original = getattr(module, attr)
            new = _traced(recorder, span_name, original)
            for other in modules.values():
                if getattr(other, attr, None) is original:
                    setattr(other, attr, new)
                    undo.append((other, attr, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from cosetchar import cli

    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        for span in recorder.spans:
            span["start"] -= _T0
            span["end"] -= _T0
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans,
                       "exit_s": time.perf_counter() - _T0}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
