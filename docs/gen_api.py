#!/usr/bin/env python3
"""Generate docs/api.md from the package's public API docstrings.

Run from the repository root:  python docs/gen_api.py
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import sys

MODULES = [
    "repro",
    "repro.core.cost_functions",
    "repro.core.alg_discrete",
    "repro.core.alg_continuous",
    "repro.core.alg_discrete_naive",
    "repro.core.ledger",
    "repro.core.invariants",
    "repro.core.convex_program",
    "repro.core.fractional_online",
    "repro.core.offline",
    "repro.core.claims",
    "repro.core.lower_bound",
    "repro.policies",
    "repro.sim.trace",
    "repro.sim.trace_io",
    "repro.sim.colstore",
    "repro.sim.policy",
    "repro.sim.engine",
    "repro.sim.driver",
    "repro.sim.metrics",
    "repro.serve.shard",
    "repro.serve.accounting",
    "repro.serve.server",
    "repro.serve.workers",
    "repro.serve.client",
    "repro.net",
    "repro.net.topology",
    "repro.net.strategies",
    "repro.net.metrics",
    "repro.net.netsim",
    "repro.obs",
    "repro.obs.registry",
    "repro.obs.tracing",
    "repro.obs.distrib",
    "repro.obs.prof",
    "repro.obs.timeline",
    "repro.obs.monitor",
    "repro.obs.export",
    "repro.obs.flight",
    "repro.obs.audit",
    "repro.obs.alerts",
    "repro.obs.httpd",
    "repro.obs.dash",
    "repro.workloads.streams",
    "repro.workloads.builders",
    "repro.workloads.sqlvm",
    "repro.workloads.characterize",
    "repro.analysis.bounds",
    "repro.analysis.competitive",
    "repro.analysis.worst_case",
    "repro.analysis.sweep",
    "repro.analysis.stats",
    "repro.analysis.report",
    "repro.multipool",
    "repro.experiments",
    "repro.util.rng",
    "repro.util.heap",
    "repro.util.linkedlist",
]


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "*(undocumented)*"
    paragraph: list[str] = []
    for line in inspect.cleandoc(doc).splitlines():
        if not line.strip():
            break
        paragraph.append(line.strip())
    return " ".join(paragraph)


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(...)"


def document_module(name: str) -> str:
    mod = importlib.import_module(name)
    lines = [f"## `{name}`", "", first_paragraph(mod.__doc__), ""]
    public = getattr(mod, "__all__", None)
    if public is None:
        public = [n for n in vars(mod) if not n.startswith("_")]
    for attr in public:
        obj = getattr(mod, attr, None)
        if obj is None:
            continue
        if inspect.ismodule(obj):
            continue
        owner = getattr(obj, "__module__", name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if owner != name and name != "repro" and not name.endswith(
                ("policies", "multipool", "experiments")
            ):
                continue  # re-export; documented at its home module
        if inspect.isclass(obj):
            lines.append(f"### class `{attr}{signature_of(obj)}`")
            lines.append("")
            lines.append(first_paragraph(obj.__doc__))
            lines.append("")
            for mname, meth in inspect.getmembers(obj, inspect.isfunction):
                if mname.startswith("_"):
                    continue
                if meth.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited
                lines.append(
                    f"- `{mname}{signature_of(meth)}` — "
                    f"{first_paragraph(inspect.getdoc(meth))}"
                )
            lines.append("")
        elif inspect.isfunction(obj):
            lines.append(f"### `{attr}{signature_of(obj)}`")
            lines.append("")
            lines.append(first_paragraph(obj.__doc__))
            lines.append("")
    return "\n".join(lines)


def main() -> None:
    out = [
        "# API reference",
        "",
        "*Generated by `python docs/gen_api.py` — do not edit by hand.*",
        "",
    ]
    for name in MODULES:
        out.append(document_module(name))
        out.append("")
    target = pathlib.Path(__file__).parent / "api.md"
    target.write_text("\n".join(out), encoding="utf-8")
    print(f"wrote {target} ({len(out)} sections, {sum(len(s) for s in out)} chars)")


if __name__ == "__main__":
    main()
