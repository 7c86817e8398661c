"""Host-performance tracker for the execution engine.

The ROADMAP's "fast as the hardware allows" goal needs a trajectory:
this module times the JVM98 suite under the ``none`` agent (the hot
path with no profiling machinery attached) and records host wall-clock
seconds plus simulated instructions per host second.  ``repro bench``
writes the measurement to ``BENCH_interpreter.json`` so successive
changes can be compared, and ``repro bench --compare`` turns a stored
measurement into a regression gate.

``tier`` selects the execution tier: ``"template"`` (the default —
interpreter plus the template second tier) or ``"interp"`` (dispatch
loop only).  Both produce bit-identical simulated numbers; only host
throughput differs.

Host seconds are measured, never simulated: nothing here touches cycle
accounting.  The suite runs serially — parallel cells would make the
wall-clock numbers a function of core count rather than engine speed.
A workload that finishes under the host timer's resolution reports the
suite-level rate instead of ``null`` (``rate_source: "suite"``), so
compare tooling never divides by null.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Dict, List, Optional, Tuple

from repro.harness.config import AgentSpec, RunConfig
from repro.harness.runner import execute
from repro.jit.policy import JitPolicy
from repro.jvm.machine import VMConfig
from repro.launcher import runtime_archive
from repro.observability.ledger import regression
from repro.observability.runinfo import git_info, utc_timestamp

#: Default output file, relative to the invoking directory.
DEFAULT_BENCH_PATH = "BENCH_interpreter.json"


def run_bench(scale: int = 1, workloads: Optional[List] = None,
              tier: str = "template", cores: int = 1,
              osr: bool = True, suite: str = "jvm98") -> Dict:
    """Time the suite and return the measurement document.

    ``suite`` picks the workload set when ``workloads`` is not given:
    ``jvm98`` (the paper's seven, the comparable default), ``full``
    (plus jbb2005), or ``all`` (plus the concurrency family).
    """
    from repro.workloads import (
        concurrency_suite,
        full_suite,
        jvm98_suite,
    )

    if workloads is None:
        if suite == "all":
            workloads = full_suite(scale) + concurrency_suite(scale)
        elif suite == "full":
            workloads = full_suite(scale)
        else:
            workloads = jvm98_suite(scale)
    runtime_archive()  # build the runtime outside the timed region

    rows = []
    total_host = 0.0
    total_instructions = 0
    for workload in workloads:
        workload.archive  # author/serialize outside the timed region
        config = RunConfig(
            agent=AgentSpec.none(),
            vm_config=VMConfig(jit_policy=JitPolicy(
                template_tier=(tier == "template"),
                osr=osr), cores=cores))
        start = time.perf_counter()
        result = execute(workload, config)
        host_seconds = time.perf_counter() - start
        total_host += host_seconds
        total_instructions += result.instructions
        rows.append((workload.name, host_seconds, result.instructions))

    suite_rate = round(total_instructions / total_host) \
        if total_host > 0 else 0
    per_workload = {}
    for name, host_seconds, instructions in rows:
        row = {
            "host_seconds": round(host_seconds, 4),
            "instructions": instructions,
        }
        if host_seconds > 0:
            row["instructions_per_second"] = round(
                instructions / host_seconds)
        else:
            # under timer resolution: fall back to the suite-level rate
            # so downstream compare tooling never divides by null
            row["instructions_per_second"] = suite_rate
            row["rate_source"] = "suite"
        per_workload[name] = row

    doc = {
        "benchmark": "jvm98/none-agent",
        "scale": scale,
        "suite": suite,
        "tier": tier,
        "cores": cores,
        "python": platform.python_version(),
        "hostname": platform.node(),
        "timestamp_utc": utc_timestamp(),
        "host_seconds": round(total_host, 4),
        "instructions": total_instructions,
        "instructions_per_second": suite_rate,
        "per_workload": per_workload,
    }
    doc.update(git_info())
    return doc


def write_bench(doc: Dict, path: str = DEFAULT_BENCH_PATH) -> None:
    """Persist a measurement document as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")


def read_bench(path: str) -> Dict:
    """Load a measurement document written by :func:`write_bench`."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def format_bench(doc: Dict) -> str:
    """Human-readable rendering of a measurement document."""
    lines = [
        f"benchmark: {doc['benchmark']} (scale {doc['scale']}, "
        f"tier {doc.get('tier', 'interp')}, "
        f"cores {doc.get('cores', 1)}, python {doc['python']})",
        f"{'workload':<12} {'host s':>9} {'instructions':>14} "
        f"{'instr/s':>12}",
    ]
    for name, row in doc["per_workload"].items():
        rate = row["instructions_per_second"]
        rate_text = f"{rate:,}" if rate is not None else "n/a"
        if row.get("rate_source") == "suite":
            rate_text += "*"
        lines.append(
            f"{name:<12} {row['host_seconds']:>9.3f} "
            f"{row['instructions']:>14,} "
            f"{rate_text:>12}")
    lines.append(
        f"{'TOTAL':<12} {doc['host_seconds']:>9.3f} "
        f"{doc['instructions']:>14,} "
        f"{doc['instructions_per_second']:>12,}")
    if any(row.get("rate_source") == "suite"
           for row in doc["per_workload"].values()):
        lines.append("* under host-timer resolution; suite-level rate")
    return "\n".join(lines)


def compare_bench(current: Dict, baseline: Dict,
                  max_regression_percent: float = 5.0
                  ) -> Tuple[bool, List[str]]:
    """Compare a fresh measurement against a stored baseline.

    Returns ``(ok, report_lines)``: ``ok`` is False when the suite-level
    host throughput regressed by more than ``max_regression_percent``.
    Simulated numbers are not compared here — they are covered by the
    golden-table tests; this gate is purely about host speed.
    """
    lines = []
    base_rate = baseline.get("instructions_per_second") or 0
    cur_rate = current.get("instructions_per_second") or 0
    lines.append(f"baseline: {base_rate:,} instr/s "
                 f"(tier {baseline.get('tier', 'interp')}, "
                 f"python {baseline.get('python', '?')})")
    lines.append(f"current:  {cur_rate:,} instr/s "
                 f"(tier {current.get('tier', 'interp')}, "
                 f"python {current.get('python', '?')})")
    if base_rate <= 0:
        lines.append("baseline rate missing or zero; nothing to gate")
        return True, lines
    change, worse = regression(base_rate, cur_rate, 1,
                               max_regression_percent)
    verb = "faster" if change >= 0 else "slower"
    lines.append(f"change:   {change:+.1f}% ({verb})")
    # Per-workload deltas over the *union* of workload names, so a
    # workload family present in only one document (e.g. concurrency
    # workloads added after the baseline was recorded) shows up as a
    # gap rather than vanishing from the report.
    cur_rows = current.get("per_workload", {})
    base_rows = baseline.get("per_workload", {})
    names = list(cur_rows) + [n for n in base_rows if n not in cur_rows]
    only_current = []
    only_baseline = []
    for name in names:
        row = cur_rows.get(name)
        base_row = base_rows.get(name)
        if row is None:
            only_baseline.append(name)
            continue
        if base_row is None:
            only_current.append(name)
            c = row.get("instructions_per_second") or 0
            lines.append(f"  {name:<12} {'(absent)':>12} -> {c:>12,}")
            continue
        b = base_row.get("instructions_per_second") or 0
        c = row.get("instructions_per_second") or 0
        if b > 0:
            lines.append(f"  {name:<12} {b:>12,} -> {c:>12,} "
                         f"({(c - b) / b * 100.0:+.1f}%)")
    for name in only_baseline:
        b = base_rows[name].get("instructions_per_second") or 0
        lines.append(f"  {name:<12} {b:>12,} -> {'(absent)':>12}")
    if only_current or only_baseline:
        lines.append(
            "WARNING: workload sets differ"
            + (f"; only in current: {', '.join(sorted(only_current))}"
               if only_current else "")
            + (f"; only in baseline: {', '.join(sorted(only_baseline))}"
               if only_baseline else "")
            + " — suite rates aggregate different workload mixes")
    # Configuration sanity: a tier or core-count mismatch means the
    # two runs measured different engines — flag it loudly.
    base_tier = baseline.get("tier", "interp")
    cur_tier = current.get("tier", "interp")
    if base_tier != cur_tier:
        lines.append(f"WARNING: tier mismatch (baseline {base_tier}, "
                     f"current {cur_tier}); rates compare different "
                     f"execution tiers")
    base_cores = baseline.get("cores", 1)
    cur_cores = current.get("cores", 1)
    if base_cores != cur_cores:
        lines.append(f"WARNING: core-count mismatch (baseline "
                     f"{base_cores}, current {cur_cores}); scheduler "
                     f"overhead differs between the runs")
    # Provenance sanity: cross-host or dirty-tree comparisons are
    # allowed but flagged — the numbers may not be commensurable.
    base_host = baseline.get("hostname")
    cur_host = current.get("hostname")
    if base_host and cur_host and base_host != cur_host:
        lines.append(f"WARNING: measurements from different hosts "
                     f"({base_host} vs {cur_host}); rates may not "
                     f"be comparable")
    for label, doc in (("baseline", baseline), ("current", current)):
        if doc.get("git_dirty"):
            sha = doc.get("git_sha") or "?"
            lines.append(f"WARNING: {label} was measured on a dirty "
                         f"working tree (git {sha[:12]})")
    ok = not worse
    if ok:
        lines.append(f"OK: within the {max_regression_percent:.1f}% "
                     f"regression budget")
    else:
        lines.append(f"REGRESSION: more than "
                     f"{max_regression_percent:.1f}% below baseline")
    return ok, lines
