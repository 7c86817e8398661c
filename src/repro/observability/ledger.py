"""The run ledger: an append-only directory of run manifests.

Every measuring CLI invocation (``table1``/``table2``/``profile``/
``trace``/``bench``/``analyze``/``serve``/``loadgen``) writes one
**run manifest** — run id,
provenance (:mod:`~repro.observability.runinfo`), the fully resolved
configuration, and the outcome (rendered tables, per-workload numbers,
wall time, instructions per host second, metrics snapshot, artifact
paths) — into the ledger directory as ``<run_id>.json``.  Run ids sort
chronologically, so the directory listing *is* the run history.

The ledger is host-side bookkeeping only, same invariant as the
metrics registry: tables and cycle accounting are bit-identical with
the ledger on or off.  Writing is best-effort — an unwritable ledger
directory degrades to a warning, never a failed measurement run.

On top of the manifest store sit the ``repro runs`` views: ``list``
(filterable), ``show``, ``diff`` (config + per-cell deltas), and
``trend`` (per-workload series across the ledger with a regression
verdict reusing the ``--max-regression`` threshold semantics of
``repro bench --compare``).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import LedgerError
from repro.observability.runinfo import collect_provenance, new_run_id

#: Default ledger directory, relative to the invoking directory.
DEFAULT_LEDGER_DIR = ".repro-runs"
#: Environment override for the default (tests point it at a tmpdir).
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"
#: Manifest schema version (bump on incompatible shape changes).
MANIFEST_VERSION = 1

#: Numeric per-workload fields diffed/trended across runs, with the
#: direction in which *larger* is better (+1) or worse (-1).
WORKLOAD_FIELDS = (
    ("instructions_per_second", +1),
    ("overhead_spa_percent", -1),
    ("overhead_ipa_percent", -1),
    ("percent_native", 0),
    ("jni_calls", 0),
    ("native_method_calls", 0),
    # blocked-I/O runs (DESIGN.md §13); absent from non-I/O manifests
    ("wall_cycles", -1),
    ("blocked_cycles", 0),
    ("predicted_wall_cycles", 0),
)


def resolve_ledger_dir(explicit: Optional[str] = None) -> str:
    """CLI flag > ``REPRO_LEDGER_DIR`` > ``.repro-runs``."""
    if explicit:
        return explicit
    return os.environ.get(LEDGER_DIR_ENV) or DEFAULT_LEDGER_DIR


def new_manifest(command: str, config: Dict,
                 argv: Optional[List[str]] = None) -> Dict:
    """A manifest skeleton; the caller fills ``outcome`` after the run."""
    return {
        "version": MANIFEST_VERSION,
        "run_id": new_run_id(),
        "command": command,
        "argv": list(argv) if argv is not None else None,
        "provenance": collect_provenance(),
        "config": dict(config),
        "outcome": {},
    }


class Ledger:
    """One ledger directory: write manifests, read them back."""

    def __init__(self, directory: str):
        self.directory = directory

    # -- writing --------------------------------------------------------------

    def write(self, manifest: Dict) -> Optional[str]:
        """Append ``manifest``; returns its path, or ``None`` on an
        unwritable ledger (the caller warns — the run never fails)."""
        path = os.path.join(self.directory,
                            f"{manifest['run_id']}.json")
        try:
            os.makedirs(self.directory, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh, indent=1, sort_keys=True)
                fh.write("\n")
        except OSError:
            return None
        return path

    # -- reading --------------------------------------------------------------

    def run_ids(self) -> List[str]:
        """All run ids, oldest first (run ids sort chronologically)."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(name[:-5] for name in names
                      if name.endswith(".json"))

    def load(self, run_id: str) -> Dict:
        """Load one manifest by exact id or unique prefix."""
        ids = self.run_ids()
        if run_id in ids:
            matches = [run_id]
        else:
            matches = [rid for rid in ids if rid.startswith(run_id)]
        if not matches:
            raise LedgerError(
                f"no run {run_id!r} in ledger {self.directory!r} "
                f"({len(ids)} runs recorded)")
        if len(matches) > 1:
            raise LedgerError(
                f"run id prefix {run_id!r} is ambiguous: "
                f"{', '.join(matches)}")
        path = os.path.join(self.directory, f"{matches[0]}.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise LedgerError(f"cannot read manifest {path}: {exc}")

    def load_all(self) -> List[Dict]:
        """Every readable manifest, oldest first; unreadable or
        corrupt files are skipped (the ledger is append-only and may
        contain a partially written manifest after a crash)."""
        manifests = []
        for run_id in self.run_ids():
            try:
                manifests.append(self.load(run_id))
            except LedgerError:
                continue
        return manifests

    def latest(self) -> Dict:
        ids = self.run_ids()
        if not ids:
            raise LedgerError(
                f"ledger {self.directory!r} is empty")
        return self.load(ids[-1])


# -- `repro runs list` --------------------------------------------------------


def filter_manifests(manifests: Iterable[Dict],
                     command: Optional[str] = None,
                     workload: Optional[str] = None,
                     agent: Optional[str] = None,
                     tier: Optional[str] = None) -> List[Dict]:
    """Subset of ``manifests`` matching every given filter."""
    selected = []
    for manifest in manifests:
        config = manifest.get("config", {})
        if command and manifest.get("command") != command:
            continue
        if agent and config.get("agent") != agent:
            continue
        if tier and config.get("tier") != tier:
            continue
        if workload and workload not in _workloads_of(manifest):
            continue
        selected.append(manifest)
    return selected


def _workloads_of(manifest: Dict) -> List[str]:
    names = list(manifest.get("outcome", {}).get("workloads", {}))
    single = manifest.get("config", {}).get("workload")
    if single and single not in names:
        names.append(single)
    return names


def format_runs_table(manifests: List[Dict]) -> str:
    """The ``repro runs list`` view, oldest first."""
    headers = ("run id", "command", "agent", "tier", "wall s",
               "instr/s", "git")
    rows = []
    for manifest in manifests:
        config = manifest.get("config", {})
        outcome = manifest.get("outcome", {})
        provenance = manifest.get("provenance", {})
        sha = provenance.get("git_sha") or "-"
        if sha != "-":
            sha = sha[:8] + ("*" if provenance.get("git_dirty") else "")
        rate = outcome.get("instructions_per_second")
        wall = outcome.get("wall_seconds")
        rows.append((
            manifest.get("run_id", "?"),
            manifest.get("command", "?"),
            str(config.get("agent", "-")),
            str(config.get("tier", "-")),
            f"{wall:.2f}" if isinstance(wall, (int, float)) else "-",
            f"{rate:,}" if isinstance(rate, (int, float)) else "-",
            sha,
        ))
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              if rows else len(headers[i]) for i in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in
                               zip(row, widths)))
    return "\n".join(lines)


# -- `repro runs show` --------------------------------------------------------


def format_manifest(manifest: Dict) -> str:
    """A flat, greppable rendering of one manifest."""
    lines = [f"run:       {manifest.get('run_id')}",
             f"command:   {manifest.get('command')}"]
    provenance = manifest.get("provenance", {})
    for key in ("timestamp_utc", "hostname", "git_sha", "git_dirty",
                "python", "platform"):
        if key in provenance:
            lines.append(f"{key + ':':10s} {provenance[key]}")
    config = manifest.get("config", {})
    if config:
        lines.append("config:")
        for key in sorted(config):
            lines.append(f"  {key} = {config[key]}")
    outcome = manifest.get("outcome", {})
    for key in ("exit_status", "wall_seconds", "instructions",
                "instructions_per_second", "blocked_cycles",
                "wall_cycles"):
        if key in outcome:
            lines.append(f"{key + ':':10s} {outcome[key]}")
    for device in sorted(outcome.get("device_clocks") or {}):
        lines.append(f"device:    {device} = "
                     f"{outcome['device_clocks'][device]:,} cycles")
    artifacts = outcome.get("artifacts") or {}
    for kind in sorted(artifacts):
        lines.append(f"artifact:  {kind} -> {artifacts[kind]}")
    workloads = outcome.get("workloads") or {}
    if workloads:
        lines.append("workloads:")
        for name in sorted(workloads):
            cells = workloads[name]
            detail = " ".join(
                f"{field}={cells[field]:,.2f}"
                if isinstance(cells.get(field), float)
                else f"{field}={cells[field]:,}"
                for field, _ in WORKLOAD_FIELDS if field in cells)
            lines.append(f"  {name:<12} {detail}")
    for table_name in sorted(outcome.get("tables") or {}):
        lines.append(f"table:     {table_name} (embedded)")
    return "\n".join(lines)


# -- `repro runs diff` --------------------------------------------------------


def diff_manifests(a: Dict, b: Dict) -> List[str]:
    """Human-readable config + per-cell delta report between two runs."""
    lines = [f"A: {a.get('run_id')}  ({a.get('command')}, "
             f"{a.get('provenance', {}).get('timestamp_utc')})",
             f"B: {b.get('run_id')}  ({b.get('command')}, "
             f"{b.get('provenance', {}).get('timestamp_utc')})"]

    for key in ("git_sha", "git_dirty", "hostname", "python"):
        va = a.get("provenance", {}).get(key)
        vb = b.get("provenance", {}).get(key)
        if va != vb:
            lines.append(f"provenance {key}: {va} -> {vb}")

    config_a = a.get("config", {})
    config_b = b.get("config", {})
    # tier and cores change what a run *measures*, so they are always
    # shown — even unchanged — to make comparability explicit
    for key in ("tier", "cores"):
        va, vb = config_a.get(key), config_b.get(key)
        if va == vb:
            lines.append(f"config {key}: {va} (same)")
        else:
            lines.append(f"config {key}: {va} -> {vb}")
    for key in sorted(set(config_a) | set(config_b)):
        if key in ("tier", "cores"):
            continue
        va, vb = config_a.get(key), config_b.get(key)
        if va != vb:
            lines.append(f"config {key}: {va} -> {vb}")

    outcome_a = a.get("outcome", {})
    outcome_b = b.get("outcome", {})
    # on-CPU/blocked split: shown (with explicit "(same)" markers)
    # whenever either run blocked, so I/O comparisons always state the
    # off-CPU side; non-I/O diffs are unchanged
    if outcome_a.get("blocked_cycles") is not None or \
            outcome_b.get("blocked_cycles") is not None:
        for key in ("blocked_cycles", "wall_cycles"):
            va = outcome_a.get(key)
            vb = outcome_b.get(key)
            if va == vb:
                lines.append(f"outcome {key}: {va:,} (same)")
            else:
                lines.append(f"outcome {key}: "
                             f"{va if va is None else format(va, ',')}"
                             f" -> "
                             f"{vb if vb is None else format(vb, ',')}")
        dev_a = outcome_a.get("device_clocks") or {}
        dev_b = outcome_b.get("device_clocks") or {}
        for device in sorted(set(dev_a) | set(dev_b)):
            va, vb = dev_a.get(device), dev_b.get(device)
            if va == vb:
                lines.append(f"device {device}: {va:,} cycles (same)")
            else:
                lines.append(
                    f"device {device}: "
                    f"{va if va is None else format(va, ',')} -> "
                    f"{vb if vb is None else format(vb, ',')} cycles")

    wl_a = a.get("outcome", {}).get("workloads") or {}
    wl_b = b.get("outcome", {}).get("workloads") or {}
    for name in sorted(set(wl_a) & set(wl_b)):
        for field, _ in WORKLOAD_FIELDS:
            va, vb = wl_a[name].get(field), wl_b[name].get(field)
            if va is None or vb is None or va == vb:
                continue
            delta = vb - va
            rel = f" ({delta / va * 100.0:+.1f}%)" if va else ""
            lines.append(f"{name}.{field}: {va:,.2f} -> {vb:,.2f}"
                         f"{rel}")
    only_a = sorted(set(wl_a) - set(wl_b))
    only_b = sorted(set(wl_b) - set(wl_a))
    if only_a:
        lines.append(f"workloads only in A: {', '.join(only_a)}")
    if only_b:
        lines.append(f"workloads only in B: {', '.join(only_b)}")

    met_a = _counter_totals(a)
    met_b = _counter_totals(b)
    for name in sorted(set(met_a) & set(met_b)):
        if met_a[name] != met_b[name]:
            lines.append(f"metric {name}: {met_a[name]:,} -> "
                         f"{met_b[name]:,}")
    return lines


def _counter_totals(manifest: Dict) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for row in manifest.get("outcome", {}).get("metrics") or []:
        if row.get("type") == "counter" and "total" in row:
            totals[row["name"]] = row["total"]
    return totals


# -- `repro runs trend` -------------------------------------------------------


def has_workload_cells(manifest: Dict) -> bool:
    """Does this manifest contribute at least one numeric
    per-workload cell to a trend series?  ``analyze``, ``loadgen``
    and ``serve`` runs record other outcome shapes and do not."""
    workloads = manifest.get("outcome", {}).get("workloads") or {}
    return any(
        isinstance(cells.get(field), (int, float))
        for cells in workloads.values()
        for field, _ in WORKLOAD_FIELDS)


def trend_series(manifests: List[Dict]
                 ) -> Dict[Tuple[str, str], List[Tuple[str, float]]]:
    """``{(workload, field): [(run_id, value), ...]}`` oldest first.

    Only the fields in :data:`WORKLOAD_FIELDS` with a defined "better"
    direction contribute rows a regression verdict can be computed
    for; the neutral fields still appear so ``trend`` can display
    them.
    """
    series: Dict[Tuple[str, str], List[Tuple[str, float]]] = {}
    for manifest in manifests:
        run_id = manifest.get("run_id", "?")
        workloads = manifest.get("outcome", {}).get("workloads") or {}
        for name in sorted(workloads):
            for field, _ in WORKLOAD_FIELDS:
                value = workloads[name].get(field)
                if isinstance(value, (int, float)):
                    series.setdefault((name, field), []).append(
                        (run_id, float(value)))
    return series


def regression(previous: float, current: float, sense: int,
               max_regression_percent: float) -> Tuple[float, bool]:
    """The regression rule of ``runs trend`` and ``bench --compare``:
    the percent change from ``previous`` (non-zero) to ``current``, and
    whether it is worse by more than ``max_regression_percent``
    (``sense`` +1: larger is better, -1: smaller is better)."""
    change = (current - previous) / abs(previous) * 100.0
    bad = -change if sense > 0 else change
    return change, bad > max_regression_percent


def trend_report(manifests: List[Dict],
                 max_regression_percent: Optional[float] = None,
                 fields: Optional[Iterable[str]] = None
                 ) -> Tuple[bool, List[str]]:
    """Per-workload trend lines and an overall regression verdict.

    For each monotonic series (larger-is-better instr/s,
    smaller-is-better overhead %), :func:`regression` compares the
    latest value to the previous one, flagging a move in the bad
    direction by more than ``max_regression_percent``.  ``ok`` is
    ``False`` only when a threshold was given and at least one series
    regressed.
    """
    direction = dict(WORKLOAD_FIELDS)
    wanted = set(fields) if fields is not None else None
    # run kinds without per-workload cells (analyze, loadgen, serve)
    # are skipped with a note instead of contributing empty series
    skipped: Dict[str, int] = {}
    charted = []
    for manifest in manifests:
        if has_workload_cells(manifest):
            charted.append(manifest)
        else:
            command = manifest.get("command", "?")
            skipped[command] = skipped.get(command, 0) + 1
    series = trend_series(charted)
    lines: List[str] = []
    for command in sorted(skipped):
        lines.append(f"note: skipped {skipped[command]} {command} "
                     f"run(s) with no per-workload cells")
    regressed: List[str] = []
    for (workload, field) in sorted(series):
        if wanted is not None and field not in wanted:
            continue
        points = series[(workload, field)]
        values = [value for _, value in points]
        spark = render_sparkline(values)
        head = f"{workload}.{field}"
        lines.append(f"{head:<44} n={len(values):<3d} {spark}  "
                     f"last={values[-1]:,.2f}")
        sense = direction.get(field, 0)
        if (max_regression_percent is None or sense == 0
                or len(values) < 2 or values[-2] == 0):
            continue
        change, worse = regression(values[-2], values[-1], sense,
                                   max_regression_percent)
        if worse:
            regressed.append(
                f"REGRESSION {head}: {values[-2]:,.2f} -> "
                f"{values[-1]:,.2f} ({change:+.1f}%, budget "
                f"{max_regression_percent:.1f}%) between runs "
                f"{points[-2][0]} and {points[-1][0]}")
    if not series:
        lines.append("no per-workload series in the ledger yet")
    if regressed:
        lines.extend(regressed)
        return False, lines
    if max_regression_percent is not None:
        lines.append(f"OK: every series within the "
                     f"{max_regression_percent:.1f}% regression budget")
    return True, lines


#: Eight-level unicode bars for the terminal sparkline.
_SPARK_TICKS = "▁▂▃▄▅▆▇█"


def render_sparkline(values: List[float], width: int = 16) -> str:
    """A fixed-width unicode sparkline (most recent values rightmost)."""
    if not values:
        return ""
    tail = values[-width:]
    lo, hi = min(tail), max(tail)
    if hi == lo:
        return _SPARK_TICKS[0] * len(tail)
    scale = (len(_SPARK_TICKS) - 1) / (hi - lo)
    return "".join(_SPARK_TICKS[int((v - lo) * scale)] for v in tail)
