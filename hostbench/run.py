"""Host benchmark of the simulator: end-to-end and per-layer.

Run from the root of a checkout::

    python3 hostbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped
but the clocks.  Every time is reported at a reference host speed
(see ``hostspeed.py``); the run record keeps the raw host seconds.
``--trace 1`` measures untraced for a third of ``--seconds`` (the base
of ``bench.trace_overhead``), then wraps every layer (see
``probes.py``), sets up again and measures the per-layer metrics.  The
last line of standard output is the result object; the line before it
records where the result came from.  See ``README.md`` in this
directory for the workloads and metrics.
"""

from __future__ import annotations

import time

from hostspeed import Timing, probe, timed

_PROBED = probe()
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import socket  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from sampling import median, percentile, tail_percentile  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table1", "table2", "serve-warm", "cores4")

#: Fresh set-ups per run; ``setup_s`` is the import time plus their
#: median, all at the reference host speed.
SETUP_REPEATS = 3


def provenance(seed: int) -> dict:
    """Where a result came from: commit, tree state, host and seed."""
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                capture_output=True, text=True, check=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, timeout=30, capture_output=True, text=True,
                check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            sha = dirty = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "git_dirty": dirty,
            "source_sha256": digest.hexdigest()[:16],
            "hostname": socket.gethostname(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "seed": seed}


def end_to_end(scenario, tally, setup_s: float) -> dict:
    latencies = (tally.latency_ms() if scenario.unit == "request"
                 else tally.pass_latencies_ms())
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (tally.pass_seconds(), "s"),
        "req_p50_ms": (percentile(latencies, 50.0), "ms"),
        "req_p90_ms": (percentile(latencies, 90.0), "ms"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - tally.failed / max(1, tally.attempted), "ratio"),
    }


def per_layer(scenario, tracer, tally, base) -> dict:
    """Per-layer figures of the traced phase ``tally``, per pass (per
    request on serve-warm); set-up spans are left out.

    Queue wait and generator lateness come from the untraced phase
    ``base``: tracing doubles service time, which at the same offered
    rate overloads the pool, so traced queueing describes no real load.
    """
    owners = [owner for owner in tracer.owners() if owner != "setup"]
    divisor = max(1, len(tally.requests) if scenario.unit == "request"
                  else tally.passes)

    def seconds(layer):
        return tracer.self_seconds(layer, owners) / divisor

    def spans(layer):
        return tracer.span_count(layer, owners) / divisor

    def counted(name):
        return tracer.counted(name, owners) / divisor

    # a code-cache property, so taken over the whole traced phase
    everyone = tracer.owners()
    translated = tracer.counted("templates_translated", everyone)
    invalidated = tracer.counted("templates_invalidated", everyone)
    hits = tracer.counted("call_cache_hits", owners)
    lookups = hits + tracer.counted("call_cache_misses", owners)
    return {
        "classfile.decode_s": (seconds("classfile"), "s"),
        "classfile.decodes": (spans("classfile"), "count"),
        "bytecode.verify_s": (seconds("bytecode"), "s"),
        "bytecode.methods_verified": (counted("methods_verified"), "count"),
        "classloader.self_s": (seconds("classloader"), "s"),
        "classloader.classes_loaded": (counted("classes_loaded"), "count"),
        "instrument.rewrite_s": (seconds("instrument"), "s"),
        "instrument.archives": (counted("archives_instrumented"), "count"),
        "jit.translate_s": (seconds("jit"), "s"),
        "jit.templates_translated": (counted("templates_translated"),
                                     "count"),
        "jit.template_exec_s": (seconds("template"), "s"),
        "jit.template_calls": (spans("template"), "count"),
        "jit.osr_entries": (counted("osr_entries"), "count"),
        "jit.deopts": (counted("deopts"), "count"),
        "jit.template_survival": (
            1.0 - invalidated / translated if translated else 1.0, "ratio"),
        "interpreter.self_s": (seconds("interpreter"), "s"),
        "interpreter.instructions": (counted("instructions"), "count"),
        "interpreter.pic_hit_ratio": (
            hits / lookups if lookups else 0.0, "ratio"),
        "jvmti.dispatch_s": (seconds("jvmti"), "s"),
        "jvmti.events": (counted("jvmti_events"), "count"),
        "jni.native_s": (seconds("jni"), "s"),
        "jni.native_calls": (spans("jni"), "count"),
        "jni.jni_calls": (counted("jni_calls"), "count"),
        "threads.charge_s": (seconds("threads"), "s"),
        "threads.charge_calls": (spans("threads"), "count"),
        "scheduler.wait_s": (seconds("scheduler"), "s"),
        "scheduler.context_switches": (counted("context_switches"),
                                       "count"),
        "scheduler.monitor_contentions": (counted("monitor_contentions"),
                                          "count"),
        "scheduler.io_blocks": (counted("io_blocks"), "count"),
        "service.reset_ms": (seconds("service") * 1000.0, "ms"),
        "service.queue_ms": (
            sum(base.queue_ms) / len(base.queue_ms) if base.queue_ms
            else 0.0, "ms"),
        "bench.trace_overhead": (
            tally.pass_seconds() / base.pass_seconds(), "ratio"),
        "bench.gen_late_ms": (
            median(base.late_ms) if base.late_ms else 0.0, "ms"),
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir() or \
            not (ROOT / "results").is_dir():
        print(f"hostbench: {ROOT} has no simulator sources (src/repro) "
              f"or goldens (results/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import scenarios

    imports = Timing(time.perf_counter() - _STARTED, _PROBED + probe())
    scenario = scenarios.make(args.workload, ROOT, args.seed)
    tracer = None
    try:
        scenario.references()
        setups = [timed(scenario.setup)[1] for _ in range(SETUP_REPEATS)]
        setup_s = imports.seconds + median(
            [timing.seconds for timing in setups])
        tally = scenarios.Tally()
        if args.trace == 0:
            scenario.measure(args.seconds, tally)
            if scenario.unit == "request":
                tally.check(tail_percentile(len(tally.requests)) >= 90.0,
                            f"req_p90_ms needs 10 requests beyond it; "
                            f"{len(tally.requests)} were served")
            checked = [tally]
            metrics = end_to_end(scenario, tally, setup_s) \
                if tally.runs else None
        else:
            from probes import LayerProbes
            from spans import Tracer

            scenario.measure(args.seconds / 3.0, tally)
            tracer = Tracer()
            probes = LayerProbes(tracer)
            traced = scenarios.Tally()
            probes.install()
            try:
                scenario.setup()
                scenario.measure(args.seconds * 2.0 / 3.0, traced, tracer)
            finally:
                probes.restore()
            traced.attempted += probes.launches
            traced.failed += len(probes.mismatches)
            traced.failures.extend(probes.mismatches)
            checked = [tally, traced]
            metrics = per_layer(scenario, tracer, traced, tally) \
                if tally.runs and traced.runs else None
    finally:
        scenario.close()

    attempted = sum(t.attempted for t in checked)
    failed = sum(t.failed for t in checked)
    failures = [line for t in checked for line in t.failures]
    for line in failures[:20]:
        print(f"hostbench: FAILED {line}", file=sys.stderr)
    if metrics is None:
        print("hostbench: no operation completed; nothing to report",
              file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    origin = provenance(args.seed)
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "provenance": origin,
              "result": result, "failures": failures,
              "setup": {"import_s": imports.seconds,
                        "repeats_s": [t.seconds for t in setups],
                        "raw_import_s": imports.raw_s,
                        "raw_repeats_s": [t.raw_s for t in setups]},
              "samples": {"passes": sum(t.passes for t in checked),
                          "operations": sum(len(t.runs) for t in checked)},
              "operation_s": [t.op_seconds() for t in checked],
              "raw_runs": [[[key, r.raw_s, r.probes_s] for key, r in t.runs]
                           for t in checked],
              "raw_requests": [[list(r) for r in t.requests]
                               for t in checked]}
    if tracer is not None:
        record["spans"] = {f"{owner} {layer}": total for (owner, layer),
                           total in sorted(tracer.spans.items())}
        record["counts"] = {f"{owner} {name}": n for (owner, name), n
                            in sorted(tracer.counts.items())}
    out = ROOT / ".hostbench"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": origin}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
