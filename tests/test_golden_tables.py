"""Golden-file regression for the paper's tables, plus observability
parity.

Three guarantees pinned here:

* ``repro table1`` / ``repro table2`` reproduce ``results/table*.txt``
  byte-for-byte (the simulator is deterministic; any drift is a
  regression or an intentional change that must refresh the goldens);
* ``repro analyze --races --suite --format json`` reproduces
  ``results/analyze_suite.json`` byte-for-byte, pinning every typed,
  monitor, flow and lockset finding and their order;
* the rendered tables are identical with observability enabled or
  disabled, serially and under ``--jobs 4`` — the zero-perturbation
  rule, end to end.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.harness.overhead import build_table1
from repro.harness.report import render_table1
from repro.observability import ObservabilityConfig
from repro.workloads import get_workload

RESULTS = Path(__file__).resolve().parent.parent / "results"


class TestGoldenFiles:
    def test_table1_matches_golden(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert out == (RESULTS / "table1.txt").read_text()

    def test_table2_matches_golden(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert out == (RESULTS / "table2.txt").read_text()

    def test_analyze_suite_matches_golden(self, capsys):
        assert main(["analyze", "--races", "--suite", "--no-ledger",
                     "--format", "json"]) == 0
        out = capsys.readouterr().out
        assert out == (RESULTS / "analyze_suite.json").read_text()


class TestObservabilityParity:
    """Tables must not change by one byte when observability is on."""

    @pytest.fixture(scope="class")
    def workloads(self):
        return [get_workload("db"), get_workload("jess")]

    @pytest.fixture(scope="class")
    def plain(self, workloads):
        return render_table1(build_table1(workloads))

    def test_serial_trace_and_metrics(self, workloads, plain):
        observed = build_table1(
            workloads,
            observability=ObservabilityConfig(trace=True, metrics=True))
        assert render_table1(observed) == plain
        assert observed.captures and all(observed.captures)

    def test_jobs4_parity_and_fixed_merge_order(self, workloads,
                                                plain):
        observed = build_table1(
            workloads, jobs=4,
            observability=ObservabilityConfig(trace=True, metrics=True))
        assert render_table1(observed) == plain
        # captures come back in cell order (workload outer, agent
        # inner) no matter which worker finished first
        labels = [(c["labels"]["workload"], c["labels"]["agent"])
                  for c in observed.captures]
        assert labels == [("db", "original"), ("db", "spa"),
                          ("db", "ipa"), ("jess", "original"),
                          ("jess", "spa"), ("jess", "ipa")]

    def test_jobs_do_not_change_cycles(self, workloads, plain):
        parallel = render_table1(build_table1(workloads, jobs=4))
        assert parallel == plain
