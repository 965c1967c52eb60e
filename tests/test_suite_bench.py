"""scripts/suite_bench.py: the rows it runs and the fields of one row."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import suite_bench  # noqa: E402


def test_suite_bench_rows_and_fields():
    """Every command at n = 1..3 but the skipped n = 3 bound, then
    space-info at n = 5 and 8; a row run in a fresh interpreter (space-info
    on Fock, n = 1) records its inputs, exit code, [FAIL] count, wall time,
    the import part of that time and peak RSS."""
    plan = list(suite_bench.rows())
    assert len(plan) == 3 * 8 - 1 + 2
    assert ("bound", 3) not in plan and ("bound", 2) in plan
    assert plan[-2:] == [("space-info", 5), ("space-info", 8)]
    assert suite_bench.SKIPPED[0]["command"] == "bound"
    row = suite_bench.run_row("space-info", 1, {"preset": "fock"})
    assert set(row) == {"command", "n", "phase", "h", "exit", "wall_s",
                        "import_s", "peak_rss_mb", "failed_checks"}
    assert (row["command"], row["n"], row["h"]) == ("space-info", 1, 0.5)
    assert row["phase"] == {"preset": "fock"}
    assert row["exit"] == 0 and row["failed_checks"] == 0
    assert 0 < row["import_s"] < row["wall_s"] < 60
    assert 1 < row["peak_rss_mb"] < 4096
