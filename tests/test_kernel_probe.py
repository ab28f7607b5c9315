"""``tools/kernel_probe.py`` builds its three timing tables on the seeded
inputs of ``conftest.py``, without timing them: a library name it uses that
is gone fails here, not at the probe's next run.  The tests that compare
the tables' columns with their references run on the same inputs."""

import importlib.util
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parent.parent / "tools" / "kernel_probe.py"


def test_the_probe_builds_its_tables(monkeypatch):
    # the probe puts src, tests and perfbench first on the path
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("kernel_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    tables = [probe.kernel_table(), probe.pullback_table(), probe.order_table()]
    assert [len(table.rows) for table in tables] == [64, 11, 8]
    for table in tables:
        assert set(table.ratio) <= set(table.columns)
        assert all(len(row[0]) == len(table.labels) for row in table.rows)
