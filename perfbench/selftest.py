"""Self-test of the benchmark's own code.

    python3 perfbench/selftest.py

Runs every workload on tiny seeded inputs through ``run.py``, untraced and
traced, twice each, and checks that

- the last line is the result object, with exactly the metric names and units
  BENCHMARK.json lists, and no op failed;
- the exact counts (the ``# counts`` line, and every per-layer metric whose
  unit is ``count``) repeat between two runs of the same seed;
- the correctness gate fires: ``verify`` with ``--inject-bug`` counts every
  op as failed, reports ``correct: false`` and exits 1;
- without the library sources the benchmark exits non-zero and prints no
  result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", str(SEED),
           "--seconds", "1", "--scale", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    counts = next(json.loads(l[len("# counts "):]) for l in lines if l.startswith("# counts "))
    return result, counts


def check_run(workload: str, trace: int, failures: list[str]) -> None:
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    runs = []
    for _ in range(2):
        proc = bench("--workload", workload, "--trace", str(trace))
        if proc.returncode != 0:
            failures.append(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
            return
        runs.append(parse(proc))
    (result, counts), (result2, counts2) = runs
    where = f"{workload} trace={trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        failures.append(f"{where}: not correct: {result['failed']} of {result['attempted']} failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != {m["name"]: m["unit"] for m in wanted}:
        failures.append(f"{where}: metric names or units differ from BENCHMARK.json")
    if counts != counts2:
        failures.append(f"{where}: exact counts differ between runs: {counts} vs {counts2}")
    for m in wanted:
        if m["unit"] == "count":
            a = result["metrics"][m["name"]]["value"]
            b = result2["metrics"][m["name"]]["value"]
            if a != b:
                failures.append(f"{where}: {m['name']} differs between runs: {a} vs {b}")


def check_gate(failures: list[str]) -> None:
    proc = bench("--workload", "verify", "--inject-bug")
    result, _ = parse(proc)
    if proc.returncode != 1 or result["correct"] or result["failed"] != result["attempted"]:
        failures.append(
            f"verify --inject-bug: exit {proc.returncode}, {result['failed']} of "
            f"{result['attempted']} counted failed"
        )


def check_bare(failures: list[str]) -> None:
    """BENCHMARK.json and perfbench/ alone, with no library to run."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = bench("--workload", "lattice", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    failures: list[str] = []
    for workload in ("lattice", "bonding", "verify"):
        for trace in (0, 1):
            check_run(workload, trace, failures)
    check_gate(failures)
    check_bare(failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
