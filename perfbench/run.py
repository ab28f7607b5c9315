"""Benchmark entry point.

    python3 perfbench/run.py [--workload lattice|bonding|verify|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Runs each named workload in a fresh child process, one at a time, and relays
its readable lines.  For each workload the last line printed is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json, or with ``--trace 1`` its per-layer
metrics).  Exits non-zero, printing no result, when the library sources are
missing or a run fails; exits 1 after the result when an output was wrong.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("lattice", "bonding", "verify")


# a child is stopped when it runs past two minutes plus four times --seconds;
# a run lasts about --seconds, or two cycles of at most 9 s when that is longer
CHILD_GRACE_S = 120


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description="Run the conceptual benchmark.")
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the self-test")
    p.add_argument("--inject-bug", action="store_true",
                   help="verify workload only: run with --inject-bug to show the gate firing")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "conceptual" / "__init__.py").is_file():
        print(f"error: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    all_correct = True
    for name in names:
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale,
        ] + (["--inject-bug"] if args.inject_bug else [])
        timeout = CHILD_GRACE_S + 4 * args.seconds
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            print(f"error: workload {name} ran past {timeout} s", file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout)
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        print(json.dumps(result), flush=True)
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
