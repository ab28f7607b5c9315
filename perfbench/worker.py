"""One run of one workload, in a process of its own.

``run.py`` starts this script once per workload, so ``peak_rss_mib`` belongs
to that workload alone.  It prints readable lines and, last, one JSON object
with the run's result.

A run first sets up several times in a row (import ``conceptual`` afresh,
generate and serialise the inputs) and reports the median as ``setup_s``; the
ops use the last set-up.  It then runs a fixed number of cycles, at least two;
a cycle is every input of the workload once.  Every op runs in a closed loop
with one client.  Between ops, outside the timed interval, both library
caches are cleared and garbage is collected, so each op sees what a fresh
``conceptual`` process sees.  Every timing is scaled to
a reference machine speed, measured around and during it (see REFERENCE_S).
With ``--trace 1`` the run does half the cycles untraced, installs the tracer
and repeats them traced.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

from tracer import COUNTERS, LAYERS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MODULES = ("classification", "relalg", "lattice", "functors", "bond", "io", "cli")
SETUP_REPS = 7
# Wall seconds one cycle takes, with its checks and speed probes, on a 2-core
# x86-64 VM under Python 3.11.  A run does round(seconds / this) cycles, at
# least two, so that it lasts about --seconds there.  The count is fixed by
# --seconds alone, so every run of a workload has the same number of op
# latencies and op_tail_s is always the same percentile.
CYCLE_S = {"lattice": 5.5, "bonding": 2.0, "verify": 8.5}
# The machine's speed.  On a shared machine the same code runs up to twice as
# slowly from one stretch of seconds to the next, and a slow stretch can
# outlast a run.  So just before and just after every timed interval the
# worker times a fixed reference loop of plain Python, and scales the
# interval by REFERENCE_S over the reference's mean time around it.
# REFERENCE_S is the reference loop's fastest time on an idle 2-core x86-64
# VM under Python 3.11, so a scaled time reads as seconds on that machine at
# its fastest.
REFERENCE_S = 0.0051
# The speed can change within an op, so the reference is also timed every
# PROBE_S seconds while an op or a set-up runs.  At 0.2 s the ops_per_s of
# bonding, whose ops take 0.04-0.3 s, spread by 6% over five seeds (IQR over
# median); at 0.05 s by 3% over ten.
PROBE_S = 0.05


def import_fresh():
    """Import ``conceptual`` as a new process would, from the checkout's src/."""
    for name in [k for k in sys.modules if k == "conceptual" or k.startswith("conceptual.")]:
        del sys.modules[name]
    package = importlib.import_module("conceptual")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "conceptual":
        raise SystemExit(f"error: imported conceptual from {package.__file__}, not src/")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"conceptual.{name}") for name in MODULES}
    )


def reference_loop() -> int:
    """Fixed plain-Python work, no library code: integer arithmetic and a dict."""
    table: dict[int, int] = {}
    x, acc = 0x9E3779B97F4A7C15, 0
    for _ in range(15_000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        key = x >> 52
        acc |= table.get(key, 0) & x
        table[key] = x ^ acc
    return acc


def reference_s() -> float:
    """The reference loop's time."""
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


def timed(fn, before: float, probe: bool = True):
    """``fn()``'s result, its wall time, that time scaled to the reference
    speed, and a reference time taken after it.

    ``before`` is a reference time taken just before.  With ``probe``, a
    timer signal interrupts ``fn`` every PROBE_S seconds to time the
    reference loop once; the interruptions are cut out of the wall time.
    Each stretch of ``fn`` between two reference times is scaled by
    REFERENCE_S over their mean.
    """
    probes = []  # (start, end, reference time) of each interruption

    def on_alarm(signum, frame):
        t = perf_counter()
        r = reference_s()
        probes.append((t, perf_counter(), r))

    if probe:
        signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_S, PROBE_S)
    t0 = perf_counter()
    try:
        out = fn()
    finally:
        if probe:
            signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = perf_counter()
    after = reference_s()
    starts = [t0] + [u for _, u, _ in probes]
    ends = [t for t, _, _ in probes] + [t1]
    refs = [before] + [r for _, _, r in probes] + [after]
    dt = scaled = 0.0
    for i, (a, b) in enumerate(zip(starts, ends)):
        dt += b - a
        scaled += (b - a) * REFERENCE_S * 2 / (refs[i] + refs[i + 1])
    return out, dt, scaled, after


def set_up(args, workdir: Path):
    """Import ``conceptual`` afresh, then generate and serialise the inputs."""
    gc.collect()

    def make():
        mods = import_fresh()
        extra = {"inject_bug": True} if args.inject_bug else {}
        return mods, WORKLOADS[args.workload](mods, args.seed, args.scale, workdir, **extra)

    (mods, workload), _, scaled, _ = timed(make, reference_s())
    return scaled, mods, workload


def run_cycles(mods, workload, cycles: int, tracer: Tracer | None = None) -> dict:
    ops = list(workload.ops())
    caches = {
        "lattice": mods.lattice.concept_lattice_of,
        "functors": mods.functors.complete_lattice_of,
    }
    hits = dict.fromkeys(caches, 0)
    misses = dict.fromkeys(caches, 0)
    latencies = []
    raw = []
    labels = []
    failed = 0
    before = reference_s()
    for cycle in range(cycles):
        for k, (label, run, check) in enumerate(ops):
            for cache in caches.values():
                cache.cache_clear()
            gc.collect()
            if tracer is not None:
                tracer.op_id = cycle * len(ops) + k

            def attempt(run=run):
                frame = tracer.push("op") if tracer is not None else None
                try:
                    return run()
                except Exception:
                    traceback.print_exc()
                    return None
                finally:
                    if tracer is not None:
                        tracer.pop(frame)

            # the probes' reference loops would land in the traced spans
            out, dt, scaled, before = timed(attempt, before, probe=tracer is None)
            latencies.append(scaled)
            raw.append(dt)
            labels.append(label)
            for key, cache in caches.items():
                info = cache.cache_info()
                hits[key] += info.hits
                misses[key] += info.misses
            try:
                ok = out is not None and check(out)
            except Exception:
                ok = False
                traceback.print_exc()
            if not ok:
                failed += 1
                print(f"# FAILED op {label}", file=sys.stderr)
    return {
        "latencies": latencies, "raw": raw, "labels": labels, "failed": failed,
        "hits": hits, "misses": misses, "cycles": cycles,
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, its value,
    and the sample count.

    With n sorted samples that is the (n - 10)-th; below 11 samples the
    maximum is reported as the 100th percentile.
    """
    xs = sorted(latencies)
    n = len(xs)
    j = n - 10 if n > 10 else n
    return 100.0 * j / n, xs[j - 1], n


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _cache_counts(stats: dict) -> dict:
    return {
        key: {
            "hits": stats["hits"][key] / stats["cycles"],
            "misses": stats["misses"][key] / stats["cycles"],
        }
        for key in stats["hits"]
    }


def end_to_end(setup: list[float], stats: dict) -> tuple[dict, str]:
    """End-to-end metrics over every op latency of the run, each scaled to the
    reference speed."""
    lat = stats["latencies"]
    pct, tail_value, n = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": n / sum(lat),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_value,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    note = (
        f"{n} op latencies ({n // stats['cycles']} ops a cycle, {stats['cycles']} cycles); "
        f"op_tail_s is p{pct:.1f} of them; setup_s is the median of {len(setup)} set-ups; "
        f"times are scaled to the reference speed; unscaled, ops_per_s is "
        f"{n / sum(stats['raw']):.4g} and op_p50_s {statistics.median(stats['raw']):.4g}"
    )
    return metrics, note


def per_layer(tracer: Tracer, stats: dict, counts: dict, untraced_s: float) -> dict:
    """Per-layer metrics per cycle, from the traced cycles.  Span times are
    scaled by the traced cycles' mean machine speed."""
    cycles = stats["cycles"]
    speed = sum(stats["latencies"]) / sum(stats["raw"])
    out: dict[str, float] = {}
    for name in list(LAYERS) + ["op"]:
        out[f"{name}.calls"] = tracer.calls.get(name, 0) / cycles
        out[f"{name}.self_s"] = tracer.self_s.get(name, 0.0) * speed / cycles
    for hooks in COUNTERS.values():
        for key, _ in hooks:
            out[key] = tracer.counters.get(key, 0) / cycles
    out["lattice.concepts_per_s"] = _ratio(
        out["lattice.concepts"] * cycles, tracer.total_s.get("lattice.build", 0.0) * speed
    )
    for prefix, key in (("lattice.cache", "lattice"), ("functors.complete_lattice.cache", "functors")):
        h, m = stats["hits"][key], stats["misses"][key]
        out[f"{prefix}.hits"] = h / cycles
        out[f"{prefix}.misses"] = m / cycles
        out[f"{prefix}.hit_ratio"] = _ratio(h, h + m)
    out["verify.records"] = sum(counts.get("records", {}).values())
    out["verify.failed_records"] = sum(counts.get("failed_records", {}).values())
    out["trace.overhead_ratio"] = sum(stats["latencies"]) / untraced_s - 1
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--inject-bug", action="store_true")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / f"inputs-{args.workload}-{os.getpid()}"
    cycles = max(2, round(args.seconds / CYCLE_S[args.workload]))
    try:
        setup = []
        for _ in range(SETUP_REPS):
            dt, mods, workload = set_up(args, workdir)
            setup.append(dt)
        if args.trace:
            untraced = run_cycles(mods, workload, max(1, cycles // 2))
            tracer = Tracer()
            tracer.install()
            stats = run_cycles(mods, workload, untraced["cycles"], tracer)
            counts = workload.counts()
            computed = per_layer(tracer, stats, counts, sum(untraced["latencies"]))
            counts["cache_per_cycle"] = _cache_counts(stats)
            tracer.write(OUT / f"spans-{args.workload}-{args.scale}-seed{args.seed}.json")
            note = f"per-layer values are per cycle, over {stats['cycles']} traced cycle(s)"
            attempted = len(untraced["latencies"]) + len(stats["latencies"])
            failed = untraced["failed"] + stats["failed"]
        else:
            stats = run_cycles(mods, workload, cycles)
            counts = workload.counts()
            counts["cache_per_cycle"] = _cache_counts(stats)
            computed, note = end_to_end(setup, stats)
            attempted = len(stats["latencies"])
            failed = stats["failed"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in computed]
    if missing:
        raise SystemExit(f"error: metrics not computed: {missing}")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "cycles": stats["cycles"],
        "scale": args.scale,
    }
    print(f"# env {json.dumps(env)}")
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']} {m['unit']}")
    print(f"{args.workload} fail_ratio {failed / attempted} ({failed} failed of {attempted} ops)")
    print(f"# {note}")
    print(f"# counts {json.dumps(counts, sort_keys=True)}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(
            {
                "env": env,
                "counts": counts,
                "result": result,
                "setup_s": setup,
                "ops": list(zip(stats["labels"], stats["latencies"], stats["raw"])),
            },
            fh,
            indent=1,
            sort_keys=True,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
