"""switchq benchmark: run one workload for a fixed time, check its outputs, print its metrics.

    python3 benchmarks/run.py --workload {sweep,saturated,exact} --seed N --seconds S --trace {0,1}

Run from the repository root; switchq is imported from ./src.  The run
repeats the workload ("reps") until S seconds are spent, at least
MIN_REPS times, in this one single-threaded process.  Each rep's inputs
derive from the seed and the rep index only.

--trace 0 reports the end-to-end metrics: setup_s (median of SETUP_PROBES
fresh processes, each timed from its start to inputs built), wall_s
(median rep time to checked outputs), both in process CPU time scaled to
nominal host speed by the reference job of reference.py, and peak_rss_mb
(getrusage).  The reps run single-threaded in this process, so their CPU
time is their wall-clock time less the time the host did not schedule
them; the wall-clock medians are printed beside.  --trace 1 alternates
untraced and traced reps and reports the per-layer metrics of tracer.py,
medians over the traced reps, plus trace.overhead_s (traced minus untraced
median wall_s).

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The full
run record (per-rep times, CSV digests, findings, spans) is written to
benchmarks/out/.  Exits 1 without a result when the switchq sources or an
entry point the workloads need are missing.
"""

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS/OpenMP thread for this process and the probes it starts; set
# before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import reference  # noqa: E402  (imports numpy; this directory is sys.path[0])

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT = BENCH_DIR / "out"

MIN_REPS = 3  # per kind (untraced, traced) so each median has a middle
SETUP_PROBES = 7


def _import_program():
    """Import switchq from ./src and the benchmark modules; exit 1 if anything is missing."""
    if not (SRC / "switchq" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no switchq sources at {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import switchq

    if Path(switchq.__file__).resolve().parent != (SRC / "switchq").resolve():
        raise SystemExit(f"run.py: switchq imported from {switchq.__file__}, not from {SRC}")
    import tracer
    import workloads

    for entry in workloads.ENTRY_POINTS:
        module, attr = entry.rsplit(".", 1)
        if not hasattr(importlib.import_module(module), attr):
            raise SystemExit(f"run.py: entry point {entry} is missing")
    return workloads, tracer


def _setup_seconds(workload: str, seed: int) -> list[tuple[float, float, float]]:
    """(wall-clock time, reference time around it, CPU time) from start to ready of fresh set-up probes."""
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    out, ref_before = [], reference.seconds()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(probe, check=True, timeout=120, capture_output=True, text=True)
        # the probe prints perf_counter() (system-wide on Linux) and its CPU
        # time once its inputs are built; waiting for its exit would add
        # polling delay
        stamp, cpu = map(float, done.stdout.split())
        elapsed = stamp - start
        ref_after = reference.seconds()
        out.append((elapsed, (ref_before + ref_after) / 2, cpu))
        ref_before = ref_after
    return out


def _run_reps(workloads, tracer_mod, workload: str, seed: int, seconds: float, trace: bool):
    tracer = tracer_mod.Tracer()
    reps = []
    OUT.mkdir(exist_ok=True)
    start = time.perf_counter()
    ref = reference.seconds()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        while True:
            index = len(reps)
            traced = trace and index % 2 == 1
            inputs = workloads.build_inputs(workload, seed, index)
            workloads.clear_caches()
            if traced:
                tracer.install()
            scope = tracer.root_span(f"rep{index}") if traced else contextlib.nullcontext()
            rep_start = time.perf_counter()
            timer = reference.SegmentTimer(ref)
            try:
                with scope:
                    res = workloads.run_rep(workload, inputs, Path(tmp), timer.lap)
                    timer.lap(final=True)
            finally:
                if traced:
                    tracer.remove()
            ref = timer.ref
            reps.append({
                "rep": index, "traced": traced, "wall_s": timer.raw, "scaled_s": timer.scaled,
                "cpu_s": timer.cpu, "segments": timer.segments,
                "attempted": res.attempted, "failed": res.failed, "slots": res.slots,
                "digests": res.digests, "findings": res.findings, "failures": res.failures[:20],
                "layers": tracer.rep_metrics(workload) if traced else None,
            })
            kinds = (False, True) if trace else (False,)
            enough = all(sum(r["traced"] == k for r in reps) >= MIN_REPS for k in kinds)
            now = time.perf_counter()
            if enough and now - start + (now - rep_start) > seconds:
                break
    return reps, tracer


def fingerprint() -> dict:
    """nproc, usable CPUs, interpreter and numpy versions, CPU model and cache sizes.

    The CPU model and caches are read, read-only, from /proc/cpuinfo and
    /sys/devices/system/cpu where they exist.
    """
    import numpy

    info = {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__, "machine": platform.machine()}
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            key, _, value = (part.strip() for part in line.partition(":"))
            if key in ("model name", "cache size") and key not in info:
                info[key] = value
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    if caches:
        info["caches"] = caches
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "saturated", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads, tracer_mod = _import_program()

    setup = [] if args.trace else _setup_seconds(args.workload, args.seed)
    reps, tracer = _run_reps(workloads, tracer_mod, args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    plain = [r for r in reps if not r["traced"]]
    wall = statistics.median(r["scaled_s"] for r in plain)
    findings: dict[str, float] = {}
    for r in reps:
        for key, value in r["findings"].items():
            merge = max if key.startswith("max_") else (lambda a, b: a + b)
            findings[key] = merge(findings.get(key, 0), value)

    if args.trace:
        traced = [r for r in reps if r["traced"]]
        values = tracer_mod.median_metrics([r["layers"] for r in traced])
        values["trace.overhead_s"] = statistics.median(r["scaled_s"] for r in traced) - wall
        units = dict(tracer_mod.metric_names())
        metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(reference.scale(cpu, ref) for _, ref, cpu in setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    summary = dict(metrics)
    summary["wall_raw_s"] = {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"}
    summary["wall_cpu_s"] = {"value": statistics.median(r["cpu_s"] for r in plain), "unit": "s"}
    if setup:
        summary["setup_raw_s"] = {"value": statistics.median(raw for raw, _, _ in setup), "unit": "s"}
        summary["setup_cpu_s"] = {"value": statistics.median(cpu for _, _, cpu in setup), "unit": "s"}
    if any(r["slots"] for r in plain):
        summary["slots_per_s"] = {"value": statistics.median(r["slots"] / r["scaled_s"] for r in plain),
                                  "unit": "slots/s"}
    summary["failed_frac"] = {"value": failed / attempted, "unit": "share of checked operations"}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "fingerprint": fingerprint(), "setup_probe_s": setup, "metrics": summary,
        "findings": findings, "absent_layers": tracer.absent, "reps": reps,
        "spans": [dict(zip(("id", "parent", "name", "start_s", "end_s"), s)) for s in tracer.spans],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, {len(plain)} untraced + "
          f"{len(reps) - len(plain)} traced reps in one process")
    for name, m in summary.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  checked operations: {attempted}, failed: {failed}")
    for key, value in sorted(findings.items()):
        print(f"  finding (not gated) {key}: {value}")
    if tracer.absent:
        print(f"  absent from the program: {', '.join(tracer.absent)}")
    for r in reps:
        for what in r["failures"]:
            print(f"  FAILED rep {r['rep']}: {what}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
