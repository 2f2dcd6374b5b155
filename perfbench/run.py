"""texturedge benchmark: one run of one workload.

    python3 perfbench/run.py --workload {film,roi_sweep,descriptor_maps} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a source tree; it imports the library from
``src/`` there and nowhere else, and exits with code 2 when that is
missing. Set-up runs ``SETUPS`` times in this process and ``setup_s`` is
their median; the operations then run in ``worker.py``, a child process,
for ``--seconds``. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A fuller record of the run (machine, library versions, git commit,
failures) goes to ``.bench_out/results/`` and, when traced, the spans to
``.bench_out/trace/``.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 3
# a run must end within 180 s; the worker gets what set-up left of this
RUN_DEADLINE_S = 170.0

END_TO_END = [  # (metric, unit)
    ("setup_s", "s"),
    ("op_s_p50", "s"),
    ("op_s_p90", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def _git_sha(root: Path):
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    return None


def _declared_names(root: Path, key: str):
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return None
    return {m["name"] for m in json.loads(path.read_text())[key]}


def _start_worker(seconds: int, trace: bool) -> subprocess.Popen:
    """Start the worker before this process grows: a child's peak RSS starts
    from its parent's RSS at fork time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(seconds), "1" if trace else "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env)


def end_to_end(setup_times, result) -> dict:
    times = [dt for _, dt, phase in result["records"] if phase != "warmup"]
    return {
        "setup_s": statistics.median(setup_times),
        "op_s_p50": statistics.median(times),
        "op_s_p90": statistics.quantiles(times, n=10, method="inclusive")[-1],
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def trace_overhead(records) -> float:
    """Median traced operation time over the median untraced one, minus 1."""
    untraced = [dt for _, dt, phase in records if phase == "untraced"]
    traced = [dt for _, dt, phase in records if phase == "traced"]
    return statistics.median(traced) / statistics.median(untraced) - 1.0


def _set_up(setup, args, work: Path, tracer):
    """Run the workload's set-up ``SETUPS`` times; returns (times, last job)."""
    times = []
    for k in range(SETUPS):
        shutil.rmtree(work, ignore_errors=True)
        t0 = time.perf_counter()
        if args.trace:
            job = tracer.unit(f"setup{k}", setup, args.seed, work)
        else:
            job = setup(args.seed, work)
        times.append(time.perf_counter() - t0)
    return times, job


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (SRC / "texturedge" / "__init__.py").is_file():
        print(f"perfbench: no texturedge sources under {SRC}", file=sys.stderr)
        return 2
    worker = _start_worker(args.seconds, bool(args.trace))
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        # imported only now: the library comes from SRC, and the worker has
        # already started (see _start_worker)
        sys.path.insert(0, str(SRC))
        import numpy
        import scipy
        import spans
        import texturedge
        import workloads
        if Path(texturedge.__file__).resolve().parent != SRC / "texturedge":
            print(f"perfbench: imported texturedge from {texturedge.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
        if args.trace:
            names = [m[0] for m in spans.PER_LAYER] + ["trace.overhead_share"]
        else:
            names = [m for m, _ in END_TO_END]
        declared = _declared_names(ROOT, "per_layer" if args.trace else "end_to_end")
        if declared is not None and declared != set(names):
            print(f"perfbench: metrics {sorted(set(names) ^ declared)} differ between "
                  f"the code and BENCHMARK.json", file=sys.stderr)
            return 1
        tracer = spans.Tracer()
        with tracer.installed() if args.trace else nullcontext():
            setup_times, job = _set_up(workloads.WORKLOADS[args.workload].setup,
                                       args, work, tracer)
        out, _ = worker.communicate(pickle.dumps(job),
                                    timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if worker.poll() is None:
            worker.kill()
        worker.wait()
        shutil.rmtree(work, ignore_errors=True)
    if worker.returncode != 0:
        print(f"perfbench: worker exited with code {worker.returncode}", file=sys.stderr)
        return 1
    result = pickle.loads(out)

    attempted = len(result["records"])
    failed = len(result["failed"])
    dice = [d for d in result["dice"].values() if d is not None]
    dice_mean = statistics.fmean(dice) if dice else None
    merged = spans.merge(tracer.spans, result["spans"])
    if args.trace:
        values = spans.layer_metrics(merged, {**tracer.counts, **result["counts"]})
        values["trace.overhead_share"] = trace_overhead(result["records"])
        units = {m[0]: m[1] for m in spans.PER_LAYER}
        units["trace.overhead_share"] = "ratio"
    else:
        values = end_to_end(setup_times, result)
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "failures": result["failed"],
        "dice_mean": dice_mean,
        "setup_times_s": setup_times, "metrics": metrics,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": numpy.__version__, "scipy": scipy.__version__,
                    "git_sha": _git_sha(ROOT)},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / "trace").mkdir(parents=True, exist_ok=True)
        with open(OUT / "trace" / f"{tag}.jsonl", "w") as f:
            for s in merged:
                f.write(json.dumps(s._asdict()) + "\n")

    print(f"{args.workload} seed {args.seed}: {attempted} operations, {failed} failed "
          f"(failed_ratio {failed / attempted!r}); machine {json.dumps(record['machine'])}")
    for reason in sorted(set(result["failed"].values()))[:5]:
        print(f"  failure: {reason}")
    if dice_mean is not None:
        print(f"  dice_mean over {len(dice)} cases = {dice_mean!r} (not a BENCHMARK.json metric)")
    for name in names:
        print(f"  {name} = {values[name]!r} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
