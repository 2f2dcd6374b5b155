"""Operation loop of one benchmark run, in a process of its own.

Usage: ``python3 worker.py SECONDS TRACE`` with a pickled ``workloads.Job``
on standard input; the pickled result goes to standard output. The set-up
ran in the parent, so this process's peak RSS covers the operations and
their inputs only.

One closed-loop client runs operations back to back, cycling through the
job's cases. The first ``warmup`` operations are checked but not timed.
Timing starts after them, in passes of ``pass_len`` operations, and the
loop stops at the first pass boundary after ``SECONDS`` once ``min_ops``
timed operations ran. With ``TRACE`` set, timed passes alternate between
untraced and traced, so the run can report the tracing overhead against
its own untraced operations, taken over the same stretch of time.
"""
from __future__ import annotations

import pickle
import resource
import sys
import time
import traceback
from contextlib import ExitStack


def run(job, seconds: float, trace: bool) -> dict:
    import spans
    from workloads import WORKLOADS, CheckFailed, naive_check
    workload = WORKLOADS[job.workload]
    tracer = spans.Tracer()
    records = []          # (case index, seconds, phase) per operation
    failed = {}           # operation index -> reason
    digests, dice = {}, {}
    kept = {}             # case index -> (operation index, maps) for naive_check
    phase = "warmup"
    traced_ops = 0
    with ExitStack() as stack:
        n = 0
        while True:
            timed = n - job.warmup
            if timed == 0:
                phase, start = "untraced", time.perf_counter()
            elif timed > 0 and timed % job.pass_len == 0:
                elapsed = time.perf_counter() - start
                if (elapsed >= seconds and timed >= job.min_ops
                        and (not trace or traced_ops)):
                    break
                if trace and phase == "untraced":
                    stack.enter_context(tracer.installed())
                    phase = "traced"
                elif trace:
                    stack.close()
                    phase = "untraced"
            i = n % len(job.cases)
            case = job.cases[i]
            t0 = time.perf_counter()
            try:
                try:
                    if phase == "traced":
                        output = tracer.unit(n, workload.op, case, job.out_dir)
                    else:
                        output = workload.op(case, job.out_dir)
                finally:
                    records.append((i, time.perf_counter() - t0, phase))
                    traced_ops += phase == "traced"
                digest, value = workload.check(case, output, job.out_dir)
                if digests.setdefault(i, digest) != digest:
                    raise CheckFailed("output differs from the first run of the same case")
                dice.setdefault(i, value)
                if i in job.naive_sample and i not in kept:
                    kept[i] = (n, output[0])
            except Exception as exc:  # a failed operation is counted, not fatal
                if not failed:
                    traceback.print_exc(file=sys.stderr)
                failed[n] = f"{type(exc).__name__}: {exc}"
            n += 1
    for i, (n, maps) in kept.items():
        try:
            naive_check(job.cases[i], maps)
        except Exception as exc:
            failed[n] = f"{type(exc).__name__}: {exc}"
    return {
        "records": records,
        "failed": failed,
        "dice": dice,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main() -> int:
    seconds, trace = float(sys.argv[1]), sys.argv[2] == "1"
    # Wait for the job before importing the library, so that this process
    # takes no processor time while the parent times its set-up.
    data = sys.stdin.buffer.read()
    job = pickle.loads(data)
    result = run(job, seconds, trace)
    sys.stdout.buffer.write(pickle.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
