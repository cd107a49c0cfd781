"""panostitch benchmark: one closed-loop client runs one workload's jobs.

    python3 perfbench/run.py --workload stitch_dense --seed 1 --seconds 30 --trace 0

Run from any directory; the program is imported from the `src/` tree
next to this directory. With --trace 0 the last stdout line holds the
end-to-end metrics; with --trace 1 it holds the per-module metrics of a
traced run. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

T_PROCESS_START = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("stitch_dense", "stitch_match_heavy", "compose_eval")
SETUP_REPS = 3
MIN_JOBS = 11          # the tail percentile needs 10 jobs beyond it
MIN_TRACED_JOBS = 3
HARD_STOP_S = 150.0    # end the loop early so the process exits inside 180 s
TAIL_BEYOND = 10
THREAD_ENV = ("PANOSTITCH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="'all' runs every workload untraced, then traced")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def tail_percentile(times: list[float]) -> tuple[int, float]:
    """Highest integer percentile with at least TAIL_BEYOND jobs above its
    nearest-rank value. With too few jobs for any, the maximum (p100)."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return 100, max(times)
    p = 100 * (n - TAIL_BEYOND) // n
    rank = max(1, -(-p * n // 100))          # nearest rank, ceil(p n / 100)
    return p, sorted(times)[rank - 1]


def git_commit() -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "panostitch").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fresh_import_s() -> float:
    """Wall time of `import panostitch` in a new interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import panostitch"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def header(args, np, scipy) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "load": "closed loop, 1 client",
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
            "git_commit": git_commit(), "src_sha256": src_digest()}


def _timed(call, *args) -> tuple[float, list[str]]:
    """(seconds, failures) of one job; an exception is one failure."""
    t0 = time.perf_counter()
    try:
        return call(*args)
    except Exception:   # a broken job is counted, not fatal to the run
        return time.perf_counter() - t0, [traceback.format_exc(limit=2)
                                          .strip().splitlines()[-1]]


def run_jobs(wl, args, tracer) -> dict:
    """Closed loop: the next job starts when the previous one returns.

    Untraced: each iteration is one CLI/library job. Traced: each
    iteration is the untraced job followed by its traced replay. The loop
    ends on a whole cycle of the workload's scenes, so every run weighs
    each scene alike, and holds at least min_jobs jobs.
    """
    untraced, traced, failed = [], [], []
    min_jobs = MIN_TRACED_JOBS if args.trace else MIN_JOBS
    t_loop = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        if now - T_PROCESS_START > HARD_STOP_S:
            break
        cycles = i // wl.cycle
        if i >= min_jobs and i % wl.cycle == 0 and cycles:
            # End on the cycle boundary nearest to --seconds.
            elapsed = now - t_loop
            if elapsed + elapsed / cycles / 2 >= args.seconds:
                break
        tracer.job = f"job{i}"
        dt, fails = _timed(wl.job, i)
        untraced.append(dt)
        if args.trace and not fails:
            dt, fails = _timed(wl.traced_job, i, tracer)
            traced.append(dt)
        if fails:
            failed.append({"job": wl.job_name(i), "failures": fails})
        i += 1
    return {"attempted": i, "failed": failed, "untraced": untraced, "traced": traced,
            "loop_s": time.perf_counter() - t_loop}


def end_to_end(res: dict, setup_times: list[float]) -> dict:
    times = res["untraced"]
    ok = res["attempted"] - len(res["failed"])
    p, tail = tail_percentile(times)
    return {
        "job_p50_s": {"value": statistics.median(times), "unit": "s", "n": len(times)},
        "job_tail_s": {"value": tail, "unit": "s", "n": len(times), "percentile": p},
        "jobs_per_s": {"value": ok / res["loop_s"], "unit": "1/s", "n": ok,
                       "loop_s": res["loop_s"]},
        "ok_frac": {"value": ok / res["attempted"], "unit": "frac", "n": res["attempted"]},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s",
                    "n": len(setup_times)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        * 1024 / 1e6, "unit": "MB", "n": 1},
    }


def main() -> int:
    args = parse_args(sys.argv[1:])
    if "PYTHONHASHSEED" not in os.environ:
        # With randomized str hashing, peak RSS on stitch_dense lands at
        # about 138 or 151 MB at random; any fixed hash seed gives 138.
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                   *sys.argv[1:]], {**os.environ, "PYTHONHASHSEED": "0"})
    if not (SRC / "panostitch" / "__init__.py").is_file():
        print(f"error: panostitch sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                 "--workload", w, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", str(t)]).returncode
                 for w in WORKLOADS for t in (0, 1)]
        return max(codes)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy
    import panostitch
    if Path(panostitch.__file__).resolve().parent != (SRC / "panostitch").resolve():
        print(f"error: imported panostitch from {panostitch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    hdr = header(args, np, scipy)
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPS):
            shutil.rmtree(work, ignore_errors=True)
            t_import = fresh_import_s()
            t0 = time.perf_counter()
            tracer.job = "setup"
            wl = workloads.make(args.workload, args.seed, work)
            wl.setup(tracer)
            setup_times.append(t_import + time.perf_counter() - t0)
        _timed(wl.job, 0)   # warm-up, not counted: first-call costs are paid once per process
        res = run_jobs(wl, args, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = spans.layer_metrics(tracer.spans)
        traced, untraced = res["traced"], res["untraced"]
        metrics["trace.overhead_frac"] = {
            "value": statistics.median(traced) / statistics.median(untraced) - 1.0
            if traced else 0.0, "unit": "frac", "n": len(traced)}
    else:
        metrics = end_to_end(res, setup_times)

    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>14.6g} {m['unit']:6s} n={m['n']}")
    for f in res["failed"]:
        print(f"FAILED {f['job']}: {'; '.join(f['failures'])}")
    detail = {"header": hdr, "metrics": metrics, "failed_jobs": res["failed"],
              "setup_s_each": setup_times}
    print(json.dumps(detail, default=float))
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    record = dict(detail, job_s=res["untraced"], traced_job_s=res["traced"])
    if args.trace:
        record.update(span_summary=spans.span_summary(tracer.spans), spans=tracer.spans)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, default=float))

    print(json.dumps({
        "correct": not res["failed"], "attempted": res["attempted"],
        "failed": len(res["failed"]),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
