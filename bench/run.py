"""fueterlab benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-spec      # regenerate BENCHMARK.json

A run starts the workers of worker.py one after another, never two at once.
Untraced, each worker sets the workload up and runs one pass; workers are
started until they have filled the run's seconds, set-up included, three at
least.
The run reports the median pass wall and CPU time, the median set-up time,
the largest peak RSS and the share of operations whose output passed its
check.  Traced, one worker alternates untraced and traced passes and the run
reports the per-layer metrics, averaged over the traced passes.  Every
metric is printed by name with its unit; the last line of standard output
is the JSON result.

Stdlib only, so that this process stays small and its children's peak
memory is their own.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
MIN_WORKERS = 3  # set-ups per untraced run, at least
RUN_SECONDS = 50
RUN_LIMIT_S = 170.0

WORKLOADS = [
    ("dense_grid",
     "the same field stored at 33^4 (in cache): FLD1 save/load, energy, W21 norm and a radius "
     "sweep; values are read, not computed, so evaluation changes stay flat here"),
    ("cli_cold",
     "five fresh CLI processes in turn: import, cold caches, the norms thread pool, the "
     "Poisson solver, quantize and JSON output, with FUETERLAB_THREADS left as inherited"),
]
# Run when named but not listed in BENCHMARK.json, because ten runs of each
# spread past the bound on a shared 2-core host: stream_ball's matrix
# products use both cores, so a busy moment on either stalls them, and
# bubble_quantize's pass time moved with the host's speed.  cli_cold still
# reaches their layers: `monotonicity` evaluates a function-backed grid
# through the ball passes, and `extract-bubbles` runs quantize.
BY_HAND = [
    ("stream_ball",
     "function-backed grids: monotonicity defect at 49 and 65 nodes and the 625-centre eps "
     "scan; polynomial evaluation, ball gathers and per-centre slab re-evaluation"),
    ("bubble_quantize",
     "quantize at l=11,12 on the two- and three-bubble manifests: slice quadrature, 9x9 "
     "maximal function and Lorentz sorts, no grid field"),
]

END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
    ("ok_frac", "ratio", "higher", 0.01),
]

ENV_VARS = ("FUETERLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def write_spec():
    spec = {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u,
                       "better": "higher" if n == "bubbletree.slice_admissible_frac" else "lower"}
                      for n, u in spans.LAYER_METRICS],
    }
    SPEC.write_text(json.dumps(spec, indent=2) + "\n")


def source_id():
    """git commit when the checkout is a repository, else a digest of src/."""
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            return {"git_sha": proc.stdout.strip()}
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": None, "src_sha256": digest.hexdigest()}


def run_worker(args, index, seconds, deadline):
    out = OUT / f"report-{args.workload}-seed{args.seed}-t{args.trace}-{index}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
           "--out", str(out)]
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and the CLI child it waits on
        proc.wait()
        raise SystemExit(f"worker {index} overran the run limit of {RUN_LIMIT_S:.0f} s")
    if code != 0 or not out.is_file():
        raise SystemExit(f"worker {index} exited with code {code} and no report")
    return json.loads(out.read_text())


def aggregate(reports, trace):
    passes = [p for r in reports for p in r["passes"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    plain = [p for p in passes if not p["traced"]]
    if not trace:
        metrics = {
            "wall_s": statistics.median(p["wall"] for p in plain),
            "cpu_s": statistics.median(p["cpu"] for p in plain),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "ok_frac": (attempted - failed) / attempted,
        }
        units = {n: u for n, u, _, _ in END_TO_END}
    else:
        traced = [p["layers"] for p in passes if p["traced"]]
        metrics = {n: statistics.fmean(t[n] for t in traced)
                   for n, _ in spans.LAYER_METRICS if n != "trace.overhead_frac"}
        plain_wall = statistics.fmean(p["wall"] for p in plain)
        metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / plain_wall - 1.0
        metrics = {n: metrics[n] for n, _ in spans.LAYER_METRICS}
        units = dict(spans.LAYER_METRICS)
    summary = {"passes": len(plain), "traced_passes": len(passes) - len(plain),
               "workers": len(reports)}
    metrics = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    return attempted, failed, metrics, summary


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[n for n, _ in WORKLOADS + BY_HAND])
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    args = p.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None or args.seed is None:
        p.error("--workload and --seed are required")
    if not (ROOT / "src" / "fueterlab" / "__init__.py").is_file():
        sys.stderr.write(f"no fueterlab sources under {ROOT / 'src'}; nothing to measure\n")
        return 2
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be between 1 and 60")

    started = time.monotonic()
    env = {
        "load_average_at_start": os.getloadavg(),
        "machine": platform.machine(),
        "inherited_env": {k: os.environ.get(k) for k in ENV_VARS},
        **source_id(),
    }
    OUT.mkdir(exist_ok=True)
    deadline = started + RUN_LIMIT_S
    if args.trace:
        reports = [run_worker(args, 0, args.seconds, deadline)]
    else:
        # One pass per worker process.  A pass's time varies more between
        # processes than between passes of one process, so the median is
        # taken over as many processes as the run has time for.
        # A worker's time counts whole, set-up included, so that a run lasts
        # about --seconds however fast the host is.
        reports, worker_s = [], []
        while (len(reports) < MIN_WORKERS
               or sum(worker_s) + statistics.median(worker_s) <= args.seconds):
            t0 = time.monotonic()
            reports.append(run_worker(args, len(reports), 0.0, deadline))
            worker_s.append(time.monotonic() - t0)
    env.update(reports[0]["environment"])
    attempted, failed, metrics, summary = aggregate(reports, args.trace)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"environment": env, "summary": summary, "reports": reports,
                    "result": result}, indent=1))
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{summary['passes']} untraced and {summary['traced_passes']} traced passes "
          f"from {summary['workers']} worker(s), {attempted} operations, {failed} failed")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
