"""One benchmark worker: it sets up one workload, runs passes over the
workload's fixed list of operations until its time budget is spent, checks
every output, and writes a JSON report.  `run.py` starts the workers one
after another and aggregates their reports.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE

Each pass is a closed loop with one client: an operation starts only after
the previous one has returned.  Checks run after the pass, outside its timed
region, and a failed check fails its operation, not the run.  With --trace 1
the passes alternate between untraced and traced, so the report holds both
the per-layer metrics and the untraced times they are set against.

`--write-reference` runs one pass at the default seed and stores the outputs
in reference.json, which later runs at that seed are compared against.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Callable  # noqa: E402

import spans  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 3
REFERENCE_RTOL = 1e-9
CHILD_TIMEOUT_S = 150.0

sys.path.insert(0, str(SRC))


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    """One operation of a pass.  `run(tracer)` does the work (tracer is None
    on untraced passes); `check(result)` raises on a wrong result and returns
    the numbers compared against the frozen reference."""

    name: str
    run: Callable[[Any], Any]
    check: Callable[[Any], dict]


def _increasing_with_small_defects(ratios, defects, where):
    """Monotonicity formula on a radius sweep: the energy ratio grows with r
    and each annulus defect is a small share of the ratio increase."""
    require(all(math.isfinite(v) for v in list(ratios) + list(defects)),
            f"{where}: non-finite ratio or defect")
    for k in range(1, len(ratios)):
        rise = ratios[k] - ratios[k - 1]
        require(rise > 0, f"{where}: ratio falls between radii {k - 1} and {k}")
        require(abs(defects[k]) <= 0.05 * rise,
                f"{where}: defect {defects[k]:.3e} exceeds 5% of the ratio rise {rise:.3e}")


def check_round_trip(u, v):
    """A field loaded back from FLD1 equals the saved one bit for bit."""
    require((v.m, v.n, v.domain, v.L, v.shape) == (u.m, u.n, u.domain, u.L, u.shape),
            "FLD1 header does not round-trip")
    require(v.values.tobytes() == u.values.tobytes(), "FLD1 values do not round-trip bit-exactly")
    return {}


# ---------------------------------------------------------------------------
# workloads


class StreamBall:
    """Function-backed grids only: the flat monotonicity defect at the centre
    on 49 and 65 nodes, then the eps-regularity scan over 625 centres on 17
    nodes with eps0 at the median ratio, so half of them are flagged."""

    in_process = True
    NODES = (49, 65)
    SCAN_NODES = 17
    S, R, R_SCAN = 0.1, 0.4, 0.1

    def __init__(self, seed, workdir):
        import numpy as np
        from fueterlab import fields, monotone

        self.seed = seed
        self.poly = fields.standard_triholomorphic_field(seed=seed, degree=4)
        self.grids = {
            n: fields.GridField.from_function(self.poly, 1, 1, n, domain="box", L=0.5)
            for n in self.NODES + (self.SCAN_NODES,)
        }
        # calibration, which doubles as the warm-up: the ratio at every centre
        calib = monotone.eps_regularity_scan(self.grids[self.SCAN_NODES], 0.0, self.R_SCAN)
        self.ratios = sorted(r for _, r in calib.unflagged)
        self.eps0 = statistics.median(self.ratios)
        self.flagged = sum(r < self.eps0 for r in self.ratios)
        # Monte Carlo estimate of the energy ratio at R from the analytic
        # jacobian: the scale the O(h) monotonicity defect is held against
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-self.R, self.R, size=(20000, 4))
        pts = pts[np.linalg.norm(pts, axis=1) <= self.R]
        du_sq = np.sum(self.poly.jacobian(pts) ** 2, axis=(1, 2))
        self.ratio_R = float(du_sq.mean()) * (math.pi**2 / 2) * self.R**2

    def ops(self):
        import numpy as np
        from fueterlab import monotone

        zero = np.zeros(4)
        out = []
        for n in self.NODES:
            u = self.grids[n]
            out.append(Op(
                f"defect{n}",
                lambda tracer, u=u: monotone.monotonicity_defect(u, zero, self.S, self.R),
                functools.partial(self.check_defect, u),
            ))
        scan_grid = self.grids[self.SCAN_NODES]
        out.append(Op(
            "scan",
            lambda tracer: monotone.eps_regularity_scan(scan_grid, self.eps0, self.R_SCAN),
            self.check_scan,
        ))
        return out

    def check_defect(self, u, defect):
        require(math.isfinite(defect), "defect is not finite")
        require(abs(defect) <= 0.01 * self.ratio_R,
                f"defect {defect:.3e} exceeds 1% of the ratio at R, {self.ratio_R:.3e}")
        self.check_streamed(u)
        return {"defect": defect}

    def check_streamed(self, u):
        """Values of a whole slab, evaluated the way the ball passes stream
        them, agree with the product-form reference at sampled nodes."""
        import numpy as np

        rng = np.random.default_rng(self.seed)
        c = u.axis_coords()
        N = len(c)
        rest = np.stack(np.meshgrid(c, c, c, indexing="ij"), axis=-1)
        slab = np.concatenate([np.full(rest.shape[:-1] + (1,), c[rng.integers(N)]), rest],
                              axis=-1)
        streamed = u.evaluate(slab)
        pick = tuple(rng.integers(0, N, size=(3, 256)))
        want = self.poly.value_direct(slab[pick])
        err = np.abs(streamed[pick] - want).max() / np.abs(want).max()
        require(err <= 1e-12, f"streamed values differ from value_direct by {err:.1e} relative")

    def check_scan(self, rep):
        got = sorted([r for _, r, _ in rep.flagged] + [r for _, r in rep.unflagged])
        require(got == self.ratios, "scan ratios differ from the set-up calibration")
        require(len(rep.flagged) == self.flagged,
                f"{len(rep.flagged)} centres flagged, expected {self.flagged}")
        require(rep.violations == 0, f"{rep.violations} gradient-estimate violations")
        return {"flagged": len(rep.flagged), "ratio_sum": math.fsum(got),
                "sup_sum": math.fsum(s for _, _, s in rep.flagged)}


class DenseGrid:
    """The same field materialized at 33^4: FLD1 save and load, Dirichlet
    energy, W^{2,1} norm and a radius sweep, all on stored values."""

    in_process = True
    RADII = [0.1, 0.2, 0.3, 0.4]

    def __init__(self, seed, workdir):
        from fueterlab import fields

        source = workdir / "input.fld1"
        write_input_field(seed, source)
        self.u = fields.load_fld1(source)
        self.path = workdir / "pass.fld1"
        # warm-up: the same operations on every other node (17^4)
        small = fields.GridField.from_array(self.u.values[::2, ::2, ::2, ::2], 1, 1,
                                            domain="box", L=self.u.L)
        for op in self._ops(small, self.RADII[:2]):
            op.run(None)

    def ops(self):
        return self._ops(self.u, self.RADII)

    def _ops(self, u, radii):
        import numpy as np
        from fueterlab import fields, monotone, poisson

        state = {}

        def load(tracer):
            state["v"] = fields.load_fld1(self.path)
            return state["v"]

        return [
            Op("save", lambda tracer: fields.save_fld1(u, self.path),
               lambda _: self.check_saved(u)),
            Op("load", load, functools.partial(check_round_trip, u)),
            Op("energy", lambda tracer: fields.dirichlet_energy(state["v"]),
               self.check_positive("energy")),
            Op("w21", lambda tracer: poisson.w21_norm(state["v"]), self.check_positive("w21")),
            Op("profile", lambda tracer: monotone.ratio_profile(state["v"], np.zeros(4), radii),
               self.check_profile),
        ]

    def check_saved(self, u):
        size = self.path.stat().st_size
        with open(self.path, "rb") as f:
            header = len(f.readline())
        require(size == header + u.values.nbytes,
                f"FLD1 file holds {size} bytes, expected {header + u.values.nbytes}")
        return {"payload_bytes": size - header}

    @staticmethod
    def check_positive(name):
        def check(value):
            require(math.isfinite(value) and value > 0,
                    f"{name} {value!r} is not finite and positive")
            return {name: value}

        return check

    def check_profile(self, prof):
        _increasing_with_small_defects(prof.ratios, prof.defects, "ratio_profile")
        return {"ratios": list(prof.ratios), "radial_terms": list(prof.radial_terms),
                "defects": list(prof.defects)}


class BubbleQuantize:
    """quantize at l = 11, 12 on the bundled two- and three-bubble manifests."""

    in_process = True
    MANIFESTS = ("two", "three")
    ELLS = [11, 12]

    WARMUP_ELLS = [3, 4]

    def __init__(self, seed, workdir):
        from fueterlab import bubbletree, cli

        # seed 3 gives the bundled default sequence seed 5
        self.seqs = {name: cli.bundled_sequence(name, seed=seed + 2) for name in self.MANIFESTS}
        # warm-up: the whole pipeline once, at smaller member indices
        bubbletree.quantize(self.seqs["two"], self.WARMUP_ELLS, bubbletree.QuantizeConfig())

    def ops(self):
        from fueterlab import bubbletree

        def run(seq, tracer):
            return bubbletree.quantize(seq, self.ELLS, bubbletree.QuantizeConfig())

        return [Op(f"quantize_{name}", functools.partial(run, seq),
                   functools.partial(self.check_quantized, seq))
                for name, seq in self.seqs.items()]

    @staticmethod
    def check_quantized(seq, result):
        tree, rep = result
        count = len(seq.manifest.energies)
        theta = rep["theta"]
        require(rep["theta_reliable"], "theta extrapolation unreliable")
        require(rep["bubble_count"] == count,
                f"{rep['bubble_count']} bubbles, manifest has {count}")
        require(tree.depth() == count - 1, f"tree depth {tree.depth()}, expected {count - 1}")
        require(rep["abs_gap"] <= 0.02 * theta, f"energy gap {rep['abs_gap']:.3e} exceeds 2% theta")
        require(rep["residual_neck_energy"] <= 0.05 * theta,
                f"neck residual {rep['residual_neck_energy']:.3e} exceeds 5% theta")
        return {k: rep[k] for k in ("theta", "bubble_count", "sum_energies", "abs_gap",
                                    "residual_neck_energy", "depth", "crossing_scales")}


class CliCold:
    """Each operation is a fresh `python -m fueterlab.cli` process, started
    only after the previous one has exited."""

    in_process = False
    IGNORED = {"threads"}  # the pool size field may be removed from the report

    def __init__(self, seed, workdir):
        self.workdir = workdir
        field = workdir / "input.fld1"
        write_input_field(seed, field)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.peak_kb = 0
        s = str(seed)
        self.commands = [
            ("norms", ["norms", "--fields", "100", "--grid", "32", "--seed", s], self.check_norms),
            ("solve-w21", ["solve-w21", "--grid", "20", "--seed", s], self.check_solve),
            ("identity-check", ["identity-check", "--jets", "10000", "--field", str(field),
                                "--seed", s], self.check_identity),
            ("monotonicity", ["monotonicity", "--grid", "33", "--seed", s], self.check_sweep),
            ("extract-bubbles", ["extract-bubbles", "--manifest", "two", "--ell", "8",
                                 "--seed", str(seed + 2)], self.check_bubbles),
        ]
        # warm-up: one interpreter start and package import
        code, _ = self.spawn("warmup", ["--version"], None)
        require(code == 0, "fueterlab --version failed")

    def spawn(self, name, args, tracer):
        stdout = self.workdir / f"{name}.out"
        if tracer is None:
            argv = [sys.executable, "-m", "fueterlab.cli", *args]
        else:
            trace_file = self.workdir / f"{name}.spans.json"
            argv = [sys.executable, str(BENCH / "cli_shim.py"), str(trace_file), *args]
        code, usage = run_child(argv, self.env, stdout, self.workdir / f"{name}.err")
        if tracer is not None:
            tracer.absorb(json.loads(trace_file.read_text()))
        return code, usage

    def ops(self):
        def run(name, args, tracer):
            code, usage = self.spawn(name, args, tracer)
            self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
            return code

        return [Op(name, functools.partial(run, name, args),
                   functools.partial(self.check_exit, name, check))
                for name, args, check in self.commands]

    def check_exit(self, name, check, code):
        require(code == 0, f"exit code {code}: {(self.workdir / f'{name}.err').read_text()[-500:]}")
        return check((self.workdir / f"{name}.out").read_text())

    def _report(self, text):
        rep = json.loads(text)
        for key in self.IGNORED:
            rep.pop(key, None)
        return rep

    def check_norms(self, text):
        rep = self._report(text)
        require(rep["weak_l1_ok"] and rep["lorentz_ordering_ok"], "norms report not ok")
        return rep

    def check_solve(self, text):
        rep = self._report(text)
        require(rep["iterations"] >= 1 and rep["residual"] < 1e-9,
                f"fixed point residual {rep['residual']:.2e} after {rep['iterations']} iterations")
        return rep

    def check_identity(self, text):
        rep = self._report(text)
        require(rep["passed"], f"identity check failed: max defect {rep['max_defect']:.2e}")
        return rep

    def check_sweep(self, text):
        lines = text.strip().split("\n")
        require(lines[0] == "r,ratio,radial_term,defect" and len(lines) == 5,
                "monotonicity CSV is not a four-radius sweep")
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        cols = list(zip(*rows))
        _increasing_with_small_defects(cols[1], cols[3], "monotonicity CSV")
        return {"r": list(cols[0]), "ratio": list(cols[1]),
                "radial_term": list(cols[2]), "defect": list(cols[3])}

    def check_bubbles(self, text):
        rep = self._report(text)
        require(rep["report"]["bubble_count"] == 2 and rep["tree"]["depth"] == 1,
                "extract-bubbles did not recover the two-bubble chain")
        return rep

    def peak_rss_mb(self):
        return self.peak_kb / 1024.0


WORKLOADS = {
    "stream_ball": StreamBall,
    "dense_grid": DenseGrid,
    "bubble_quantize": BubbleQuantize,
    "cli_cold": CliCold,
}


# ---------------------------------------------------------------------------
# processes


def write_input_field(seed, path):
    subprocess.run([sys.executable, str(BENCH / "inputs.py"), str(seed), str(path)],
                   check=True, stdin=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)


def run_child(argv, env, stdout, stderr):
    """Run a child to completion; returns its exit code and its own resource
    usage (wait4), which a parent-wide counter would mix with other children."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    killer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    return os.waitstatus_to_exitcode(status), usage


def cpu_seconds():
    """User + system CPU of this process and of its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


# ---------------------------------------------------------------------------
# passes


def load_reference(workload, seed):
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload)


def _flatten(obj, prefix=""):
    """Numeric and boolean leaves of a JSON report, keyed by their path."""
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            out.update(_flatten(v, f"{prefix}{k}."))
        return out
    if isinstance(obj, list):
        out = {}
        for i, v in enumerate(obj):
            out.update(_flatten(v, f"{prefix}{i}."))
        return out
    if obj is None or isinstance(obj, (bool, int, float)):
        return {prefix[:-1]: obj}
    return {}


def compare(summary, reference):
    got, want = _flatten(summary), _flatten(reference)
    require(set(got) == set(want),
            f"output keys differ from the reference: {sorted(set(got) ^ set(want))}")
    for key, w in want.items():
        g = got[key]
        if isinstance(w, float) and isinstance(g, (int, float)) and not isinstance(g, bool):
            ok = math.isclose(g, w, rel_tol=REFERENCE_RTOL)
        else:
            ok = g == w
        require(ok, f"{key} = {g!r}, reference {w!r}")


def run_pass(name, workload, ops, tracer, reference):
    """One timed pass; returns its record and the checked output summaries."""
    results = []
    cpu0 = cpu_seconds()
    with spans.traced(tracer) if tracer is not None and workload.in_process else nullcontext():
        t0 = time.perf_counter()
        op_walls = {}
        for op in ops:
            start = time.perf_counter()
            try:
                results.append((op, op.run(tracer), None))
            except Exception:  # a failing operation fails itself, not the pass
                results.append((op, None, traceback.format_exc()))
            op_walls[op.name] = time.perf_counter() - start
        t1 = time.perf_counter()
    cpu = cpu_seconds() - cpu0
    failed = 0
    summaries = {}
    for op, out, err in results:
        if err is None:
            try:
                summary = op.check(out)
                if reference is not None:
                    compare(summary, reference.get(op.name, {}))
                summaries[op.name] = summary
            except CheckFailed as exc:
                err = str(exc)
            except Exception:
                err = traceback.format_exc()
        if err is not None:
            failed += 1
            sys.stderr.write(f"{name}: operation {op.name} failed: {err}\n")
    record = {"wall": t1 - t0, "cpu": cpu, "attempted": len(ops), "failed": failed,
              "traced": tracer is not None, "op_walls": op_walls}
    if tracer is not None:
        record["layers"] = spans.layer_metrics(tracer.dump(), t0, t1)
    return record, summaries


def run_passes(name, workload, budget, trace, reference):
    """Passes until the next one would overrun `budget` seconds, at least
    one; with tracing they alternate untraced / traced, at least one each."""
    ops = workload.ops()
    passes, dumps = [], []
    spent = 0.0
    while True:
        tracer = spans.Tracer() if trace and len(passes) % 2 == 1 else None
        record, _ = run_pass(name, workload, ops, tracer, reference)
        passes.append(record)
        if tracer is not None:
            dumps.append(tracer.dump())
        spent += record["wall"]
        typical = statistics.median(p["wall"] for p in passes)
        if (not trace or dumps) and spent + typical > budget:
            return passes, dumps


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write the JSON report here")
    p.add_argument("--write-reference", action="store_true",
                   help="store one pass's outputs at the default seed in reference.json")
    args = p.parse_args(argv)
    if args.write_reference and args.seed != DEFAULT_SEED:
        p.error(f"references are frozen at the default seed {DEFAULT_SEED}")

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - T_START
        if args.write_reference:
            record, summaries = run_pass(args.workload, workload, workload.ops(), None, None)
            require(record["failed"] == 0, "a check failed; no reference written")
            refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
            refs[args.workload] = summaries
            REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
            return 0
        reference = load_reference(args.workload, args.seed)
        passes, dumps = run_passes(args.workload, workload, args.seconds, bool(args.trace),
                                   reference)
        peak = (workload.peak_rss_mb() if not workload.in_process
                else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {"setup_s": setup_s, "peak_rss_mb": peak, "passes": passes,
              "environment": environment()}
    if dumps:
        trace_path = OUT / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.json"
        trace_path.write_text(json.dumps(dumps))
        report["spans_file"] = trace_path.name
    if args.out:
        Path(args.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
