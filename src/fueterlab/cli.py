"""Batch front door: subcommands wiring the modules together, file I/O, and
deterministic report emission (JSON for structured results, CSV for radius
sweeps, FLD1 for fields).

Reports embed the effective config and a format version; a fixed seed gives
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields as dc_fields

import numpy as np

from . import __version__, stencil
from .fields import (
    GridField,
    _fld1_header,
    _fld1_planes,
    energy_identity_defects,
    standard_triholomorphic_field,
    triholomorphic_kernel,
)
from .monotone import ratio_profile
from .norms import ScalarGrid, hl_maximal, lorentz_21, lorentz_2inf, weak_l1_excess
from .poisson import NonContractionError, NotConvergedError, default_problem, fixed_point_solve
from .quat import StructureTriple

FORMAT_VERSION = "FUETERLAB1"

# the RunConfig fields each command reads, from --config or from the flag of
# the same name; any other config field exits 2
READS = {
    "identity-check": ("seed", "m", "tol_identity"),
    "monotonicity": ("seed", "grid"),
    "norms": ("seed", "grid"),
    "solve-w21": ("seed", "grid", "magnitude"),
    "extract-bubbles": ("seed", "ell", "eps0", "eps1", "r_out"),
}

# the smallest grid each command that reads grid accepts, and why
MIN_GRID = {
    "monotonicity": (12, "the largest ball spans (grid - 8) / 2 >= 2 spacings"),
    "norms": (5, "the maximal function needs a ball of radius 2 / grid < 1/2"),
    "solve-w21": (6, "a node must lie within 1 / grid < 0.2, the source's radius, "
                     "of the centre"),
}


@dataclass
class RunConfig:
    eps0: float = 0.1
    eps1: float = 0.025
    r_out: float = 0.25
    tol_identity: float = 1e-10
    grid: int = 16
    m: int = 1
    seed: int = 0
    ell: int = 8
    magnitude: float = 0.05

    def __post_init__(self):
        for f in dc_fields(self):
            value = getattr(self, f.name)
            # json.load reads NaN and Infinity, and bool is an int
            kind = (int, float) if f.type == "float" else int
            if isinstance(value, bool) or not isinstance(value, kind) or not math.isfinite(value):
                raise ValueError(f"config field {f.name} must be a finite {f.type}, got {value!r}")
        for name in ("eps0", "eps1", "r_out", "tol_identity", "grid"):
            if getattr(self, name) <= 0:
                raise ValueError(f"config field {name} must be positive")
        if self.m not in (1, 2):
            raise ValueError("config field m must be 1 or 2")
        if self.seed < 0:
            raise ValueError(f"config field seed must be at least 0, got {self.seed}")
        if self.ell < 2:
            raise ValueError("config field ell must be at least 2 (members ell - 1 and ell)")


def _load_config(args, **defaults) -> RunConfig:
    """RunConfig from the defaults, then --config, then the flags.  The values
    are checked first; then a config field the command does not read exits 2."""
    raw = {}
    if getattr(args, "config", None):
        with open(args.config) as f:
            raw = json.load(f)
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
        bad = set(raw) - {f.name for f in dc_fields(RunConfig)}
        if bad:
            raise ValueError(f"unknown config fields: {sorted(bad)}")
    values = dict(defaults, **raw)
    reads = READS[args.command]
    for name in reads:
        v = getattr(args, name, None)
        if v is not None:
            values[name] = v
    cfg = RunConfig(**values)
    small = _small_grid(args.command, cfg.grid)  # a --grid flag passed the parser
    if small:
        raise ValueError(f"config field grid {small}")
    unread = sorted(set(raw) - set(reads))
    if unread:
        raise ValueError(f"config fields not read by {args.command}: {unread}")
    return cfg


def _small_grid(command, grid):
    """Why `grid` is below the minimum of `command`, or None."""
    low, why = MIN_GRID.get(command, (0, None))
    return f"must be at least {low} ({why}), got {grid}" if grid < low else None


def _emit(payload, args, exit_code=0):
    payload = dict(payload)
    payload["format_version"] = FORMAT_VERSION
    payload["fueterlab_version"] = __version__
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    _write(text, args)
    return exit_code


def _write(text, args):
    if getattr(args, "out", None):
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_identity_check(args) -> int:
    cfg = _load_config(args)
    rng = np.random.default_rng(cfg.seed)
    S_dom = StructureTriple.standard(cfg.m)
    S_tar = StructureTriple.standard(1)
    jets = args.jets
    A = rng.standard_normal((jets, S_tar.dim, S_dom.dim))
    defects = energy_identity_defects(A, S_dom, S_tar)
    max_defect = float(np.max(np.abs(defects)))
    tested = jets
    if args.field:
        try:
            with open(args.field, "rb") as f:
                u = _fld1_header(f)
                field_jets, bad_jet = _field_jets(f, u)
        except (OSError, ValueError) as e:
            sys.stderr.write(f"bad field file: {e}\n")
            return 2
        if bad_jet is not None:
            raise bad_jet
        Sd = StructureTriple.standard(u.m)
        St = StructureTriple.standard(u.n)
        field_jets = np.concatenate(field_jets)
        defects_u = energy_identity_defects(field_jets, Sd, St)
        max_defect = max(max_defect, float(np.max(np.abs(defects_u))))
        tested += len(field_jets)
    kernel_dim = None
    if cfg.m == 1:
        kernel_dim, _ = triholomorphic_kernel(S_dom, S_tar)
    ok = max_defect < cfg.tol_identity
    payload = {
        "config": asdict(cfg),
        "draws_sha256": hashlib.sha256(A).hexdigest(),
        "max_defect": max_defect,
        "jets_tested": tested,
        "kernel_dim": kernel_dim,
        "passed": bool(ok),
    }
    if not ok:
        payload["error"] = "identity-defect"
        payload["detail"] = (f"max energy-identity defect {max_defect!r} over {tested} "
                             f"jets is not below tol_identity {cfg.tol_identity!r}")
    return _emit(payload, args, 0 if ok else 1)


def _field_jets(f, u):
    """(jets, error): the central-difference jets of the FLD1 field u, whose
    payload the open file f holds next, at the nodes with every index in
    range(2, N - 2, step), one array per axis-0 row, in row-major order.

    The payload is read one axis-0 plane at a time, and every plane is
    checked; only the last three planes are held, which are the planes
    i - 1, i and i + 1 that the jets of row i read once plane i + 1 is in.
    A jet that overflows stops the jets: a ValueError naming the row-major
    first such node is returned as `error` once the whole payload has been
    read, so that a bad plane after it is still reported as a bad file."""
    N = u.shape[0]
    rows = range(2, N - 2, max(1, (N - 4) // 3))
    nodes = list(itertools.product(rows, repeat=u.dim - 1))
    strides = [N ** (u.dim - 2 - a) for a in range(u.dim - 1)]
    at = np.array([np.dot(node, strides) for node in nodes], dtype=int)
    held, jets, error = [], [], None
    for i, plane in _fld1_planes(f, u):
        held = held[-2:] + [plane.reshape(-1, u.target_dim)]
        if i - 1 in rows and error is None:
            jets.append(stencil.jets(held, at, strides, u.h))
            bad = ~np.isfinite(jets[-1]).all(axis=(1, 2))
            if bad.any():
                error = ValueError(f"jet entries at node {(i - 1,) + nodes[np.argmax(bad)]} "
                                   "must be finite (the differences overflow)")
    return jets, error


def cmd_monotonicity(args) -> int:
    cfg = _load_config(args)
    radii = args.radii or [0.15, 0.2, 0.3, 0.4]
    # the ball sums carry the cell volume h^4 = (2 max(radii) / (grid - 8))^4, at this
    # floor the smallest normal float; below it the ratios lose digits, read 0, then NaN
    floor = np.finfo(float).tiny ** 0.25 * (cfg.grid - 8) / 2
    if min(radii) < floor:
        raise ValueError(f"--radii must be at least {floor:.4g} on grid {cfg.grid}, "
                         f"got {min(radii)!r}")
    # box sized so the largest ball plus the stencil margin stays interior
    L = max(radii) / (1.0 - 7.0 / (cfg.grid - 1))
    if args.field == "constant":
        fn = lambda p: np.ones(p.shape[:-1] + (4,))  # noqa: E731
    else:
        fn = standard_triholomorphic_field(seed=cfg.seed, degree=4)
    u = GridField.from_function(fn, 1, 1, cfg.grid, domain="box", L=L)
    try:  # an overflow raises here, not as a numpy warning and an inf or nan row
        with np.errstate(over="raise", invalid="raise"):
            prof = ratio_profile(u, np.zeros(4), radii)
    except (FloatingPointError, OverflowError):
        raise ValueError(f"--radii up to {max(radii)!r} overflow the ball sums "
                         f"on grid {cfg.grid}") from None
    _write(prof.to_csv(), args)
    return 0


def cmd_norms(args) -> int:
    cfg = _load_config(args)
    rng = np.random.default_rng(cfg.seed)
    N = cfg.grid
    h = 1.0 / N

    excess, ordered = [], []
    seeds = rng.integers(0, 1 << 31, size=args.fields)
    for seed in seeds:
        local = np.random.default_rng(int(seed))
        f = ScalarGrid(np.abs(local.normal(size=(N, N))), h)
        excess.append(weak_l1_excess(f, hl_maximal(f)))
        g = ScalarGrid(local.normal(size=(N, N)), h)
        ordered.append(lorentz_2inf(g) <= g.l2() + 1e-12 <= lorentz_21(g) + 1e-12)
    weak_worst = max(excess)
    payload = {
        "config": asdict(cfg),
        "draws_sha256": hashlib.sha256(seeds).hexdigest(),
        "fields_tested": args.fields,
        "weak_l1_worst_excess": weak_worst,
        "weak_l1_ok": bool(weak_worst <= 1e-9),
        "lorentz_ordering_ok": all(ordered),
    }
    ok = payload["weak_l1_ok"] and payload["lorentz_ordering_ok"]
    if not ok:
        failed = [name for name in ("weak_l1_ok", "lorentz_ordering_ok") if not payload[name]]
        payload["error"] = "norm-check-failed"
        payload["detail"] = (f"{' and '.join(failed)} false over {args.fields} fields "
                             f"(worst weak-L1 excess {weak_worst!r})")
    return _emit(payload, args, 0 if ok else 1)


def cmd_solve_w21(args) -> int:
    cfg = _load_config(args)
    P = default_problem(N=cfg.grid, magnitude=cfg.magnitude, seed=cfg.seed)
    try:
        v, stats = fixed_point_solve(P, tol=args.tol, max_iter=args.max_iter)
    except NotConvergedError as e:
        payload = {
            "config": asdict(cfg),
            "error": "non-contraction" if isinstance(e, NonContractionError) else "not-converged",
            "detail": str(e),
            "ratios_tail": [float(r) for r in e.ratios[-5:]],
        }
        return _emit(payload, args, 1)
    payload = {
        "config": asdict(cfg),
        "iterations": stats["iterations"],
        "contraction": stats["contraction"],
        "residual": stats["residual"],
        "solution_linf": float(np.abs(v.values).max()),
    }
    return _emit(payload, args, 0)


BUNDLED_MANIFESTS = {
    "one": [(1.0, (0.6, -0.48, 0.64), (0.0, 0.0), 2.0, 1.0)],
    "two": [
        (1.0, (0.6, -0.48, 0.64), (0.0, 0.0), 2.0, 1.0),
        (1.0, (0.6, -0.48, 0.64), (0.0, 0.0), 4.0, 1.0),
    ],
    "three": [
        (1.0, (0.6, -0.48, 0.64), (0.0, 0.0), 2.0, 1.0),
        (0.9, (0.6, -0.48, 0.64), (0.0, 0.0), 4.0, 1.0),
        (1.1, (0.6, -0.48, 0.64), (0.0, 0.0), 8.0, 1.0),
    ],
}


def bundled_sequence(name, seed=5):
    from .bubbletree import synth_sequence

    specs = BUNDLED_MANIFESTS[name]
    specs = [
        (a, tuple(np.array(abc) / np.linalg.norm(abc)), c, r, k)
        for a, abc, c, r, k in specs
    ]
    return synth_sequence(specs, seed=seed)


def cmd_extract_bubbles(args) -> int:
    from .bubbletree import (NoAdmissibleSliceError, NoConcentrationError, QuantizeConfig,
                             quantize)

    cfg = _load_config(args, seed=5)
    seq = bundled_sequence(args.manifest, seed=cfg.seed)
    qcfg = QuantizeConfig(eps0=cfg.eps0, eps1=cfg.eps1, r_out=cfg.r_out)
    try:
        tree, report = quantize(seq, [cfg.ell - 1, cfg.ell], qcfg)
    except (NoAdmissibleSliceError, NoConcentrationError) as e:
        error = "no-concentration" if isinstance(e, NoConcentrationError) else "no-admissible-slice"
        return _emit({"config": asdict(cfg), "error": error, "detail": str(e)}, args, 1)
    payload = {
        "config": asdict(cfg),
        "manifest": args.manifest,
        "manifest_energies": [float(e) for e in seq.manifest.energies],
        "manifest_theta": float(seq.manifest.theta),
        "report": report,
        "tree": tree.to_dict(),
        "tree_text": tree.to_text(),
    }
    code = 0 if report["theta_reliable"] else 1
    if not report["theta_reliable"]:
        payload["error"] = "unreliable-extrapolation"
        payload["detail"] = (f"defect density theta {report['theta']!r}: its r -> 0 "
                             f"extrapolations at ell {cfg.ell - 1} and {cfg.ell} disagree "
                             "beyond their relative tolerance")
    return _emit(payload, args, code)


# ---------------------------------------------------------------------------
# flag values, checked where they enter; argparse names the flag on rejection


def _number(kind, text):
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _int_at_least(low, text):
    value = _number(int, text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


_positive_int = functools.partial(_int_at_least, 1)


def _grid(command, text):
    value = _number(int, text)
    small = _small_grid(command, value)
    if small:
        raise argparse.ArgumentTypeError(small)
    return value


def _finite_float(text):
    value = _number(float, text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text):
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _radii(text):
    return [_positive_float(r) for r in text.split(",")]


def build_parser():
    p = argparse.ArgumentParser(
        prog="fueterlab",
        description="Desk-scale checks for quaternionic del-bar maps: energy "
        "identities, monotonicity sweeps, norm machinery, the perturbed "
        "Poisson scheme, and bubble-tree extraction.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(q, name):
        q.add_argument("--config", help="JSON file overriding RunConfig fields")
        q.add_argument("--out", help="write the report here instead of stdout")
        flags = dict(seed=dict(type=functools.partial(_int_at_least, 0)),
                     grid=dict(type=functools.partial(_grid, name)),
                     m=dict(type=int, choices=(1, 2)), magnitude=dict(type=_finite_float),
                     ell=dict(type=functools.partial(_int_at_least, 2)))
        for field in READS[name]:  # a command defines the flags of the fields it reads
            if field in flags:
                q.add_argument(f"--{field}", default=None, **flags[field])

    q = sub.add_parser("identity-check", help="energy identity over random jets")
    common(q, "identity-check")
    q.add_argument("--jets", type=_positive_int, default=10000)
    q.add_argument("--field", help="optional FLD1 field to check at grid nodes")
    q.set_defaults(func=cmd_identity_check)

    q = sub.add_parser("monotonicity", help="radius sweep CSV on a test field")
    common(q, "monotonicity")
    q.add_argument("--field", default="triholomorphic",
                   choices=("triholomorphic", "constant"))
    q.add_argument("--radii", type=_radii, help="comma-separated radii for the sweep")
    q.set_defaults(func=cmd_monotonicity)

    q = sub.add_parser("norms", help="randomized norm-machinery suite")
    common(q, "norms")
    q.add_argument("--fields", type=_positive_int, default=100)
    q.set_defaults(func=cmd_norms)

    q = sub.add_parser("solve-w21", help="perturbed Poisson fixed point")
    common(q, "solve-w21")
    q.add_argument("--tol", type=_positive_float, default=1e-10)
    q.add_argument("--max-iter", type=_positive_int, default=100, dest="max_iter")
    q.set_defaults(func=cmd_solve_w21)

    q = sub.add_parser("extract-bubbles", help="bubble tree from a bundled manifest")
    common(q, "extract-bubbles")
    q.add_argument("--manifest", default="two", choices=sorted(BUNDLED_MANIFESTS))
    q.set_defaults(func=cmd_extract_bubbles)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
