"""Batch front door: subcommands wiring the modules together, file I/O, and
deterministic report emission (JSON for structured results, CSV for radius
sweeps, FLD1 for fields).

Reports embed the effective config and a format version; a fixed seed gives
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, fields as dc_fields

import numpy as np

from . import __version__
from .fields import (
    GridField,
    differential,
    energy_identity_defects,
    load_fld1,
    standard_triholomorphic_field,
    triholomorphic_kernel,
)
from .monotone import ratio_profile
from .norms import ScalarGrid, hl_maximal, lorentz_21, lorentz_2inf, weak_l1_excess
from .poisson import NonContractionError, default_problem, fixed_point_solve
from .quat import StructureTriple

FORMAT_VERSION = "FUETERLAB1"


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
        for name in ("eps0", "eps1", "r_out", "grid"):
            if getattr(self, name) <= 0:
                raise ValueError(f"config field {name} must be positive")
        if self.m not in (1, 2):
            raise ValueError("m must be 1 or 2")


def _load_config(args, **defaults) -> RunConfig:
    """RunConfig from the defaults, then --config, then the flags."""
    values = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config) as f:
            raw = json.load(f)
        known = {f.name for f in dc_fields(RunConfig)}
        bad = set(raw) - known
        if bad:
            raise ValueError(f"unknown config fields: {sorted(bad)}")
        values.update(raw)
    for name in ("seed", "grid", "m", "ell", "magnitude"):
        v = getattr(args, name, None)
        if v is not None:
            values[name] = v
    return RunConfig(**values)


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
            u = load_fld1(args.field)
        except (OSError, ValueError, KeyError) as e:
            sys.stderr.write(f"bad field file: {e}\n")
            return 2
        Sd = StructureTriple.standard(u.m)
        St = StructureTriple.standard(u.n)
        N = u.shape[0]
        step = max(1, (N - 4) // 3)
        nodes = [tuple(i) for i in np.ndindex(*(len(range(2, N - 2, step)),) * u.dim)]
        picks = [tuple(range(2, N - 2, step)[k] for k in node) for node in nodes]
        As = np.stack([differential(u, nd).du for nd in picks])
        defects_u = energy_identity_defects(As, Sd, St)
        max_defect = max(max_defect, float(np.max(np.abs(defects_u))))
        tested += len(picks)
    kernel_dim = None
    if cfg.m == 1:
        kernel_dim, _ = triholomorphic_kernel(S_dom, S_tar)
    ok = max_defect < cfg.tol_identity
    payload = {
        "config": asdict(cfg),
        "max_defect": max_defect,
        "jets_tested": tested,
        "kernel_dim": kernel_dim,
        "passed": bool(ok),
    }
    return _emit(payload, args, 0 if ok else 1)


def cmd_monotonicity(args) -> int:
    cfg = _load_config(args)
    radii = [float(r) for r in args.radii.split(",")] if args.radii else [0.15, 0.2, 0.3, 0.4]
    if cfg.grid < 12:
        raise ValueError("monotonicity sweep needs at least a 12-node grid")
    # box sized so the largest ball plus the stencil margin stays interior
    L = max(radii) / (1.0 - 7.0 / (cfg.grid - 1))
    if args.field == "constant":
        fn = lambda p: np.ones(p.shape[:-1] + (4,))  # noqa: E731
    else:
        fn = standard_triholomorphic_field(seed=cfg.seed, degree=4)
    u = GridField.from_function(fn, 1, 1, cfg.grid, domain="box", L=L)
    prof = ratio_profile(u, np.zeros(4), radii)
    _write(prof.to_csv(), args)
    return 0


def cmd_norms(args) -> int:
    cfg = _load_config(args)
    rng = np.random.default_rng(cfg.seed)
    N = cfg.grid
    h = 1.0 / N

    excess, ordered = [], []
    for seed in rng.integers(0, 1 << 31, size=args.fields):
        local = np.random.default_rng(int(seed))
        f = ScalarGrid(np.abs(local.normal(size=(N, N))), h)
        excess.append(weak_l1_excess(f, hl_maximal(f)))
        g = ScalarGrid(local.normal(size=(N, N)), h)
        ordered.append(lorentz_2inf(g) <= g.l2() + 1e-12 <= lorentz_21(g) + 1e-12)
    weak_worst = max(excess)
    payload = {
        "config": asdict(cfg),
        "fields_tested": args.fields,
        "weak_l1_worst_excess": weak_worst,
        "weak_l1_ok": bool(weak_worst <= 1e-9),
        "lorentz_ordering_ok": all(ordered),
    }
    ok = payload["weak_l1_ok"] and payload["lorentz_ordering_ok"]
    return _emit(payload, args, 0 if ok else 1)


def cmd_solve_w21(args) -> int:
    cfg = _load_config(args)
    P = default_problem(N=cfg.grid, magnitude=cfg.magnitude, seed=cfg.seed)
    try:
        v, stats = fixed_point_solve(P, tol=args.tol, max_iter=args.max_iter)
    except NonContractionError as e:
        payload = {
            "config": asdict(cfg),
            "error": "non-contraction",
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
    from .bubbletree import NoConcentrationError, QuantizeConfig, quantize

    cfg = _load_config(args, seed=5)
    if args.manifest not in BUNDLED_MANIFESTS:
        sys.stderr.write(f"unknown manifest {args.manifest!r}\n")
        return 2
    seq = bundled_sequence(args.manifest, seed=cfg.seed)
    qcfg = QuantizeConfig(eps0=cfg.eps0, eps1=cfg.eps1, r_out=cfg.r_out)
    try:
        tree, report = quantize(seq, [cfg.ell - 1, cfg.ell], qcfg)
    except NoConcentrationError as e:
        return _emit({"config": asdict(cfg), "error": "no-concentration",
                      "detail": str(e)}, args, 1)
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
    return _emit(payload, args, code)


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="fueterlab",
        description="Desk-scale checks for quaternionic del-bar maps: energy "
        "identities, monotonicity sweeps, norm machinery, the perturbed "
        "Poisson scheme, and bubble-tree extraction.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(q):
        q.add_argument("--config", help="JSON file overriding RunConfig fields")
        q.add_argument("--out", help="write the report here instead of stdout")
        q.add_argument("--seed", type=int, default=None)
        q.add_argument("--grid", type=int, default=None)
        q.add_argument("--m", type=int, default=None, choices=(1, 2))

    q = sub.add_parser("identity-check", help="energy identity over random jets")
    common(q)
    q.add_argument("--jets", type=int, default=10000)
    q.add_argument("--field", help="optional FLD1 field to check at grid nodes")
    q.set_defaults(func=cmd_identity_check)

    q = sub.add_parser("monotonicity", help="radius sweep CSV on a test field")
    common(q)
    q.add_argument("--field", default="triholomorphic",
                   choices=("triholomorphic", "constant"))
    q.add_argument("--radii", help="comma-separated radii for the sweep")
    q.set_defaults(func=cmd_monotonicity)

    q = sub.add_parser("norms", help="randomized norm-machinery suite")
    common(q)
    q.add_argument("--fields", type=int, default=100)
    q.set_defaults(func=cmd_norms)

    q = sub.add_parser("solve-w21", help="perturbed Poisson fixed point")
    common(q)
    q.add_argument("--magnitude", type=float, default=None)
    q.add_argument("--tol", type=float, default=1e-10)
    q.add_argument("--max-iter", type=int, default=100, dest="max_iter")
    q.set_defaults(func=cmd_solve_w21)

    q = sub.add_parser("extract-bubbles", help="bubble tree from a bundled manifest")
    common(q)
    q.add_argument("--manifest", default="two", choices=sorted(BUNDLED_MANIFESTS))
    q.add_argument("--ell", type=int, default=None)
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
