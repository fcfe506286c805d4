import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from fueterlab import bubbletree, cli, fields, monotone, norms, stencil
from fueterlab.cli import main
from fueterlab.fields import (
    GridField,
    energy_identity_defects,
    save_fld1,
    triholomorphic_kernel,
)
from fueterlab.quat import StructureTriple

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_identity_check_default(capsys):
    code, out = run_cli(["identity-check", "--jets", "500", "--seed", "1"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["max_defect"] < 1e-10
    assert rep["kernel_dim"] == 12
    assert rep["format_version"] == "FUETERLAB1"


def test_identity_check_m2(capsys):
    code, out = run_cli(["identity-check", "--jets", "200", "--m", "2"], capsys)
    assert code == 0
    assert json.loads(out)["kernel_dim"] is None


def test_identity_check_zero_tolerance(tmp_path, capsys):
    # the least positive tolerance: only an exactly zero defect passes
    cfgpath = tmp_path / "cfg.json"
    cfgpath.write_text(json.dumps({"tol_identity": 5e-324}))
    code, out = run_cli(
        ["identity-check", "--jets", "100", "--config", str(cfgpath)], capsys
    )
    assert code == 1  # floating point defect is tiny but nonzero
    rep = json.loads(out)
    assert rep["passed"] is False and rep["error"] == "identity-defect"
    assert "tol_identity 5e-324" in rep["detail"]


def test_identity_check_malformed_field(tmp_path, capsys):
    bad = tmp_path / "bad.fld1"
    bad.write_bytes(b"not a field file\n\x00\x00")
    code, _ = run_cli(["identity-check", "--jets", "10", "--field", str(bad)], capsys)
    assert code == 2


def _valid_fld1(path, nodes=7):
    from fueterlab.fields import standard_triholomorphic_field

    poly = standard_triholomorphic_field(seed=2, degree=2)
    save_fld1(GridField.from_function(poly, 1, 1, nodes, L=0.5, materialize=True), path)
    return path.read_bytes()


def _field_check_fails(path, capsys):
    code = main(["identity-check", "--jets", "10", "--field", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    return captured.err


def test_identity_check_rejects_trailing_bytes(tmp_path, capsys):
    path = tmp_path / "u.fld1"
    path.write_bytes(_valid_fld1(path) + b"\x00" * 8)
    assert "payload has" in _field_check_fails(path, capsys)


def test_identity_check_rejects_short_payload(tmp_path, capsys):
    path = tmp_path / "u.fld1"
    path.write_bytes(_valid_fld1(path)[:-8])
    assert "payload has" in _field_check_fails(path, capsys)


@pytest.mark.parametrize("key, value, reason", [
    ("L", "-0.5", "L must be finite and positive, got -0.5"),
    ("L", "inf", "L must be finite and positive, got inf"),
    ("L", "nan", "L must be finite and positive, got nan"),
    ("L", "0", "L must be finite and positive, got 0.0"),
    ("m", "0", "header field m must be at least 1, got 0"),
    ("n", "0", "header field n must be at least 1, got 0"),
    ("dims", "6,0,6,6", "header field dims must be at least 1, got 6,0,6,6"),
    ("m", "1.5", "header field m has a malformed value '1.5'"),
    ("n", "one", "header field n has a malformed value 'one'"),
    ("L", "abc", "header field L has a malformed value 'abc'"),
    ("h", "abc", "header field h has a malformed value 'abc'"),
    ("h", "nan", "header spacing inconsistent with L and dims"),
    ("dims", "6,6,x,6", "header field dims has a malformed value '6,6,x,6'"),
    ("domain", "sphere", "domain must be 'box', got 'sphere'"),
    ("domain", "torus", "domain must be 'box', got 'torus'"),
])
def test_identity_check_rejects_a_bad_header_field(tmp_path, capsys, key, value, reason):
    path = tmp_path / "u.fld1"
    header, payload = _valid_fld1(path, nodes=6).split(b"\n", 1)
    header = re.sub(rf" {key}=\S+", f" {key}={value}", header.decode("ascii"))
    # n = 0 or a zero dim leaves an empty payload, the size its header asks for
    path.write_bytes(header.encode("ascii") + b"\n" + (b"" if key in ("n", "dims") else payload))
    assert reason in _field_check_fails(path, capsys)


@pytest.mark.parametrize("pattern, repl, reason", [
    (r"$", " m", "header token 'm' is not key=value for an FLD1 field"),
    (r"$", " =6", "header token '=6' is not key=value for an FLD1 field"),
    (r"$", " grid=6", "header token 'grid=6' is not key=value for an FLD1 field"),
    (r" dims=\S+", "", "header field dims is missing"),
    (r" h=\S+", "", "header field h is missing"),
    (r"$", " m=2", "header field m is repeated"),
])
def test_identity_check_names_a_bare_unknown_missing_or_repeated_header_field(
        tmp_path, capsys, pattern, repl, reason):
    path = tmp_path / "u.fld1"
    header, payload = _valid_fld1(path, nodes=6).split(b"\n", 1)
    header = re.sub(pattern, repl, header.decode("ascii"), count=1)
    path.write_bytes(header.encode("ascii") + b"\n" + payload)
    assert reason in _field_check_fails(path, capsys)


def test_identity_check_rejects_nan_at_an_unsampled_node(tmp_path, capsys):
    # node (0,0,0,0) is never sampled by the check; the loader must catch it
    path = tmp_path / "u.fld1"
    raw = bytearray(_valid_fld1(path))
    start = raw.index(b"\n") + 1
    raw[start:start + 8] = np.array([np.nan], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    assert "finite" in _field_check_fails(path, capsys)


def test_identity_check_with_field(tmp_path, capsys):
    from fueterlab.fields import standard_triholomorphic_field

    poly = standard_triholomorphic_field(seed=2, degree=2)
    u = GridField.from_function(poly, 1, 1, 9, L=0.5, materialize=True)
    path = tmp_path / "u.fld1"
    save_fld1(u, path)
    # polynomial fields carry O(h^2) stencil error, so loosen the tolerance
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol_identity": 1.0}))
    code, out = run_cli(
        ["identity-check", "--jets", "50", "--field", str(path), "--config", str(cfg)],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["jets_tested"] > 50


# the identity-check of the parent tree, verbatim: the whole field loaded
# by load_fld1, then differenced node by node through u.block


def _parent_load_fld1(path) -> GridField:
    with open(path, "rb") as f:
        header = f.readline().decode("ascii").strip()
        parts = header.split()
        if not parts or parts[0] != "FLD1":
            raise ValueError("not an FLD1 file")
        text, kv = {}, {}
        for token in parts[1:]:
            key, eq, raw = token.partition("=")
            if not eq or key not in fields._FLD1_FIELDS:
                raise ValueError(f"header token {token!r} is not key=value for an FLD1 field")
            if key in kv:
                raise ValueError(f"header field {key} is repeated")
            try:
                text[key], kv[key] = raw, fields._FLD1_FIELDS[key](raw)
            except ValueError:
                raise ValueError(f"header field {key} has a malformed value {raw!r}") from None
        missing = [key for key in fields._FLD1_FIELDS if key not in kv]
        if missing:
            raise ValueError(f"header field {missing[0]} is missing")
        m, n, shape = kv["m"], kv["n"], kv["dims"]
        for key, least in (("m", m), ("n", n), ("dims", min(shape))):
            if least < 1:
                raise ValueError(f"header field {key} must be at least 1, got {text[key]}")
        count = int(np.prod(shape)) * 4 * n
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != 8 * count:
            raise ValueError(f"payload has {size} bytes, header dims need {8 * count}")
        values = np.empty(shape + (4 * n,), dtype="<f8")
        got = f.readinto(values.data.cast("B"))
        if got != 8 * count:
            raise ValueError(f"payload has {got} bytes, header dims need {8 * count}")
    g = GridField(m, n, kv["domain"], kv["L"], shape, values=values)
    if not abs(g.h - kv["h"]) <= 1e-12 * max(1.0, g.h):  # a NaN h fails too
        raise ValueError("header spacing inconsistent with L and dims")
    return g


def _parent_neighbor(u, node, axis, step):
    node = list(node)
    node[axis] += step
    return u.block(tuple(node))


def _parent_differential(u: GridField, node) -> np.ndarray:
    node = tuple(int(i) for i in node)
    if not u.is_interior(node):
        raise ValueError(f"node {node} too close to the box boundary for the stencil")
    du = np.stack([stencil.first(_parent_neighbor(u, node, a, +1),
                                 _parent_neighbor(u, node, a, -1), u.h)
                   for a in range(u.dim)], axis=1)
    if not np.isfinite(du).all():
        raise ValueError(f"jet entries at node {node} must be finite (the differences overflow)")
    return du


def _parent_cmd_identity_check(args) -> int:
    cfg = cli._load_config(args)
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
            u = _parent_load_fld1(args.field)
        except (OSError, ValueError) as e:
            sys.stderr.write(f"bad field file: {e}\n")
            return 2
        Sd = StructureTriple.standard(u.m)
        St = StructureTriple.standard(u.n)
        N = u.shape[0]
        step = max(1, (N - 4) // 3)
        nodes = [tuple(i) for i in np.ndindex(*(len(range(2, N - 2, step)),) * u.dim)]
        picks = [tuple(range(2, N - 2, step)[k] for k in node) for node in nodes]
        As = np.stack([_parent_differential(u, nd) for nd in picks])
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
    if not ok:
        payload["error"] = "identity-defect"
        payload["detail"] = (f"max energy-identity defect {max_defect!r} over {tested} "
                             f"jets is not below tol_identity {cfg.tol_identity!r}")
    return cli._emit(payload, args, 0 if ok else 1)


def _parent_main(argv):
    args = cli.build_parser().parse_args(argv)
    try:
        return _parent_cmd_identity_check(args)
    except (ValueError, OSError, json.JSONDecodeError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 2


def _both_identity_checks(path, capsys, tol=None):
    """(code, stdout, stderr) of identity-check on the field at path, from
    the streaming command and from the parent's copy."""
    argv = ["identity-check", "--jets", "20", "--field", str(path), "--seed", "1"]
    if tol is not None:
        cfg = path.parent / "cfg.json"
        cfg.write_text(json.dumps({"tol_identity": tol}))
        argv += ["--config", str(cfg)]
    runs = []
    with np.errstate(over="ignore"):
        for run in (main, _parent_main):
            code = run(argv)
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
    return runs


def _field_values(nodes, n):
    """A degree-4 triholomorphic field into one quaternion, random values
    into two."""
    if n == 1:
        poly = fields.standard_triholomorphic_field(seed=3, degree=4)
        return GridField.from_function(poly, 1, 1, nodes, L=0.5, materialize=True).values
    return np.random.default_rng(nodes).normal(size=(nodes,) * 4 + (4 * n,))


# `domain` is "box", the one domain, on every case
@pytest.mark.parametrize("domain, nodes, n", [
    ("box", 13, 1),    # rows 2, 5, 8: planes 0, 10, 11, 12 unread
    ("box", 7, 1),     # rows 2, 3, 4: consecutive rows share planes
    ("box", 8, 2),     # rows 2 .. 5, and two target quaternions
    ("box", 11, 1),    # rows 2, 4, 6, 8
])
def test_identity_check_field_report_matches_the_parent_bytes(domain, nodes, n, tmp_path,
                                                              capsys):
    path = tmp_path / "u.fld1"
    save_fld1(GridField(1, n, domain, 0.5, (nodes,) * 4,
                        values=_field_values(nodes, n)), path)
    new, old = _both_identity_checks(path, capsys)
    assert new == old
    assert new[0] in (0, 1) and new[1] and new[2] == ""
    # a tolerance between the field's defects and 0 fails both the same way
    new, old = _both_identity_checks(path, capsys, tol=5e-324)
    assert new == old and new[0] == 1


def _set(values, node, value):
    values = values.copy()
    values[node] = value
    return values


@pytest.mark.parametrize("defect, reason", [
    # NaN in a plane that no jet reads (planes 1 .. 9 are read): one past the
    # last picked row's neighbour, and the last value of the last plane
    ("nan 10", "bad field file: field values must be finite"),
    ("nan 12", "bad field file: field values must be finite"),
    # NaN in a plane the jets read, at a node none of them reads
    ("nan 5", "bad field file: field values must be finite"),
    # a jet at node (5, 2, 2, 2) overflows; alone it is the reason, but a
    # NaN in a plane after it is reported first, as the whole load was
    ("overflow", "error: jet entries at node (5, 2, 2, 2) must be finite"),
    ("overflow nan 12", "bad field file: field values must be finite"),
])
def test_a_bad_field_exits_2_as_the_parent_did(defect, reason, tmp_path, capsys):
    values = _field_values(13, 1)
    if defect.startswith("overflow"):
        values = _set(_set(values, (6, 2, 2, 2, 0), 1e308), (4, 2, 2, 2, 0), -1e308)
    if "nan" in defect:
        plane = int(defect.split()[-1])
        values = _set(values, (12, 12, 12, 12, 3) if plane == 12 else (plane, 0, 1, 0, 2),
                      np.nan)
    path = tmp_path / "u.fld1"
    save_fld1(GridField(1, 1, "box", 0.5, (13,) * 4, values=np.zeros_like(values)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:raw.index(b"\n") + 1] + values.astype("<f8").tobytes())
    new, old = _both_identity_checks(path, capsys)
    assert new == old
    assert new[0] == 2 and new[1] == "" and new[2].startswith(reason)


def test_identity_check_holds_a_few_planes_of_its_field(tmp_path):
    # a 21^4 field: 6.2 MB of payload in planes of 0.3 MB, of which the
    # check holds at most three, where loading the whole field held all 21
    path = tmp_path / "u.fld1"
    save_fld1(GridField(1, 1, "box", 0.5, (21,) * 4, values=_field_values(21, 1)), path)
    payload = 8 * 4 * 21**4
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        code = main(["identity-check", "--jets", "10", "--field", str(path), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out.read_text())["jets_tested"] == 10 + 4**4
    assert peak <= payload / 4


def test_bad_config_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"not_a_field": 1}))
    code, _ = run_cli(["identity-check", "--config", str(cfg)], capsys)
    assert code == 2


@pytest.mark.parametrize("text, kind", [
    ("5", "int"), ("[1, 2]", "list"), ('"x"', "str"), ("null", "NoneType"),
])
def test_config_that_is_not_an_object_exits_2(text, kind, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code = main(["identity-check", "--jets", "10", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"config must be a JSON object, got {kind}" in captured.err


@pytest.mark.parametrize("text, reason", [
    ('{"eps0": NaN}', "eps0 must be a finite float, got nan"),
    ('{"eps1": Infinity}', "eps1 must be a finite float, got inf"),
    ('{"r_out": -Infinity}', "r_out must be a finite float, got -inf"),
    ('{"magnitude": NaN}', "magnitude must be a finite float, got nan"),
    ('{"tol_identity": NaN}', "tol_identity must be a finite float, got nan"),
    ('{"grid": NaN}', "grid must be a finite int, got nan"),
    ('{"grid": 16.0}', "grid must be a finite int, got 16.0"),
    ('{"seed": true}', "seed must be a finite int, got True"),
    ('{"eps0": "0.1"}', "eps0 must be a finite float, got '0.1'"),
    ('{"eps0": 0}', "eps0 must be positive"),
    ('{"eps1": -0.1}', "eps1 must be positive"),
    ('{"r_out": 0.0}', "r_out must be positive"),
    ('{"tol_identity": 0.0}', "tol_identity must be positive"),
    ('{"ell": -3}', "ell must be at least 2"),
    ('{"ell": 0}', "ell must be at least 2"),
    ('{"ell": 1}', "ell must be at least 2"),
    ('{"m": 3}', "m must be 1 or 2"),
])
def test_bad_config_values_exit_2_with_the_reason(text, reason, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code = main(["extract-bubbles", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"config field {reason}" in captured.err


# a command reads only its own config fields (cli.READS); after the value
# checks, any other field exits 2 naming it (before, each was taken and ignored)
@pytest.mark.parametrize("argv, text, field", [
    (["identity-check", "--jets", "10"], '{"grid": 1}', "grid"),
    (["norms", "--fields", "2", "--grid", "8"], '{"m": 2}', "m"),
    (["solve-w21"], '{"ell": 8}', "ell"),
    (["extract-bubbles"], '{"seed": 5, "magnitude": 0.05, "grid": 16}', "grid', 'magnitude"),
])
def test_config_fields_the_command_does_not_read_exit_2(argv, text, field, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code = main(argv + ["--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"config fields not read by {argv[0]}: ['{field}']" in captured.err


def test_monotonicity_constant_field(capsys):
    code, out = run_cli(
        ["monotonicity", "--field", "constant", "--grid", "17"], capsys
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,ratio,radial_term,defect"
    for line in lines[1:]:
        _, ratio, term, defect = line.split(",")
        assert float(ratio) == 0.0 and float(term) == 0.0 and float(defect) == 0.0


def _ratio_over_r_squared(radius, capsys):
    code, out = run_cli(["monotonicity", "--grid", "12", "--radii", radius], capsys)
    assert code == 0
    r, ratio = out.splitlines()[1].split(",")[:2]
    return float(ratio) / float(r) ** 2


@pytest.mark.parametrize("radius", ["1e-13", "1e-60", "2.5e-77"])
def test_monotonicity_reads_the_same_scaled_ratio_down_to_the_floor(radius, capsys):
    # on grid 12, h = r / 2: below h = 1e-12 the ball pass once widened its
    # index windows by more than h and raised IndexError (r = 1e-13); at the
    # floor 2.443e-77 the cell volume h^4 is still a normal float
    want = _ratio_over_r_squared("1e-20", capsys)
    assert abs(_ratio_over_r_squared(radius, capsys) - want) <= 1e-14 * want


@pytest.mark.parametrize("radii", ["2.4e-77", "1e-200", "1e-200,0.3"])
def test_monotonicity_rejects_radii_below_the_floor(radii, capsys):
    # below the floor the ratios lost digits, then read 0, then NaN (r = 1e-200)
    code = main(["monotonicity", "--grid", "12", "--radii", radii])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: --radii must be at least 2.443e-77 on grid 12, "
                            f"got {float(radii.split(',')[0])!r}\n")


@pytest.mark.parametrize("grid, radii", [("13", "0.03,0.4"), ("33", "0.01,0.4")])
def test_monotonicity_reads_finite_with_the_centre_node_in_the_near_band(grid, radii, capsys):
    # on an odd grid the centre is a node; with the inner radius below the
    # cell-weight band (about 2h/3) it lay in the annulus, and its floored
    # distance 1e-300 raised to 2 - d overflowed: 0 * inf printed nan rows
    code = main(["monotonicity", "--grid", grid, "--radii", radii])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    assert len(rows) == 2
    assert all(np.isfinite(float(x)) for row in rows for x in row)
    assert float(rows[1][2]) > 0.0  # the annulus still has a radial term


@pytest.mark.parametrize("field, radius", [
    ("triholomorphic", "1e40"), ("triholomorphic", "1e60"), ("triholomorphic", "1e100"),
    ("triholomorphic", "1e200"), ("constant", "1e80")])
def test_monotonicity_rejects_radii_whose_ball_sums_overflow(field, radius, capsys):
    # these printed inf or nan after a numpy warning, exited 2 naming no flag,
    # or ended in an OverflowError traceback
    code = main(["monotonicity", "--grid", "12", "--field", field, "--radii", radius])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: --radii up to {float(radius)!r} overflow the ball sums "
                            "on grid 12\n")


def test_monotonicity_keeps_the_largest_ratio_below_the_ceiling(capsys):
    code, out = run_cli(["monotonicity", "--grid", "12", "--radii", "1e30"], capsys)
    assert code == 0
    assert out == "r,ratio,radial_term,defect\n1e+30,7.1207465869336782e+241,0,0\n"


def test_monotonicity_triholomorphic(capsys):
    code, out = run_cli(["monotonicity", "--grid", "33", "--seed", "3"], capsys)
    assert code == 0
    rows = [r.split(",") for r in out.strip().splitlines()[1:]]
    ratios = [float(r[1]) for r in rows]
    assert all(b >= a - 0.05 * max(ratios) for a, b in zip(ratios, ratios[1:]))


def test_norms_suite(capsys):
    code, out = run_cli(["norms", "--fields", "20", "--grid", "32", "--seed", "4"],
                        capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["weak_l1_ok"] and rep["lorentz_ordering_ok"]


def test_solve_w21_contracts(capsys):
    code, out = run_cli(["solve-w21", "--grid", "12", "--seed", "0"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["contraction"] < 0.5


def test_solve_w21_non_contraction(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"magnitude": 1.0, "grid": 12}))
    code, out = run_cli(
        ["solve-w21", "--config", str(cfg), "--max-iter", "80"], capsys
    )
    assert code == 1
    assert json.loads(out)["error"] == "non-contraction"


def _solve_w21_report(argv, capsys):
    """The report of a solve-w21 run that exits 1, with nothing on stderr."""
    code = main(["solve-w21"] + argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    return json.loads(captured.out)


@pytest.mark.parametrize("max_iter, last", [
    ("1", "no ratio measured"),
    ("2", "ratio 0.1350"),
    ("3", "ratio 0.4764"),
])
def test_solve_w21_cut_short_by_max_iter_is_not_converged(max_iter, last, capsys):
    # the solve contracts, but --max-iter stops it first: not a non-contraction
    rep = _solve_w21_report(["--grid", "8", "--max-iter", max_iter], capsys)
    assert rep["error"] == "not-converged"
    assert rep["detail"] == (f"did not reach tol=1e-10 in {max_iter} iterations ({last}); "
                             "increase max_iter")
    assert len(rep["ratios_tail"]) == int(max_iter) - 1
    assert all(r < 0.9 for r in rep["ratios_tail"])


@pytest.mark.parametrize("magnitude, at", [("1e154", 4), ("1e200", 3)])
def test_solve_w21_reports_an_overflowing_iterate_as_non_contraction(magnitude, at, capsys):
    # the iterate grows by ~magnitude a step, and overflows without a numpy warning
    rep = _solve_w21_report(["--grid", "6", "--magnitude", magnitude], capsys)
    assert rep["error"] == "non-contraction"
    assert rep["detail"] == f"non-contraction: the iterate overflowed at iteration {at}"
    assert len(rep["ratios_tail"]) == at - 2 and min(rep["ratios_tail"]) > 1e150


def test_extract_bubbles_two(capsys):
    code, out = run_cli(["extract-bubbles", "--manifest", "two", "--ell", "8"],
                        capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["report"]["bubble_count"] == 2
    assert rep["tree_text"].startswith("BTREE1")
    gap = rep["report"]["abs_gap"]
    assert gap <= 0.02 * rep["report"]["theta"]


def test_extract_bubbles_seed_zero_is_seed_zero(capsys):
    base = ["extract-bubbles", "--manifest", "two", "--ell", "8"]
    reports = {}
    for seed in (None, 0, 5):
        code, out = run_cli(base + ([] if seed is None else ["--seed", str(seed)]), capsys)
        assert code == 0
        reports[seed] = out
    # without --seed the bundled sequence seed 5 is used, and the report says so
    assert reports[None] == reports[5]
    zero, five = json.loads(reports[0]), json.loads(reports[5])
    assert zero["config"]["seed"] == 0 and five["config"]["seed"] == 5
    assert zero["report"] != five["report"]


def test_deterministic_reports(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code = main(["norms", "--fields", "10", "--grid", "24", "--seed", "7",
                     "--out", str(path)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


# ---------------------------------------------------------------------------
# flags are checked where they enter: exit 2 with a reason naming the flag


# a command defines only the flags of the fields it reads: m for identity-check,
# grid for the commands in cli.MIN_GRID (before, the others accepted and ignored them)
_UNREAD_FLAGS = [
    (["norms", "--m", "2"], "--m"),
    (["monotonicity", "--m", "2"], "--m"),
    (["identity-check", "--grid", "1"], "--grid"),
    (["extract-bubbles", "--grid", "1"], "--grid"),
]


@pytest.mark.parametrize("argv, flag", [
    (["monotonicity", "--radii", "nan", "--grid", "17"], "--radii"),
    (["monotonicity", "--radii", "0.1,inf"], "--radii"),
    (["monotonicity", "--radii", "0.1,-0.2"], "--radii"),
    (["monotonicity", "--radii", "0.1,0"], "--radii"),
    (["monotonicity", "--radii", "0.1,x"], "--radii"),
    (["norms", "--fields", "0"], "--fields"),
    (["identity-check", "--jets", "0"], "--jets"),
    (["solve-w21", "--tol", "-1"], "--tol"),
    (["solve-w21", "--tol", "0"], "--tol"),
    (["solve-w21", "--tol", "nan"], "--tol"),
    (["solve-w21", "--tol", "inf"], "--tol"),
    (["solve-w21", "--max-iter", "0"], "--max-iter"),
    (["solve-w21", "--magnitude", "nan"], "--magnitude"),
    (["solve-w21", "--magnitude", "-inf"], "--magnitude"),
    (["solve-w21", "--magnitude", "x"], "--magnitude"),
    (["extract-bubbles", "--ell", "-3"], "--ell"),
    (["extract-bubbles", "--ell", "0"], "--ell"),
    (["extract-bubbles", "--ell", "1"], "--ell"),
] + _UNREAD_FLAGS)
def test_bad_flag_values_exit_2_naming_the_flag(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    if (argv, flag) in _UNREAD_FLAGS:
        assert captured.err.endswith(f"error: unrecognized arguments: {flag} {argv[-1]}\n")
    else:
        assert f"argument {flag}:" in captured.err


# each grid command states its minimum once; below it, --grid and the config
# field grid exit 2 with the reason (before, norms --grid 1 and solve-w21
# --grid 3 exited 0 on a single node and a vanishing source)
@pytest.mark.parametrize("command, low, extra", [
    ("monotonicity", 12, []),
    ("norms", 5, ["--fields", "2"]),
    ("solve-w21", 6, []),
])
def test_grid_below_the_command_minimum_exits_2(command, low, extra, tmp_path, capsys):
    why = cli.MIN_GRID[command][1]
    for grid in sorted({1, 2, 3, low - 1}):
        with pytest.raises(SystemExit) as exc:
            main([command, "--grid", str(grid)] + extra)
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"argument --grid: must be at least {low} ({why}), got {grid}" in captured.err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": grid}))
        code = main([command, "--config", str(cfg)] + extra)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"config field grid must be at least {low} ({why}), got {grid}" in captured.err
    code, _ = run_cli([command, "--grid", str(low)] + extra, capsys)
    assert code == 0


# ---------------------------------------------------------------------------
# every exit-1 report carries an error and a detail


def test_unreliable_extrapolation_has_a_detail(monkeypatch, capsys):
    real = bubbletree.quantize

    def unreliable(*args, **kwargs):
        tree, report = real(*args, **kwargs)
        return tree, dict(report, theta_reliable=False)

    monkeypatch.setattr(bubbletree, "quantize", unreliable)
    code, out = run_cli(["extract-bubbles", "--manifest", "one", "--ell", "6"], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["error"] == "unreliable-extrapolation"
    assert "ell 5 and 6" in rep["detail"]


def test_no_concentration_exits_1_with_a_detail(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"eps0": 1000.0}')
    code, out = run_cli(["extract-bubbles", "--config", str(cfg)], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["error"] == "no-concentration"
    assert rep["config"]["eps0"] == 1000.0
    assert re.fullmatch(r"recovered profile energy \S+ below the bubble threshold",
                        rep["detail"])


def test_failed_norm_checks_have_an_error_and_a_detail(monkeypatch, capsys):
    monkeypatch.setattr(cli, "lorentz_2inf", lambda g: float("inf"))
    code, out = run_cli(["norms", "--fields", "3", "--grid", "16"], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["error"] == "norm-check-failed"
    assert rep["detail"].startswith("lorentz_ordering_ok false over 3 fields")


@pytest.mark.parametrize("flags, config, error", [
    # the deepest member the bubble model represents (ell 256 is past it)
    (["--ell", "255"], None, "no-concentration"),
    ([], '{"r_out": 1e-9}', "no-admissible-slice"),
    (["--ell", "200"], None, "no-concentration"),
    ([], '{"eps0": 1e6}', "no-concentration"),
    # the descent passes the 1e-14 floor while the ratio is still above target
    (["--ell", "20"], None, "no-concentration"),
    (["--ell", "100"], None, "no-concentration"),
])
def test_extract_bubbles_exits_1_with_a_report_not_a_traceback(flags, config, error, tmp_path,
                                                               capsys):
    # in-process, so a numpy warning on the way is an error
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        flags = flags + ["--config", str(tmp_path / "cfg.json")]
    code, out = run_cli(["extract-bubbles", "--manifest", "two", *flags], capsys)
    assert code == 1
    rep = json.loads(out)  # one JSON object, nothing else
    assert rep["error"] == error and rep["detail"]
    if config == '{"r_out": 1e-9}':  # below the slice quadrature's inner radius
        assert "r_out" in rep["detail"]
    if flags[:1] == ["--ell"]:
        assert "floor" in rep["detail"]


def _no_constant(name):
    raise AssertionError(f"the report holds {name}")


# the first member past the bubble model, where a bubble's core energy
# density 8 a^2 / scale^2 overflows: ell 256 for "two" and 171 for "three"
@pytest.mark.parametrize("manifest, ell, past", [
    ("two", 200, False), ("two", 255, False), ("two", 256, True), ("two", 257, True),
    ("two", 553, True), ("three", 170, False), ("three", 171, True),
])
def test_deep_members_print_no_numpy_warning_and_no_nan(manifest, ell, past):
    # a fresh process: what the user sees on stderr
    src = Path(cli.__file__).resolve().parent.parent
    run = subprocess.run([sys.executable, "-m", "fueterlab.cli", "extract-bubbles",
                          "--manifest", manifest, "--ell", str(ell)], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src)))
    if past:
        assert run.returncode == 2 and run.stdout == ""
        assert re.fullmatch(rf"error: ell {ell} is past the bubble model: the scale law "
                            r"1\.0 \* [248]\.0\^-ell gives the scale \S+, at which the core "
                            r"energy density 8 a\^2 / scale\^2 overflows \(a = \S+\)\n",
                            run.stderr)
    else:
        assert run.returncode == 1 and run.stderr == ""
        rep = json.loads(run.stdout, parse_constant=_no_constant)
        assert rep["error"] == "no-concentration" and "floor" in rep["detail"]


# ---------------------------------------------------------------------------
# reports against committed bytes.  A deliberate report change regenerates
# the file with `python -m fueterlab.cli ARGS > tests/golden/NAME`; the
# identity-check field is the one `_golden_field` writes (the same bytes as
# `python3 bench/inputs.py 3 PATH`).


def _golden_field(path):
    from fueterlab.fields import standard_triholomorphic_field

    poly = standard_triholomorphic_field(seed=3, degree=4)
    save_fld1(GridField.from_function(poly, 1, 1, 33, domain="box", L=0.5), path)
    return str(path)


GOLDEN_REPORTS = {
    "norms.json": ["norms", "--fields", "100", "--grid", "32", "--seed", "3"],
    "solve-w21.json": ["solve-w21", "--grid", "20", "--seed", "3"],
    "identity-check.json": ["identity-check", "--jets", "10000", "--field", "FIELD",
                            "--seed", "3"],
    "monotonicity.csv": ["monotonicity", "--grid", "33", "--seed", "3"],
    "extract-bubbles-two.json": ["extract-bubbles", "--manifest", "two", "--ell", "8",
                                 "--seed", "5"],
    "extract-bubbles-three.json": ["extract-bubbles", "--manifest", "three", "--ell", "12"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_report_matches_the_golden_bytes(name, tmp_path):
    argv = list(GOLDEN_REPORTS[name])
    if "FIELD" in argv:
        argv[argv.index("FIELD")] = _golden_field(tmp_path / "field.fld1")
    out = tmp_path / "report"
    code = main(argv + ["--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN_REPORTS))
def test_report_matches_the_golden_bytes_on_one_openblas_thread(name, tmp_path):
    # the goldens above run in-process, on the thread count the test run
    # inherits; a fresh CLI process on one OpenBLAS thread writes the same bytes
    argv = list(GOLDEN_REPORTS[name])
    if "FIELD" in argv:
        argv[argv.index("FIELD")] = _golden_field(tmp_path / "field.fld1")
    out = tmp_path / "report"
    src = Path(cli.__file__).resolve().parent.parent
    run = subprocess.run([sys.executable, "-m", "fueterlab.cli", *argv, "--out", str(out)],
                         capture_output=True, text=True,
                         env=dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src)))
    assert run.returncode == 0, run.stderr
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# ---------------------------------------------------------------------------
# every exported name resolves, so a deletion cannot leave an export behind


@pytest.mark.parametrize("name", ["quat", "stencil", "exterior", "fields", "monotone",
                                  "norms", "poisson", "bubbletree"])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"fueterlab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from fueterlab.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_every_bench_probe_resolves():
    # bench/spans.py (standard library only) wraps these names by string; a
    # rename or a by-name import dropped from cli breaks the bench, so it
    # fails here first
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for _, target, _ in spans.PROBES:
        modname, qualname = target.split(":")
        obj = importlib.import_module(modname)
        for attr in qualname.split("."):
            obj = getattr(obj, attr, None)
        if not callable(obj):
            missing.append(target)
    assert missing == []
    assert cli.ratio_profile is monotone.ratio_profile
    assert cli.hl_maximal is norms.hl_maximal
