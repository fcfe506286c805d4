import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from fueterlab import bubbletree, cli
from fueterlab.cli import main
from fueterlab.fields import GridField, save_fld1

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


def test_failed_norm_checks_have_an_error_and_a_detail(monkeypatch, capsys):
    monkeypatch.setattr(cli, "lorentz_2inf", lambda g: float("inf"))
    code, out = run_cli(["norms", "--fields", "3", "--grid", "16"], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["error"] == "norm-check-failed"
    assert rep["detail"].startswith("lorentz_ordering_ok false over 3 fields")


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
