"""Tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py -q

The last test runs every workload for one pass at a second seed, which takes
about half a minute on two cores.
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import spans
import worker
from worker import CheckFailed, Op

BENCH = Path(__file__).resolve().parent


def span(name, start, end, parent=None, thread=0):
    return [name, float(start), float(end), parent, thread]


def test_self_time_on_nested_tree():
    tree = [
        span("a", 0, 10),
        span("b", 1, 4, parent=0),
        span("c", 5, 9, parent=0),
        span("d", 2, 3, parent=1),
        span("d", 6, 7, parent=2),
    ]
    own, unattributed = spans.attribute(tree, 0.0, 12.0)
    assert own == pytest.approx({"a": 3.0, "b": 2.0, "c": 3.0, "d": 2.0})
    assert unattributed == pytest.approx(2.0)
    # a window clips the spans that cross it
    own, unattributed = spans.attribute(tree, 2.5, 6.5)
    assert own == pytest.approx({"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0})
    assert unattributed == pytest.approx(0.0)


def test_concurrent_children_share_the_interval():
    tree = [
        span("main", 0, 10),
        span("t1", 2, 6, parent=0, thread=1),
        span("t2", 4, 8, parent=0, thread=2),
    ]
    own, unattributed = spans.attribute(tree, 0.0, 10.0)
    assert own == pytest.approx({"main": 4.0, "t1": 3.0, "t2": 3.0})
    assert sum(own.values()) + unattributed == pytest.approx(10.0)


def test_layer_metrics_add_up_to_the_pass_wall():
    dump = {
        "spans": [span("monotone.ball", 1, 5), span("fields.poly_eval", 2, 3, parent=0),
                  span("cli.self", 6, 7)],
        "counts": {"fields.poly_points": 600.0},
        "grid_nodes": 200,
    }
    m = spans.layer_metrics(dump, 0.0, 8.0)
    assert set(m) == {n for n, _ in spans.LAYER_METRICS} - {"trace.overhead_frac"}
    times = sum(v for k, v in m.items() if k.endswith("_s") and k != "trace.wall_s")
    assert times == pytest.approx(m["trace.wall_s"]) and m["trace.wall_s"] == 8.0
    assert m["monotone.ball_s"] == pytest.approx(3.0)
    assert m["trace.unattributed_s"] == pytest.approx(3.0)
    assert m["fields.evals_per_node"] == pytest.approx(3.0)
    with pytest.raises(ValueError, match="without a metric"):
        spans.layer_metrics({**dump, "spans": [span("unknown", 0, 1)]}, 0.0, 8.0)


def _bindings():
    """Identity of every attribute of every fueterlab module, and of the
    probed methods."""
    from fueterlab.bubbletree import ConcentratingSequence
    from fueterlab.fields import FueterPolynomialMap

    out = {(name, key): id(value) for name, mod in sys.modules.items()
           if name == "fueterlab" or name.startswith("fueterlab.")
           for key, value in vars(mod).items()}
    out["value"] = id(FueterPolynomialMap.__dict__["value"])
    out["slice_map"] = id(ConcentratingSequence.__dict__["slice_map"])
    return out


def test_wrappers_fully_restored(tmp_path):
    from fueterlab import bubbletree, cli, monotone, norms, poisson  # noqa: F401

    before = _bindings()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with spans.traced(tracer):
            # a by-name import in cli sees the same wrapper as the defining module
            assert cli.ratio_profile is monotone.ratio_profile
            assert cli.hl_maximal is norms.hl_maximal
            assert hasattr(norms.hl_maximal, "__wrapped__")
            out = tmp_path / "report.json"
            assert cli.main(["identity-check", "--jets", "10", "--out", str(out)]) == 0
            raise RuntimeError("leave the traced block by an exception")
    assert _bindings() == before
    assert not hasattr(norms.hl_maximal, "__wrapped__")
    names = {s[0] for s in tracer.spans}
    assert {"cli.self", "fields.identity"} <= names


def test_evals_per_node_counts_repeated_evaluation():
    from fueterlab import fields, monotone

    poly = fields.standard_triholomorphic_field(seed=0, degree=2)
    u = fields.GridField.from_function(poly, 1, 1, 17, domain="box", L=0.5)
    tracer = spans.Tracer()
    for passes in (1, 2):
        with spans.traced(tracer):
            monotone.energy_ratio(u, np.zeros(4), 0.1)
        dump = tracer.dump()
        # one ball pass evaluates each node of its window once
        assert dump["counts"]["fields.poly_points"] == passes * dump["grid_nodes"]
    assert 0 < dump["grid_nodes"] < 17**4


class _Workload:
    in_process = True


def test_checker_counts_perturbed_results_as_failures(tmp_path, capsys):
    from fueterlab import fields

    u = fields.GridField.from_array(np.random.default_rng(0).normal(size=(7, 7, 7, 7, 4)), 1, 1)
    path = tmp_path / "u.fld1"

    def loaded_and_perturbed(tracer):
        fields.save_fld1(u, path)
        v = fields.load_fld1(path)
        v.values[3, 3, 3, 3, 0] = np.nextafter(v.values[3, 3, 3, 3, 0], np.inf)
        return v

    def raises(tracer):
        raise ZeroDivisionError

    ops = [
        Op("round_trip", lambda tracer: fields.load_fld1(path),
           lambda v: worker.check_round_trip(u, v)),
        Op("perturbed", loaded_and_perturbed, lambda v: worker.check_round_trip(u, v)),
        Op("raises", raises, lambda out: {}),
        Op("off_reference", lambda tracer: 1.0 + 1e-6, lambda x: {"x": x}),
    ]
    fields.save_fld1(u, path)
    reference = {"round_trip": {}, "perturbed": {}, "raises": {}, "off_reference": {"x": 1.0}}
    record, summaries = worker.run_pass("test", _Workload(), ops, None, reference)
    assert (record["attempted"], record["failed"]) == (4, 3)
    assert set(summaries) == {"round_trip"}
    err = capsys.readouterr().err
    assert "perturbed failed" in err and "raises failed" in err and "off_reference failed" in err


def test_reference_comparison():
    worker.compare({"a": 1.0 + 1e-12, "b": [2, True]}, {"a": 1.0, "b": [2, True]})
    with pytest.raises(CheckFailed):
        worker.compare({"a": 1.0 + 1e-8, "b": [2, True]}, {"a": 1.0, "b": [2, True]})
    with pytest.raises(CheckFailed):
        worker.compare({"a": 1.0}, {"a": 1.0, "b": [2, True]})


def test_quantize_check_rejects_a_wrong_bubble_count():
    manifest = SimpleNamespace(energies=[1.0, 1.0])
    tree = SimpleNamespace(depth=lambda: 1)
    rep = {"theta": 2.0, "theta_reliable": True, "bubble_count": 2, "abs_gap": 0.01,
           "residual_neck_energy": 0.05, "sum_energies": 1.99, "depth": 1,
           "crossing_scales": [1e-3]}
    seq = SimpleNamespace(manifest=manifest)
    worker.BubbleQuantize.check_quantized(seq, (tree, rep))
    with pytest.raises(CheckFailed, match="bubbles"):
        worker.BubbleQuantize.check_quantized(seq, (tree, {**rep, "bubble_count": 3}))
    with pytest.raises(CheckFailed, match="gap"):
        worker.BubbleQuantize.check_quantized(seq, (tree, {**rep, "abs_gap": 0.05}))


@pytest.mark.parametrize("workload", sorted(worker.WORKLOADS))
def test_second_seed_passes_every_check(workload, tmp_path):
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "4",
         "--seconds", "0", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    passes = json.loads(out.read_text())["passes"]
    assert [(p["attempted"] > 0, p["failed"]) for p in passes] == [(True, 0)], proc.stderr
