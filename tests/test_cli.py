import contextlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gsds import DependencyGraph, Field, GsdsModel, RatePolicy, continuous
from gsds.cli import COMMANDS as TABLE, HELP, _help, _hybrid_json, _read, main
from gsds.continuous import hybrid_simulate
from gsds.errors import ZenoError
from gsds.infer import TransitionData, load_series, save_series
from gsds.network import RANGE_MAX_LINES, SUBCUBE_MAX_POINTS, save_model
from gsds.polyring import Polynomial, parse_poly
from gsds.translate import GeneThresholds, ThresholdMap

from oracles import oracle_hybrid_report, oracle_read
from conftest import (
    EX3_ROWS,
    EX3_TIMES,
    build_ex3_thresholds,
    build_example1,
    build_example2,
    build_example3,
)


@pytest.fixture
def workspace(tmp_path):
    """Example files on disk: models, thresholds, CSV, rates."""
    paths = {}
    paths["ex1"] = tmp_path / "ex1.json"
    save_model(build_example1(), paths["ex1"])
    paths["ex3"] = tmp_path / "ex3.json"
    save_model(build_example3(), paths["ex3"])
    paths["fsm"] = tmp_path / "fsm.json"
    save_model(build_example2(), paths["fsm"])

    paths["thresholds"] = tmp_path / "thresholds.json"
    from gsds.translate import save_thresholds

    save_thresholds(build_ex3_thresholds("balanced"), ["g1", "g2", "g3"], paths["thresholds"])

    paths["csv"] = tmp_path / "micro.csv"
    lines = ["t,g1,g2,g3"]
    for t, row in zip(EX3_TIMES, EX3_ROWS):
        lines.append(",".join(str(v) for v in (t, *row)))
    paths["csv"].write_text("\n".join(lines) + "\n")

    paths["dir"] = tmp_path
    return paths


def run(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate ----------------------------------------------------------------


def test_validate_ok(workspace, capsys):
    code, out, _ = run(capsys, "validate", workspace["ex3"])
    assert code == 0
    assert out.strip() == "valid"


def test_validate_reports_violations_with_exit_2(workspace, capsys):
    code, _, err = run(capsys, "validate", workspace["fsm"])
    assert code == 2
    assert "range" in err


def test_validation_failures_name_genes(workspace, capsys):
    # the mixed-state network's g2 maps into 2, outside its levels {0, 1}
    for args in (["validate"], ["simulate", "--state", "000"]):
        code, _, err = run(capsys, args[0], workspace["fsm"], *args[1:])
        assert code == 2
        assert "  range: f[g2](1, 0, 1) = 2, outside the gene's state set\n" in err
        assert "#" not in err


def constant_gene_model(path, q, sizes):
    """GF(q), parallel: g1 = 1 with state set {0}, and gene j + 2 keeps
    its value on the levels range(sizes[j]): every state is a range
    violation of g1."""
    genes = [f"g{j + 1}" for j in range(len(sizes) + 1)]
    states = {"g1": [0], **{g: list(range(k)) for g, k in zip(genes[1:], sizes)}}
    locals_ = {g: "1" if j == 0 else f"x{j + 1}" for j, g in enumerate(genes)}
    path.write_text(json.dumps({"field": q, "genes": genes, "states": states,
                                "edges": [], "locals": locals_, "schedule": None}))
    return path


def test_validate_caps_the_range_lines_of_a_gene(tmp_path, capsys):
    # a GF(2)^18 model with 2^17 states, each listed before the cap
    code, _, err = run(capsys, "validate", constant_gene_model(tmp_path / "m.json", 2, [2] * 17))
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 2 + RANGE_MAX_LINES and len(err) < 2000
    assert lines[1] == f"  range: f[g1]{(0,) * 18} = 1, outside the gene's state set"
    assert lines[-1] == (f"  range: f[g1] ... and {2**17 - RANGE_MAX_LINES} more states "
                         "outside the gene's state set")


@pytest.mark.parametrize("command", [["validate"], ["simulate", "--state", "0" * 19]])
def test_a_subcube_past_the_table_limit_exits_1_with_one_line(tmp_path, capsys, command):
    # g1 = x1*...*x19 over GF(2) reads 2^19 points, twice SUBCUBE_MAX_POINTS:
    # refused, naming the gene, before any table is built; with x19 left
    # out, the 2^18 points are tabulated.  Every gene feeds g1, so the
    # model is valid as far as locality goes.
    genes = [f"g{j + 1}" for j in range(19)]
    doc = {"field": 2, "genes": genes, "edges": [[g, "g1"] for g in genes],
           "locals": {g: f"x{j + 1}" for j, g in enumerate(genes)}, "schedule": None}
    assert SUBCUBE_MAX_POINTS == 2**18
    for width in (18, 19):
        path = tmp_path / f"width-{width}.json"
        doc["locals"]["g1"] = "*".join(f"x{j + 1}" for j in range(width))
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, command[0], path, *command[1:])
        if width == 18:
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (1, "error: gene 'g1' reads a subcube of 524288 points, "
                                      "above the limit (262144)\n")


def test_a_coefficient_table_past_the_limit_exits_1_with_one_line(tmp_path, capsys):
    # over GF(257) with two levels per gene, g1 reads 8 subcube points;
    # x1^200*x2^200*x3^200 takes 3^3 table cells, and the sum of
    # (x1*x2*x3)^k for k = 2..64 takes (2 + 63)^3, past the limit
    genes = ["g1", "g2", "g3"]
    doc = {"format_version": 1, "field": 257, "genes": genes,
           "states": {g: [0, 1] for g in genes}, "edges": [[g, "g1"] for g in genes],
           "locals": {"g1": "x1^200*x2^200*x3^200", "g2": "x2", "g3": "x3"},
           "schedule": None}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "validate", path) == (0, "valid\n", "")
    doc["locals"]["g1"] = " + ".join(f"x1^{k}*x2^{k}*x3^{k}" for k in range(2, 65))
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (1, "")
    assert err == "error: gene 'g1' needs a table of 274625 cells, above the limit (262144)\n"


@pytest.mark.parametrize("order", [4.0, 3.0, True, "4"])
def test_a_field_order_that_is_not_an_int_exits_1_with_one_line(tmp_path, capsys, order):
    # 4.0 == 4 once passed for GF(4), then failed building its tables
    path = tmp_path / "m4.json"
    path.write_text(json.dumps({"format_version": 1, "field": order, "genes": ["a"],
                                "edges": [], "locals": {"a": "1"}, "schedule": None}))
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (1, "")
    assert err == (f"error: malformed model file {path}: field order must be prime "
                   f"(<= 257) or 4, got {order!r}\n")


@pytest.mark.parametrize("q, sizes", [(5, [5, 2]), (11, [11])])
def test_range_lines_at_and_past_the_cap(tmp_path, capsys, q, sizes):
    count = math.prod(sizes)  # 10 and 11 violations
    code, _, err = run(capsys, "validate", constant_gene_model(tmp_path / "m.json", q, sizes))
    lines = err.splitlines()[1:]
    assert code == 2 and len(lines) == min(count, RANGE_MAX_LINES) + (count > RANGE_MAX_LINES)
    assert all(line.endswith("= 1, outside the gene's state set") for line in lines[:RANGE_MAX_LINES])
    if count > RANGE_MAX_LINES:
        assert lines[-1] == (f"  range: f[g1] ... and {count - RANGE_MAX_LINES} more states "
                             "outside the gene's state set")


# -- simulate ----------------------------------------------------------------


def test_simulate_example1(workspace, capsys):
    code, out, _ = run(
        capsys, "simulate", workspace["ex1"], "--state", "0000", "--steps", "3"
    )
    assert code == 0
    assert out.splitlines()[-1] == "(1,1,1,0)"


def test_simulate_zero_steps_echoes_state(workspace, capsys):
    code, out, _ = run(
        capsys, "simulate", workspace["ex1"], "--state", "0110", "--steps", "0"
    )
    assert code == 0
    assert out.splitlines() == ["(0,1,1,0)"]


def test_simulate_balanced_cycle(workspace, capsys):
    code, out, _ = run(
        capsys, "simulate", workspace["ex3"], "--state", "(-1,1,-1)",
        "--steps", "3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == lines[-1] == "(-1,1,-1)"


def test_simulate_json_output(workspace, capsys):
    code, out, _ = run(
        capsys, "simulate", workspace["ex3"], "--state", "(-1,1,-1)",
        "--steps", "1", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["states"] == [[-1, 1, -1], [0, 1, 0]]


@pytest.mark.parametrize("model, state", [("ex1", "0110"), ("ex3", "(-1,1,-1)")])
def test_simulate_json_is_the_report_dumped(workspace, capsys, model, state):
    code, out, _ = run(capsys, "simulate", workspace[model], "--state", state, "-T", "5", "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_simulate_writes_each_state_as_it_is_made(workspace, flags):
    # 30 000 states held as a list, or their text joined, take megabytes
    argv = ["simulate", str(workspace["ex3"]), "--state", "(-1,1,-1)", "-T", "30000", *flags]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 1 << 20


def test_simulate_display_override(workspace, capsys):
    code, out, _ = run(
        capsys, "simulate", workspace["ex3"], "--state", "(2,1,2)",
        "--steps", "1", "--display", "canonical",
    )
    assert code == 0
    assert out.splitlines() == ["(2,1,2)", "(0,1,0)"]


def test_simulate_invalid_model_exits_2(workspace, capsys):
    code, _, err = run(
        capsys, "simulate", workspace["fsm"], "--state", "(0,0,0)", "--steps", "1"
    )
    assert code == 2
    assert "validation failed" in err


def test_simulate_bad_state_exits_1(workspace, capsys):
    code, _, err = run(
        capsys, "simulate", workspace["ex1"], "--state", "01", "--steps", "1"
    )
    assert code == 1


# -- portrait ----------------------------------------------------------------


def test_portrait_report(workspace, capsys):
    code, out, _ = run(capsys, "portrait", workspace["ex1"])
    assert code == 0
    report = json.loads(out)
    assert report["attractor_count"] == 1
    assert report["attractors"][0]["length"] == 1
    assert report["attractors"][0]["states"] == [[1, 1, 1, 0]]
    assert report["max_transient"] == 3


def test_portrait_identity_model(tmp_path, capsys):
    from gsds import DependencyGraph, Field, GsdsModel
    from gsds.polyring import parse_poly

    field = Field(3)
    m = GsdsModel(field, ["a", "b"], DependencyGraph(2, set()),
                  [parse_poly("x1", 2, field), parse_poly("x2", 2, field)],
                  [0, 1])
    path = tmp_path / "id.json"
    save_model(m, path)
    code, out, _ = run(capsys, "portrait", path)
    assert code == 0
    assert json.loads(out)["attractor_count"] == 9


def test_portrait_writes_files(workspace, capsys):
    json_out = workspace["dir"] / "report.json"
    dot_out = workspace["dir"] / "graph.dot"
    summary_out = workspace["dir"] / "summary.dot"
    code, out, _ = run(
        capsys, "portrait", workspace["ex3"],
        "--json", json_out, "--dot", dot_out, "--summary-dot", summary_out,
    )
    assert code == 0
    assert json.loads(json_out.read_text()) == json.loads(out)
    assert "->" in dot_out.read_text()
    assert "attractor 0" in summary_out.read_text()


def test_portrait_json_file_is_stdout(tmp_path, capsys, monkeypatch):
    # a GF(3)^4 rotation: cycles of up to 4 states, written in blocks of 3
    n, field = 4, Field(3)
    m = GsdsModel(field, [f"g{i}" for i in range(n)],
                  DependencyGraph(n, {((i + 1) % n, i) for i in range(n)}),
                  [parse_poly(f"x{(i + 1) % n + 1}", n, field) for i in range(n)], None)
    save_model(m, tmp_path / "rot.json")
    monkeypatch.setattr("gsds.dynamics.DOT_BLOCK_STATES", 3)
    code, out, _ = run(capsys, "portrait", tmp_path / "rot.json", "--json", tmp_path / "r.json")
    assert code == 0 and json.loads(out)["attractor_count"] == 24
    assert (tmp_path / "r.json").read_bytes() == out.encode()


def test_portrait_byte_identical_across_workers(workspace, capsys):
    outputs = []
    for workers in (1, 2, 8):
        code, out, _ = run(
            capsys, "portrait", workspace["ex3"], "--workers", workers
        )
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_portrait_rejects_nonpositive_workers(workspace, capsys):
    code, _, err = run(capsys, "portrait", workspace["ex3"], "--workers", 0)
    assert code == 1
    assert "--workers" in err


def test_portrait_rejects_duplicate_levels(workspace, capsys):
    path = workspace["dir"] / "dup.json"
    path.write_text(json.dumps({
        "field": 2, "genes": ["a", "b"], "states": {"a": [0, 0, 1]},
        "locals": {"a": "x1", "b": "x2"}, "schedule": None,
    }))
    code, out, err = run(capsys, "portrait", path)
    assert code == 1
    assert out == ""
    assert "duplicate" in err


# -- fit / discretize / check --------------------------------------------------


def test_fit_needs_two_samples(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("t,g\n0,1.5\n")
    assert run(capsys, "fit", path) == (1, "", "error: need at least two samples to fit\n")


def test_fit_matches_known_segments(workspace, capsys):
    code, out, _ = run(capsys, "fit", workspace["csv"])
    assert code == 0
    report = json.loads(out)
    g1 = report["genes"]["g1"]["segments"]
    for (a, b), (ea, eb) in zip(
        g1, [(0.28, 0.5), (0.72, 0.06), (-1.0, 3.5)]
    ):
        assert a == pytest.approx(ea, abs=1e-12)
        assert b == pytest.approx(eb, abs=1e-12)
    assert report["genes"]["g2"]["segments"] == [[0.0, 1.2]] * 3


def test_discretize_produces_series(workspace, capsys):
    series_out = workspace["dir"] / "series.json"
    code, out, _ = run(
        capsys, "discretize", workspace["csv"],
        "--thresholds", workspace["thresholds"], "-o", series_out,
    )
    assert code == 0
    data = json.loads(out)
    assert data["states"] == [[-1, 1, -1], [0, 1, 0], [1, 1, 1], [-1, 1, -1]]
    # the file holds the printed text, the bytes save_series writes
    assert series_out.read_text() == out
    save_series(load_series(series_out), workspace["dir"] / "saved.json")
    assert (workspace["dir"] / "saved.json").read_text() == out


def test_discretize_carries_threshold_display(workspace, capsys):
    from gsds.translate import save_thresholds

    for display, first in (("balanced", [-1, 1, -1]), ("canonical", [2, 1, 2])):
        path = workspace["dir"] / f"th_{display}.json"
        save_thresholds(build_ex3_thresholds(display), ["g1", "g2", "g3"], path)
        code, out, _ = run(capsys, "discretize", workspace["csv"], "--thresholds", path)
        assert code == 0
        data = json.loads(out)
        assert data.get("display", "canonical") == display
        assert data["states"][0] == first


def test_discretize_collapse_flag(workspace, capsys):
    constant_csv = workspace["dir"] / "const.csv"
    constant_csv.write_text("t,g1\n0,0.5\n1,0.5\n2,0.5\n")
    th = workspace["dir"] / "th1.json"
    th.write_text(json.dumps({
        "format_version": 1, "field": 3, "display": "balanced",
        "genes": {"g1": {"levels": [{"threshold": 1.0, "below_level": -1,
                                     "equal_level": 0}], "top_level": 1}},
    }))
    code, out, _ = run(
        capsys, "discretize", constant_csv, "--thresholds", th, "--collapse"
    )
    assert code == 0
    assert json.loads(out)["states"] == [[-1]]


@pytest.mark.parametrize("command", ["fit", "discretize", "check"])
def test_repeated_gene_column_exits_1(workspace, capsys, command):
    csv = workspace["dir"] / "repeated.csv"
    csv.write_text("t,g1,g2,g3,g1\n0,0.5,1,1,0.7\n1,1.5,1,1,0.2\n")
    argv = {"fit": ["fit", csv],
            "discretize": ["discretize", csv, "--thresholds", workspace["thresholds"]],
            "check": ["check", csv, "--thresholds", workspace["thresholds"],
                      "--model", workspace["ex3"]]}
    code, out, err = run(capsys, *argv[command])
    assert code == 1
    assert out == ""
    assert err == "error: sample CSV repeats gene column(s) g1\n"


def test_check_compatible(workspace, capsys):
    code, out, _ = run(
        capsys, "check", workspace["csv"],
        "--thresholds", workspace["thresholds"], "--model", workspace["ex3"],
    )
    assert code == 0
    verdict = json.loads(out)
    assert verdict["compatible"] is True
    assert verdict["checked"] == 3


def test_check_incompatible_exits_4(workspace, capsys):
    identity_model = workspace["dir"] / "identity3.json"
    from gsds import DependencyGraph, Field, GsdsModel
    from gsds.polyring import parse_poly

    field = Field(3)
    m = GsdsModel(
        field, ["g1", "g2", "g3"], DependencyGraph(3, set()),
        [parse_poly(f"x{j}", 3, field) for j in (1, 2, 3)],
        [0, 1, 2], display="balanced",
    )
    save_model(m, identity_model)
    code, out, err = run(
        capsys, "check", workspace["csv"],
        "--thresholds", workspace["thresholds"], "--model", identity_model,
    )
    assert code == 4
    verdict = json.loads(out)
    assert verdict["compatible"] is False
    assert verdict["counterexamples"][0]["pair"] == 0
    assert "pair 0" in err


def test_check_with_fewer_csv_genes_than_model_genes_exits_1(workspace, capsys):
    csv = workspace["dir"] / "two_genes.csv"
    rows = [f"{t},{a},{b}" for t, (a, b, _) in zip(EX3_TIMES, EX3_ROWS)]
    csv.write_text("\n".join(["t,g1,g2"] + rows) + "\n")
    code, out, err = run(
        capsys, "check", csv,
        "--thresholds", workspace["thresholds"], "--model", workspace["ex3"],
    )
    assert (code, out) == (1, "")
    assert err == f"error: sample CSV {csv} has no column for gene 'g3'\n"


def ab_check(tmp_path, capsys, header, rows):
    """``gsds check`` of the samples (0,0), (1,0), (1,1) written under ``header``
    against genes a, b with f = (1, x1) and one threshold of 0.5 each."""
    field = Field(2)
    model, th, csv = (tmp_path / name for name in ("ab.json", "ab-th.json", "ab.csv"))
    save_model(GsdsModel(field, ["a", "b"], DependencyGraph(2, {(0, 1)}),
                         [parse_poly("1", 2, field), parse_poly("x1", 2, field)], None), model)
    th.write_text(json.dumps({"format_version": 1, "field": 2, "genes": {g: {
        "levels": [{"threshold": 0.5, "below_level": 0}], "top_level": 1} for g in "ab"}}))
    csv.write_text("\n".join([header, *rows]) + "\n")
    return (*run(capsys, "check", csv, "--thresholds", th, "--model", model), csv)


def test_check_reads_csv_columns_by_gene_name(tmp_path, capsys):
    in_order = ab_check(tmp_path, capsys, "t,a,b", ["0,0,0", "1,1,0", "2,1,1"])
    assert in_order[:3] == (0, json.dumps({"format_version": 1, "compatible": True,
                                           "checked": 2, "counterexamples": []}, indent=2)
                            + "\n", "")
    assert ab_check(tmp_path, capsys, "t,b,a", ["0,0,0", "1,0,1", "2,1,1"])[:3] == in_order[:3]


def test_check_ignores_csv_columns_of_other_genes(tmp_path, capsys):
    in_order = ab_check(tmp_path, capsys, "t,a,b", ["0,0,0", "1,1,0", "2,1,1"])
    extra = ab_check(tmp_path, capsys, "t,z,b,a", ["0,7,0,0", "1,-3,0,1", "2,5e9,1,1"])
    assert extra[:3] == in_order[:3] and extra[0] == 0
    # only the model's columns are read, so z's nan is never parsed and a
    # repeated z is never ambiguous
    not_finite = ab_check(tmp_path, capsys, "t,a,b,z", ["0,0,0,nan", "1,1,0,nan", "2,1,1,x"])
    repeated = ab_check(tmp_path, capsys, "t,z,a,b,z", ["0,1,0,0,1", "1,1,1,0,1", "2,1,1,1,1"])
    assert not_finite[:3] == repeated[:3] == in_order[:3]


def test_check_names_the_csv_and_the_gene_it_lacks(tmp_path, capsys):
    code, out, err, csv = ab_check(tmp_path, capsys, "t,a", ["0,0", "1,1", "2,1"])
    assert (code, out) == (1, "")
    assert err == f"error: sample CSV {csv} has no column for gene 'b'\n"


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 2.5]) | st.floats(0, 3),
                         min_size=3, max_size=3), min_size=2, max_size=5),
       st.permutations([0, 1, 2]), st.booleans())
def test_check_output_ignores_csv_column_order(workspace, capsys, rows, order, extra):
    def check(columns):
        csv = workspace["dir"] / "permuted.csv"
        names = ["g1", "g2", "g3", "x"]
        lines = [",".join(["t", *(names[j] for j in columns)])]
        lines += [",".join(map(repr, [float(t), *(row[j] if j < 3 else -1.0 for j in columns)]))
                  for t, row in enumerate(rows)]
        csv.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "check", csv, "--thresholds", workspace["thresholds"],
                           "--model", workspace["ex3"])
        return code, out

    assert check(order + [3] * extra) == check([0, 1, 2])


def outside_level_files(tmp_path):
    """A GF(3) model whose gene a keeps the levels {0, 1}, with f_a = x1 and
    f_b = x1 + x2, and a threshold file sending a to level 2 above 1.0."""
    from gsds import DependencyGraph, Field, GsdsModel
    from gsds.polyring import parse_poly

    field = Field(3)
    m = GsdsModel(field, ["a", "b"], DependencyGraph(2, {(0, 1)}),
                  [parse_poly("x1", 2, field), parse_poly("x1 + x2", 2, field)], None,
                  state_sets=[(0, 1), (0, 1, 2)])
    paths = {k: tmp_path / f"{k}.json" for k in ("model", "th", "rates")}
    save_model(m, paths["model"])
    paths["th"].write_text(json.dumps({"format_version": 1, "field": 3, "genes": {
        "a": {"levels": [{"threshold": 1.0, "below_level": 0}], "top_level": 2},
        "b": {"levels": [{"threshold": 1.0, "below_level": 0}], "top_level": 1}}}))
    paths["rates"].write_text(json.dumps({"format_version": 1, "rates": {
        g: {"0": -1.0, "1": 1.0, "2": 1.0} for g in ("a", "b")}}))
    paths["csv"] = tmp_path / "samples.csv"
    paths["csv"].write_text("t,a,b\n0,1.5,0.5\n1,1.5,1.5\n2,0.5,0.5\n")
    return paths


@pytest.mark.parametrize("command", ["check", "hybrid"])
def test_thresholds_outside_a_state_set_exit_1(tmp_path, capsys, command):
    # the map is defined on the model's state space only: a threshold file
    # that discretizes into a level a gene lacks is rejected where it enters
    p = outside_level_files(tmp_path)
    argv = {"check": ["check", p["csv"], "--thresholds", p["th"], "--model", p["model"]],
            "hybrid": ["hybrid", p["model"], "--rates", p["rates"], "--thresholds", p["th"],
                       "--c0", "1.5,0.5", "--t-end", "3"]}[command]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (f"error: threshold file {p['th']}: gene 'a' discretizes to level 2, "
                   f"outside its state set\n")


def test_rates_file_missing_a_level_names_gene_and_display_level(workspace, capsys):
    path = workspace["dir"] / "rates.json"
    path.write_text(json.dumps({**RATES, "rates": {**RATES["rates"], "g2": {"0": 0.0, "1": 1.0}}}))
    code, out, err = run(capsys, "hybrid", workspace["ex3"], "--rates", path,
                         "--thresholds", workspace["thresholds"], "--c0", "0.5,0.5,0.5",
                         "--t-end", "1")
    assert (code, out) == (1, "")
    assert err == f"error: malformed rates file {path}: no rate for gene 'g2' at level -1\n"


# -- infer -----------------------------------------------------------------------


def test_infer_from_series_file(workspace, capsys):
    series_path = workspace["dir"] / "series.json"
    run(capsys, "discretize", workspace["csv"],
        "--thresholds", workspace["thresholds"], "-o", series_path)
    model_out = workspace["dir"] / "inferred.json"
    code, out, _ = run(
        capsys, "infer", series_path,
        "--member", "x1+x2; x2; x2+x3", "-o", model_out,
    )
    assert code == 0
    report = json.loads(out)
    assert report["dimensions"] == [24, 24, 24]
    assert report["member_of_all"] is True
    assert model_out.exists()
    # the inferred model reproduces the discretized series
    code, out, _ = run(
        capsys, "simulate", model_out, "--state", "(-1,1,-1)", "--steps", "3"
    )
    assert code == 0
    assert out.splitlines() == ["(-1,1,-1)", "(0,1,0)", "(1,1,1)", "(-1,1,-1)"]


def test_infer_from_csv_with_thresholds(workspace, capsys):
    code, out, _ = run(
        capsys, "infer", "--csv", workspace["csv"],
        "--thresholds", workspace["thresholds"], "--preference", "sparsest",
    )
    assert code == 0
    report = json.loads(out)
    assert report["polynomials"]["g2"] == "1"
    assert ["g1", "g1"] in report["edges"]


def test_infer_contradictory_series_exits_3(workspace, capsys):
    bad = workspace["dir"] / "bad.json"
    bad.write_text(json.dumps({
        "format_version": 1, "field": 2,
        "states": [[0, 0], [1, 0], [0, 0], [0, 1]],
    }))
    code, _, err = run(capsys, "infer", bad)
    assert code == 3
    assert "contradictory" in err


def test_infer_usage_errors(workspace, capsys):
    code, _, err = run(capsys, "infer")
    assert code == 1
    empty = workspace["dir"] / "empty.json"
    empty.write_text(json.dumps({
        "format_version": 1, "field": 3, "states": [[0, 0, 0]],
    }))
    assert run(capsys, "infer", empty) == (
        1, "", "error: need at least one transition to infer from\n")
    series = workspace["dir"] / "series.json"
    run(capsys, "discretize", workspace["csv"], "--thresholds", workspace["thresholds"],
        "-o", series)
    for args, message in (
        (["--csv", workspace["csv"]], "--csv requires --thresholds"),
        ([series, "--member", "x1; x2"], "--member needs 3 polynomials, got 2"),
    ):
        assert run(capsys, "infer", *args) == (1, "", f"error: {message}\n")


def test_parse_errors_name_their_polynomial(workspace, capsys):
    doc = json.loads(workspace["ex3"].read_text())
    path = workspace["dir"] / "bad-local.json"
    path.write_text(json.dumps({**doc, "locals": {**doc["locals"], "g2": "x1 $"}}))
    assert run(capsys, "validate", path) == (
        1, "", f"error: malformed model file {path}: local polynomial for gene 'g2': "
               "unexpected character '$' (at position 3)\n")
    series = workspace["dir"] / "series.json"
    run(capsys, "discretize", workspace["csv"], "--thresholds", workspace["thresholds"],
        "-o", series)
    assert run(capsys, "infer", series, "--member", "x1; x2 $ 1; x3") == (
        1, "", "error: --member polynomial 2 (gene 'g2'): unexpected character '$' "
               "(at position 3)\n")


def test_canonical_infer_past_the_solver_limit_exits_1_with_one_line(tmp_path, capsys):
    # GF(2)^15 has 2^15 points, twice the solver limit: refused before the transform
    path = tmp_path / "two-states.json"
    path.write_text(json.dumps({"format_version": 1, "field": 2, "states": [[0] * 15, [1] * 15]}))
    assert run(capsys, "infer", path) == (
        1, "", "error: canonical inference over 2^15 points exceeds the limit (16384)\n")


def test_infer_dimensions_count_distinct_inputs(workspace, capsys):
    # a consistent repeat is one observed input: 3 transitions, |S| = 2, so
    # each coordinate's solution space has dimension 2^2 - 2; the job reads
    # its transitions once, and --member reads the same ones
    path = workspace["dir"] / "repeats.json"
    path.write_text(json.dumps({"format_version": 1, "field": 2,
                                "states": [[0, 0], [1, 1], [0, 0], [1, 1]]}))
    keep = TransitionData._keep
    for member in ([], ["--member", "x1 + 1; x2 + 1"]):
        built = []  # both constructors read the transitions in _keep
        with mock.patch.object(TransitionData, "_keep",
                               lambda self, *a: built.append(a) or keep(self, *a)):
            code, out, _ = run(capsys, "infer", path, *member)
        report = json.loads(out)
        assert (code, report["transitions"], report["dimensions"], len(built)) == (
            0, 3, [2, 2], 1)
        assert report.get("member_of_all", True) is True


# -- hybrid -----------------------------------------------------------------------


def test_hybrid_command(workspace, capsys):
    model_path = workspace["dir"] / "toggle.json"
    from gsds import DependencyGraph, Field, GsdsModel
    from gsds.polyring import parse_poly

    field = Field(2)
    m = GsdsModel(field, ["g"], DependencyGraph(1, {(0, 0)}),
                  [parse_poly("x1 + 1", 1, field)], [0])
    save_model(m, model_path)
    rates_path = workspace["dir"] / "rates.json"
    rates_path.write_text(json.dumps({
        "format_version": 1, "floor_at_zero": True,
        "rates": {"g": {"0": -1.0, "1": 1.0}},
    }))
    th_path = workspace["dir"] / "th.json"
    th_path.write_text(json.dumps({
        "format_version": 1, "field": 2,
        "genes": {"g": {"levels": [{"threshold": 1.0, "below_level": 0,
                                    "equal_level": 1}], "top_level": 1}},
    }))
    csv_out = workspace["dir"] / "traj.csv"
    code, out, _ = run(
        capsys, "hybrid", model_path, "--rates", rates_path,
        "--thresholds", th_path, "--c0", "0.0", "--t-end", "4.5",
        "--csv-out", csv_out,
    )
    assert code == 0
    report = json.loads(out)
    crossing_times = [e["time"] for e in report["events"]
                      if e["kind"] == "threshold"]
    assert crossing_times == [1.0, 3.0]
    assert report["trajectories"]["g"]["breakpoints"][0] == 0.0
    assert csv_out.read_text().startswith("t,g\n")


def test_hybrid_large_magnitudes(workspace, capsys):
    # threshold 1e6 and t_end 3e7: the fitted segments' terms reach 1e8,
    # and their rounding must not read as a discontinuity
    model_path = workspace["dir"] / "toggle.json"
    from gsds import DependencyGraph, Field, GsdsModel
    from gsds.polyring import parse_poly

    field = Field(2)
    save_model(GsdsModel(field, ["g"], DependencyGraph(1, {(0, 0)}),
                         [parse_poly("1 + x1", 1, field)], [0]), model_path)
    rates_path = workspace["dir"] / "rates.json"
    rates_path.write_text(json.dumps({"format_version": 1,
                                      "rates": {"g": {"0": -3.0, "1": 3.0}}}))
    th_path = workspace["dir"] / "th.json"
    th_path.write_text(json.dumps({
        "format_version": 1, "field": 2,
        "genes": {"g": {"levels": [{"threshold": 1e6, "below_level": 0,
                                    "equal_level": 1}], "top_level": 1}},
    }))
    code, out, err = run(capsys, "hybrid", model_path, "--rates", rates_path,
                         "--thresholds", th_path, "--c0", "0", "--t-end", "3e7")
    assert (code, err) == (0, "")
    assert len(json.loads(out)["events"]) == 90


# gene names with every character JSON escapes or nests on, and non-ASCII text
NAMES = st.text(st.sampled_from('g"\\[]{},: \x00\n\u00e9\u2192\u65e5') | st.characters(),
                min_size=1, max_size=5)


@st.composite
def hybrid_runs(draw):
    """Hybrid runs over GF(2), GF(3) in balanced display and GF(5), with
    1-4 genes wired completely (so every model validates), parallel or
    sequential.  Thresholds, initial vectors and rates lie on a coarse grid,
    so crossings coincide and a run may start on a threshold; rates may be
    zero, and decaying genes hit the floor when it is on."""
    q, display = draw(st.sampled_from([(2, "canonical"), (3, "balanced"), (5, "canonical")]))
    field, n = Field(q), draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, q - 1)] * n)
    polys = [Polynomial(field, n, draw(st.dictionaries(exps, st.integers(1, q - 1), max_size=3)))
             for _ in range(n)]
    model = GsdsModel(field, draw(st.lists(NAMES, min_size=n, max_size=n, unique=True)),
                      DependencyGraph(n, {(a, b) for a in range(n) for b in range(n)}), polys,
                      draw(st.none() | st.permutations(range(n))), display=display)
    level, genes = st.integers(0, q - 1), []
    for _ in range(n):
        cuts = sorted(draw(st.lists(st.sampled_from([1.0, 0.5, 1.5, 2.5]), min_size=1,
                                    max_size=min(q - 1, 3), unique=True)))
        genes.append(GeneThresholds(cuts, draw(st.lists(level, min_size=len(cuts) + 1,
                                                         max_size=len(cuts) + 1)),
                                    draw(st.lists(level, min_size=len(cuts), max_size=len(cuts)))))
    slope = st.sampled_from([1.0, -1.0, 0.0, 0.5, -0.5, 1.5, -2.0])
    rates = RatePolicy([{v: draw(slope) for v in range(q)} for _ in range(n)],
                       floor_at_zero=draw(st.booleans()))
    c0 = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 0.0, 2.5]) | st.floats(0.0, 3.0),
                       min_size=n, max_size=n))
    t_end = draw(st.sampled_from([8.0, 0.25]) | st.floats(0.01, 8.0))
    return model, rates, ThresholdMap(field, genes), c0, t_end


# two toggles cross 1.0 together and hit the floor together; a third gene
# sits on its threshold at rate 0
TOGGLES = (GsdsModel(Field(2), ['"a\\', "\u65e5[]{}", "z"], DependencyGraph(3, {(0, 0), (1, 1)}),
                     [parse_poly(p, 3, Field(2)) for p in ("x1 + 1", "x2 + 1", "0")], [0, 1, 2]),
           RatePolicy([{0: -1.0, 1: 1.0}] * 2 + [{0: 0.0, 1: 0.0}]),
           ThresholdMap(Field(2), [GeneThresholds([1.0], [0, 1], [1])] * 3), [0.5, 0.5, 1.0], 4.0)


@settings(max_examples=300, deadline=None)
@given(hybrid_runs())
@example(TOGGLES)
def test_hybrid_report_is_the_oracle_dict_dumped(case):
    try:
        with mock.patch.object(continuous, "MAX_EVENTS", 400):
            result = hybrid_simulate(*case)
    except ZenoError:
        return
    expected = json.dumps(oracle_hybrid_report(case[0], result), indent=2, allow_nan=False)
    assert _hybrid_json(case[0], result) == expected


def test_hybrid_output_file_is_stdout(workspace, capsys):
    rates = workspace["dir"] / "rates.json"
    rates.write_text(json.dumps(RATES))
    out_path = workspace["dir"] / "report.json"
    code, out, err = run(capsys, "hybrid", workspace["ex3"], "--rates", rates,
                         "--thresholds", workspace["thresholds"], "--c0", "0.5,0.5,0.5",
                         "--t-end", "10", "-o", out_path)
    assert (code, err) == (0, "")
    assert len(json.loads(out)["events"]) == 312
    assert out_path.read_text() == out


def test_hybrid_that_overflows_exits_1_with_one_line(workspace, capsys):
    # the concentrations overflow to inf before t_end, and so does the fitted slope
    rates = workspace["dir"] / "rates.json"
    rates.write_text(json.dumps({"format_version": 1, "rates": {
        g: {"-1": 1e308, "0": 1e308, "1": 1e308} for g in ("g1", "g2", "g3")}}))
    out_path = workspace["dir"] / "report.json"
    code, out, err = run(capsys, "hybrid", workspace["ex3"], "--rates", rates,
                         "--thresholds", workspace["thresholds"], "--c0", "1e308,1e308,1e308",
                         "--t-end", "10", "-o", out_path)
    assert (code, out) == (1, "")
    assert err == "error: a segment's slope or intercept must be a finite number, not inf\n"
    assert not out_path.exists()


# -- misc -------------------------------------------------------------------------


def test_unknown_option_exits_1(workspace, capsys):
    code, _, err = run(capsys, "portrait", workspace["ex1"], "--wat")
    assert code == 1


def test_missing_file_exits_1(capsys):
    code, _, _ = run(capsys, "validate", "/nonexistent/model.json")
    assert code == 1


COMMANDS = ["validate", "simulate", "portrait", "infer", "fit", "discretize", "check", "hybrid"]


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "gsds.cli", "--help"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert all(command in result.stdout for command in COMMANDS)


def test_simulate_schedule_override(workspace, capsys):
    # the reversed word turns the 4-gene model into the constant map
    code, out, _ = run(
        capsys, "simulate", workspace["ex1"], "--state", "0000",
        "--steps", "1", "--schedule", "g0,g1,g2,g3",
    )
    assert code == 0
    assert out.splitlines()[-1] == "(1,1,1,0)"


def test_portrait_schedule_override(workspace, capsys):
    code, out, _ = run(
        capsys, "portrait", workspace["ex1"], "--schedule", "g0,g1,g2,g3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["max_transient"] == 1  # constant map: everything lands at once


def test_schedule_override_unknown_gene(workspace, capsys):
    code, _, err = run(
        capsys, "simulate", workspace["ex1"], "--state", "0000",
        "--steps", "1", "--schedule", "g0,nope",
    )
    assert code == 1


def test_hybrid_events_csv(workspace, capsys):
    model_path = workspace["dir"] / "toggle2.json"
    from gsds import DependencyGraph, Field, GsdsModel
    from gsds.polyring import parse_poly

    field = Field(2)
    m = GsdsModel(field, ["g"], DependencyGraph(1, {(0, 0)}),
                  [parse_poly("x1 + 1", 1, field)], [0])
    save_model(m, model_path)
    rates_path = workspace["dir"] / "rates2.json"
    rates_path.write_text(json.dumps({
        "format_version": 1, "floor_at_zero": True,
        "rates": {"g": {"0": -1.0, "1": 1.0}},
    }))
    th_path = workspace["dir"] / "th2.json"
    th_path.write_text(json.dumps({
        "format_version": 1, "field": 2,
        "genes": {"g": {"levels": [{"threshold": 1.0, "below_level": 0,
                                    "equal_level": 1}], "top_level": 1}},
    }))
    events_csv = workspace["dir"] / "events.csv"
    code, _, _ = run(
        capsys, "hybrid", model_path, "--rates", rates_path,
        "--thresholds", th_path, "--c0", "0.0", "--t-end", "2.5",
        "--events-csv", events_csv,
    )
    assert code == 0
    lines = events_csv.read_text().splitlines()
    assert lines[0] == "time,gene,threshold,kind,old_state,new_state"
    assert lines[1].startswith("1,g,1,threshold,0,1")
    assert lines[2].startswith("2,g,0,floor,1,0")


def test_hybrid_crossing_that_rounds_to_now(workspace, capsys):
    # g = 1 rising at slope 3 from -5e-324 crosses 0.0 at 5e-324 / 3, which
    # rounds to t = 0: one event at 0 and no zero-length phase
    from gsds import DependencyGraph, Field, GsdsModel
    from gsds.polyring import parse_poly

    field = Field(2)
    model_path = workspace["dir"] / "on.json"
    save_model(GsdsModel(field, ["g"], DependencyGraph(1, set()),
                         [parse_poly("1", 1, field)], None), model_path)
    rates_path = workspace["dir"] / "rates3.json"
    rates_path.write_text(json.dumps({"format_version": 1,
                                      "rates": {"g": {"0": 3.0, "1": 3.0}}}))
    th_path = workspace["dir"] / "th3.json"
    th_path.write_text(json.dumps({
        "format_version": 1, "field": 2,
        "genes": {"g": {"levels": [{"threshold": 0.0, "below_level": 0,
                                    "equal_level": 1}], "top_level": 1}},
    }))
    code, out, err = run(capsys, "hybrid", model_path, "--rates", rates_path,
                         "--thresholds", th_path, "--c0=-5e-324", "--t-end", "1")
    assert (code, err) == (0, "")
    report = json.loads(out)
    times = report["trajectories"]["g"]["breakpoints"]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert [(e["time"], e["kind"]) for e in report["events"]] == [(0.0, "threshold")]


# -- malformed input files -------------------------------------------------------

RATES = {"format_version": 1, "rates": {g: {"-1": -1.0, "0": 0.0, "1": 1.0}
                                        for g in ("g1", "g2", "g3")}}
SERIES = {"format_version": 1, "field": 3, "display": "balanced",
          "states": [[-1, 1, -1], [0, 1, 0], [1, 1, 1]]}


def _replace(key, value):
    return lambda d: {**d, key: value}


def _product_model(n, copies=1):
    """A GF(2) model of n genes whose first local is the sum of ``copies``
    products (x1 + 1)*...*(xn + 1), each 2^n terms once expanded."""
    genes = [f"g{j}" for j in range(1, n + 1)]
    locals_ = {g: f"x{j}" for j, g in enumerate(genes, 1)}
    locals_["g1"] = " + ".join(["*".join(f"(x{j} + 1)" for j in range(1, n + 1))] * copies)
    return {"format_version": 1, "field": 2, "genes": genes, "locals": locals_, "schedule": None}


# (case, file kind, change to a well-formed document or the file's text, command)
MALFORMED = [
    ("model-field-string", "model", _replace("field", "3"), "validate"),
    ("model-locals-list", "model", _replace("locals", ["x1", "x2", "x3"]), "validate"),
    ("model-top-level-list", "model", lambda d: [], "validate"),
    ("model-genes-string", "model", _replace("genes", "g1"), "validate"),
    ("model-schedule-string", "model", _replace("schedule", "g1"), "simulate"),
    ("model-missing-field", "model", lambda d: {k: v for k, v in d.items() if k != "field"},
     "portrait"),
    ("model-not-json", "model", "{", "validate"),
    ("model-nested-json-100000", "model", "[" * 100000 + "]" * 100000, "validate"),
    ("model-local-unparseable", "model",
     lambda d: {**d, "locals": {**d["locals"], "g1": "x1 $"}}, "validate"),
    ("model-balanced-gf2", "model", _replace("field", 2), "validate"),
    ("model-states-unknown-gene", "model", _replace("states", {"zz": [0, 1]}), "validate"),
    ("model-locals-unknown-gene", "model",
     lambda d: {**d, "locals": {**d["locals"], "c": "0"}}, "validate"),
    ("model-local-nested-1000", "model",
     lambda d: {**d, "locals": {**d["locals"], "g1": "(" * 1000 + "x1" + ")" * 1000}},
     "validate"),
    ("model-local-product-24", "model", lambda d: _product_model(24), "validate"),
    # 1035 bytes: no product passes the size bound, and the sum cancels
    ("model-local-products-6x18", "model", lambda d: _product_model(18, 6), "validate"),
    ("series-flat-states", "series", _replace("states", [0, 1]), "infer"),
    ("series-genes-string", "series", _replace("genes", "abc"), "infer"),
    ("series-genes-ints", "series", _replace("genes", [1, 2, 3]), "infer"),
    ("series-genes-too-few", "series", _replace("genes", ["a", "b"]), "infer"),
    ("series-genes-too-many", "series", _replace("genes", ["a", "b", "c", "d"]), "infer"),
    ("series-genes-repeated", "series", _replace("genes", ["a", "b", "a"]), "infer"),
    ("series-unknown-display", "series", _replace("display", "bogus"), "infer"),
    ("series-unequal-states", "series", _replace("states", [[-1, 1, -1], [0, 1]]), "infer"),
    ("thresholds-genes-list", "thresholds", lambda d: {**d, "genes": list(d["genes"].values())},
     "discretize"),
    ("thresholds-unknown-display", "thresholds", _replace("display", "bogus"), "discretize"),
    ("thresholds-float-level", "thresholds", lambda d: {
        **d, "genes": {**d["genes"], "g1": {**d["genes"]["g1"], "top_level": 1.0}}},
     "infer-csv"),
    ("rates-list", "rates", _replace("rates", [1.0, 0.0]), "hybrid"),
    ("rates-table-list", "rates", lambda d: {**d, "rates": {**d["rates"], "g2": [1.0]}},
     "hybrid"),
    ("rates-floor-string", "rates", _replace("floor_at_zero", "no"), "hybrid"),
    ("rates-missing-level", "rates",
     lambda d: {**d, "rates": {**d["rates"], "g2": {"-1": -1.0, "0": 0.0}}}, "hybrid"),
]


@pytest.mark.parametrize("case,kind,change,command", MALFORMED,
                         ids=[m[0] for m in MALFORMED])
def test_malformed_file_exits_1_with_one_line(workspace, capsys, case, kind, change,
                                              command):
    sources = {"model": workspace["ex3"], "thresholds": workspace["thresholds"]}
    if kind in sources:
        doc = json.loads(sources[kind].read_text())
    else:
        doc = {"series": SERIES, "rates": RATES}[kind]
    path = workspace["dir"] / f"{case}.json"
    path.write_text(change if isinstance(change, str) else json.dumps(change(doc)))
    files = {"model": workspace["ex3"], "thresholds": workspace["thresholds"],
             "rates": workspace["dir"] / "rates.json"}
    files["rates"].write_text(json.dumps(RATES))
    files[kind] = path
    argv = {
        "validate": ["validate", path],
        "simulate": ["simulate", path, "--state", "(0,0,0)"],
        "portrait": ["portrait", path],
        "infer": ["infer", path],
        "infer-csv": ["infer", "--csv", workspace["csv"], "--thresholds", path],
        "discretize": ["discretize", workspace["csv"], "--thresholds", path],
        "hybrid": ["hybrid", files["model"], "--rates", files["rates"],
                   "--thresholds", files["thresholds"], "--c0", "0.5,0.5,0.5",
                   "--t-end", "1"],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: malformed {kind} file ")
    assert str(path) in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_series_state_of_another_length_is_named(tmp_path, capsys):
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"field": 2, "states": [[0, 1], [1, 1, 0], [1, 0]]}))
    code, out, err = run(capsys, "infer", path)
    assert (code, out) == (1, "")
    assert err == f"error: malformed series file {path}: state 1 [1, 1, 0] has 3 levels, state 0 has 2\n"


# -- command-line compatibility --------------------------------------------------

SIM = ["simulate", "{ex3}", "--state"]
HYB = ["hybrid", "{ex3}", "--rates", "{rates}", "--thresholds", "{thresholds}"]
C0 = ["--c0", "0.5,0.5,0.5", "--t-end", "1"]
# Each path argument of each command, named by "{missing}" in turn
PATH_ARGUMENTS = [
    ["validate", "{missing}"],
    ["simulate", "{missing}", "--state", "0,0,0"],
    ["portrait", "{missing}"],
    ["infer", "{missing}"],
    ["infer", "--csv", "{missing}", "--thresholds", "{thresholds}"],
    ["infer", "--csv", "{csv}", "--thresholds", "{missing}"],
    ["fit", "{missing}"],
    ["discretize", "{missing}", "--thresholds", "{thresholds}"],
    ["discretize", "{csv}", "--thresholds", "{missing}"],
    ["check", "{missing}", "--thresholds", "{thresholds}", "--model", "{ex3}"],
    ["check", "{csv}", "--thresholds", "{missing}", "--model", "{ex3}"],
    ["check", "{csv}", "--thresholds", "{thresholds}", "--model", "{missing}"],
    ["hybrid", "{missing}", "--rates", "{rates}", "--thresholds", "{thresholds}", *C0],
    ["hybrid", "{ex3}", "--rates", "{missing}", "--thresholds", "{thresholds}", *C0],
    ["hybrid", "{ex3}", "--rates", "{rates}", "--thresholds", "{missing}", *C0],
]
# (case, argv, exit code, stdout: the text, or the argv whose stdout it equals);
# every exit code and stdout is that of the click front end the parser replaced
COMPAT = [
    ("state-leading-dash", SIM + ["-1,1,-1", "--steps", "2"], 0,
     "(-1,1,-1)\n(0,1,0)\n(1,1,1)\n"),
    ("opt=value", ["simulate", "{ex3}", "--state=-1,1,-1", "--steps=2"], 0,
     "(-1,1,-1)\n(0,1,0)\n(1,1,1)\n"),
    ("short-option-attached", SIM + ["-1,1,-1", "-T2"], 0, "(-1,1,-1)\n(0,1,0)\n(1,1,1)\n"),
    ("state-is-help", SIM + ["--help"], 1, ""),
    ("short-option-negative", SIM + ["-1,1,-1", "-T", "-1"], 1, ""),
    ("c0-leading-dash", HYB + ["--c0", "-0.5,0.5,0.5", "--t-end", "1"], 0,
     HYB + ["--c0=-0.5,0.5,0.5", "--t-end=1"]),
    ("c0-denormal", HYB + ["--c0", "-5e-324,0.5,0.5", "--t-end", "1"], 0,
     HYB + ["--c0=-5e-324,0.5,0.5", "--t-end=1"]),
    ("t-end-negative", HYB + ["--c0", "0.5,0.5,0.5", "--t-end", "-1"], 1, ""),
    ("bad-display", SIM + ["-1,1,-1", "--display", "bogus"], 1, ""),
    ("bad-preference", ["infer", "--csv", "{csv}", "--thresholds", "{thresholds}",
                        "--preference", "bogus"], 1, ""),
    ("steps-not-int", SIM + ["-1,1,-1", "--steps", "x"], 1, ""),
    ("t-end-not-float", HYB + ["--c0", "0.5,0.5,0.5", "--t-end", "x"], 1, ""),
    ("workers-0", ["portrait", "{ex3}", "--workers", "0"], 1, ""),
    ("missing-required", ["simulate", "{ex3}"], 1, ""),
    ("missing-value", SIM, 1, ""),
    ("unknown-option", ["portrait", "{ex1}", "--wat"], 1, ""),
    ("abbreviated-option", ["portrait", "{ex1}", "--sched", "g0,g1,g2,g3"], 1, ""),
    ("flag-with-value", SIM + ["-1,1,-1", "--json=x"], 1, ""),
    ("no-command", [], 1, ""),
    ("unknown-command", ["bogus"], 1, ""),
    ("unknown-gene", ["portrait", "{ex3}", "--schedule", "g1,,g9"], 1, ""),
] + [(f"missing-{argv[0]}-{k}", argv, 1, "") for k, argv in enumerate(PATH_ARGUMENTS)]


def compat_run(workspace, capsys, argv):
    files = {key: workspace[key] for key in ("ex1", "ex3", "thresholds", "csv")}
    files["rates"] = workspace["dir"] / "rates.json"
    files["rates"].write_text(json.dumps(RATES))
    files["missing"] = workspace["dir"] / "missing.json"
    return run(capsys, *[a.format(**files) for a in argv])


@pytest.mark.parametrize("case,argv,code,stdout", COMPAT, ids=[c[0] for c in COMPAT])
def test_command_line_compatibility(workspace, capsys, case, argv, code, stdout):
    got_code, out, _ = compat_run(workspace, capsys, argv)
    if isinstance(stdout, list):
        stdout = compat_run(workspace, capsys, stdout)[1]
        assert stdout.startswith("{")
    assert (got_code, out) == (code, stdout)


@pytest.mark.parametrize("case,argv", [(c[0], c[1]) for c in COMPAT if c[2] == 1],
                         ids=[c[0] for c in COMPAT if c[2] == 1])
def test_usage_errors_print_one_error_line(workspace, capsys, case, argv):
    code, _, err = compat_run(workspace, capsys, argv)
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_unknown_gene_is_named_without_quotes(workspace, capsys):
    code, out, err = compat_run(workspace, capsys, ["portrait", "{ex3}", "--schedule", "g1,,g9"])
    assert (code, out, err) == (1, "", "error: unknown gene 'g9'\n")


def test_option_value_may_be_a_double_dash(workspace, capsys):
    # "--" after an option that takes a value is that value, not the end of the options
    code, out, err = compat_run(workspace, capsys, SIM + ["--"])
    assert (code, out, err) == (1, "", "error: state '--' does not have 3 coordinates\n")


# Tokens for drawn command lines: paths that exist and do not, numbers,
# choices, and values that begin with "-", "--help" among them; not "--"
# as an option's value, which argparse read as an empty list
EXISTING, MISSING = __file__, __file__ + ".missing"
VALUES = st.sampled_from([EXISTING, MISSING, "0", "3", " 7", "2.5", "-1", "-0.5,0.5,0.5",
                          "x", "", "-", "-T", "--state", "--help", "canonical", "balanced",
                          "sparsest"])


@st.composite
def command_lines(draw):
    """A command line over one command's parameter table: options in long,
    "=" and attached short forms, repeated, unknown or abbreviated options,
    flags given a value, values and positionals that may be missing, "--"."""
    name = draw(st.sampled_from(sorted(TABLE)))
    params = (*TABLE[name][1], HELP)

    @st.composite
    def piece(draw):
        flags, kw = draw(st.sampled_from(params))
        flag, value = draw(st.sampled_from(flags)), draw(VALUES)
        if flag[0] != "-" or draw(st.integers(0, 9)) == 0:  # a positional, or a stray value
            return [value]
        if "action" in kw:  # a flag, sometimes given a value
            return draw(st.sampled_from([[flag], [flag], [f"{flag}={value}"]]))
        forms = [[flag, value], [f"{flags[-1]}={value}"], [flag]]  # the last: no value
        if flag[1] != "-" and value:
            forms.append([flag + value])
        return draw(st.sampled_from(forms + [["--wat"], ["--wat=1"], ["-x"], [flags[-1][:-1]]]))

    tokens = [token for p in draw(st.lists(piece(), max_size=6)) for token in p]
    valued = {flag for flags, kw in params if "action" not in kw for flag in flags}
    if draw(st.booleans()) and not (tokens and tokens[-1] in valued):
        # "--" before a last positional, and maybe more; never as an option's value
        more = draw(st.lists(piece(), max_size=2))
        tokens += ["--", draw(VALUES)] + [token for p in more for token in p]
    head = draw(st.sampled_from([[name]] * 8 + [["--help"], ["bogus"], None]))
    return [] if head is None else head + tokens


def reading(read, argv):
    """What a reader makes of a command line: (function, keyword
    arguments), "help", or "error" for a one-line usage error."""
    try:
        got = read(argv)
    except ValueError as exc:
        assert "\n" not in str(exc)
        return "error"
    return "help" if got[0] is _help or got == "help" else got


@settings(max_examples=600, deadline=None)
@given(command_lines())
def test_reader_reads_command_lines_as_argparse(argv):
    assert reading(_read, argv) == reading(oracle_read, argv)


def test_help_lists_options(capsys):
    code, out, err = run(capsys, "hybrid", "--help")
    assert (code, err) == (0, "")
    for option in ("--rates", "--thresholds", "--c0", "--t-end", "--output", "--csv-out",
                   "--events-csv", "Initial concentrations, e.g. '0.5,1.2,0.5'."):
        assert option in out


@pytest.mark.parametrize("command", sorted(TABLE))
def test_help_lists_every_parameter(capsys, command):
    code, out, err = run(capsys, command, "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: gsds {command} ") and TABLE[command][0].__doc__ in out
    for flags, kw in (*TABLE[command][1], HELP):
        assert all(flag in out for flag in flags) and kw.get("help", "") % kw in out


@pytest.mark.parametrize("command", ["check", "hybrid"])
def test_threshold_file_over_another_field_exits_1(workspace, capsys, command):
    gf5 = workspace["dir"] / "gf5.json"
    gf5.write_text(json.dumps({"format_version": 1, "field": 5, "genes": {
        g: {"levels": [{"threshold": 1.0, "below_level": 0, "equal_level": 4}], "top_level": 4}
        for g in ("g1", "g2", "g3")}}))
    argv = {"check": ["check", "{csv}", "--thresholds", str(gf5), "--model", "{ex3}"],
            "hybrid": ["hybrid", "{ex3}", "--rates", "{rates}", "--thresholds", str(gf5), *C0]}
    code, out, err = compat_run(workspace, capsys, argv[command])
    assert (code, out) == (1, "")
    assert err == f"error: threshold file {gf5} is over GF(5), the model over GF(3)\n"


# -- non-finite reals -------------------------------------------------------------

ZERO_RATES = {"format_version": 1, "rates": {g: {"-1": 0.0, "0": 0.0, "1": 0.0}
                                             for g in ("g1", "g2", "g3")}}


def _threshold_doc(threshold=None, eps=None):
    """The example thresholds with g2's threshold or the eps replaced."""
    def change(d):
        g2 = d["genes"]["g2"]
        if threshold is not None:
            g2 = {**g2, "levels": [{**g2["levels"][0], "threshold": threshold}]}
        return {**d, "genes": {**d["genes"], "g2": g2}, **({} if eps is None else {"eps": eps})}
    return change


# (case, changed file kind, change, argv, the error after "error: ")
NON_FINITE = [
    *[(f"csv-{cell}-{cmd}", "csv", f"0.78,{cell},1.25", argv,
       f"sample CSV {{csv}} column 'g2' must be a finite number, not {shown}")
      for cell, shown in (("nan", "nan"), ("x", "'x'"))
      for cmd, argv in (
          ("fit", ["fit", "{csv}"]),
          ("discretize", ["discretize", "{csv}", "--thresholds", "{thresholds}"]),
          ("check", ["check", "{csv}", "--thresholds", "{thresholds}", "--model", "{ex3}"]),
          ("infer", ["infer", "--csv", "{csv}", "--thresholds", "{thresholds}"]))],
    ("csv-time-infinity", "csv", None, ["fit", "{csv}"],
     "sample CSV {csv} column 't' must be a finite number, not inf"),
    ("threshold-nan", "thresholds", _threshold_doc(threshold=math.nan),
     ["discretize", "{csv}", "--thresholds", "{thresholds}"],
     "malformed thresholds file {thresholds}: threshold of gene 'g2' must be a finite "
     "number, not nan"),
    ("threshold-infinity", "thresholds", _threshold_doc(threshold=-math.inf), HYB + C0,
     "malformed thresholds file {thresholds}: threshold of gene 'g2' must be a finite "
     "number, not -inf"),
    ("eps-nan", "thresholds", _threshold_doc(eps=math.nan),
     ["discretize", "{csv}", "--thresholds", "{thresholds}"],
     "malformed thresholds file {thresholds}: eps must be a finite number, not nan"),
    ("eps-infinity", "thresholds", _threshold_doc(eps=math.inf),
     ["check", "{csv}", "--thresholds", "{thresholds}", "--model", "{ex3}"],
     "malformed thresholds file {thresholds}: eps must be a finite number, not inf"),
    ("rate-nan", "rates", lambda d: {**d, "rates": {**d["rates"], "g2": {
        "-1": 0.0, "0": math.nan, "1": 0.0}}}, HYB + C0,
     "malformed rates file {rates}: rate of gene 'g2' at level 0 must be a finite "
     "number, not nan"),
    *[(f"rate-{case}", "rates", lambda d, v=value: {**d, "rates": {**d["rates"], "g2": {
        "-1": 0.0, "0": v, "1": 0.0}}}, HYB + C0,
       f"malformed rates file {{rates}}: rate of gene 'g2' at level 0 must be a finite "
       f"number, not {shown}")
      for case, value, shown in (("text", "x", "'x'"), ("null", None, "None"))],
    ("threshold-text", "thresholds", _threshold_doc(threshold="x"), HYB + C0,
     "malformed thresholds file {thresholds}: threshold of gene 'g2' must be a finite "
     "number, not 'x'"),
    ("c0-nan", None, None, HYB + ["--c0", "0.5,nan,0.5", "--t-end", "1"],
     "c0 must be a finite number, not nan"),
    ("c0-text", None, None, HYB + ["--c0", "a,1,1", "--t-end", "1"],
     "c0 must be a finite number, not 'a'"),
    ("state-text", None, None, SIM + ["a,1,1"],
     "state 'a,1,1' has a coordinate that is not an integer"),
    ("c0-infinity", None, None, HYB + ["--c0", "0.5,0.5,-inf", "--t-end", "1"],
     "c0 must be a finite number, not -inf"),
    ("t-end-infinity", None, None, HYB + ["--c0", "0.5,0.5,0.5", "--t-end", "inf"],
     "t_end must be a finite number, not inf"),
    ("t-end-nan", None, None, HYB + ["--c0", "0.5,0.5,0.5", "--t-end", "nan"],
     "t_end must be a finite number, not nan"),
]


@pytest.mark.parametrize("case,kind,change,argv,message", NON_FINITE,
                         ids=[c[0] for c in NON_FINITE])
def test_non_finite_input_exits_1_with_one_line(workspace, capsys, case, kind, change,
                                                argv, message):
    # the rates are all 0, so a run that took a non-finite time or level
    # would end without events instead of looping to the event limit
    files = {key: workspace[key] for key in ("ex3", "thresholds", "csv")}
    files["rates"] = workspace["dir"] / "rates.json"
    files["rates"].write_text(json.dumps(ZERO_RATES))
    if kind == "csv":
        files["csv"] = workspace["dir"] / f"{case}.csv"
        files["csv"].write_text(workspace["csv"].read_text().replace("1.5,1.2,1.5", change)
                                if change else "t,g1,g2,g3\n0,1,1,1\ninf,1,1,1\n")
    elif kind:
        doc = json.loads(files[kind].read_text())
        files[kind] = workspace["dir"] / f"{case}.json"
        files[kind].write_text(json.dumps(change(doc)))
    code, out, err = run(capsys, *[a.format(**files) for a in argv])
    assert (code, out) == (1, "")
    assert err == "error: " + message.format(**files) + "\n"


def test_rates_that_name_one_level_twice_exit_1(workspace, capsys):
    # "1" and "01" are both level 1: the table is refused, not read as its last entry
    path = workspace["dir"] / "twice.json"
    rates = {**ZERO_RATES["rates"], "g2": {"-1": 0.0, "0": 0.0, "1": 1.0, "01": -1.0}}
    path.write_text(json.dumps({**ZERO_RATES, "rates": rates}))
    argv = [a.format(rates=path, **workspace) for a in HYB + C0]
    assert run(capsys, *argv) == (
        1, "", f"error: malformed rates file {path}: rates of gene 'g2' name level 1 twice\n")


def test_negative_eps_exits_1_as_a_malformed_thresholds_file(workspace, capsys):
    path = workspace["dir"] / "negative-eps.json"
    path.write_text(json.dumps(_threshold_doc(eps=-1)(json.loads(workspace["thresholds"].read_text()))))
    assert run(capsys, "discretize", workspace["csv"], "--thresholds", path) == (
        1, "", f"error: malformed thresholds file {path}: eps must be >= 0, not -1.0\n")


def test_fit_that_overflows_exits_1_with_one_line(tmp_path, capsys):
    # finite samples whose slope is -inf and intercept NaN: the curve is
    # refused, naming the column, so no report is written
    path, output = tmp_path / "huge.csv", tmp_path / "fit.json"
    path.write_text("t,g\n0,1e308\n1,-1e308\n")
    code, out, err = run(capsys, "fit", path, "-o", output)
    assert (code, out) == (1, "")
    assert err == (f"error: sample CSV {path} column 'g' cannot be fitted: a segment's "
                   f"slope or intercept must be a finite number, not -inf\n")
    assert err.count("\n") == 1
    assert not output.exists()
