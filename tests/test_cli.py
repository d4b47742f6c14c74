import json
import math
import re

import numpy as np
import pytest

from coreclust.cli import main
from coreclust.geometry import PointSet, costs
from coreclust.io import (gaussian_mixture, load_coreset, load_metric_csv,
                          save_coreset)


@pytest.fixture
def data_file(tmp_path):
    pts = gaussian_mixture(60, 2, 2, seed=1)
    path = tmp_path / "pts.csv"
    np.savetxt(path, pts, delimiter=",")
    return path


@pytest.fixture
def metric_file(tmp_path):
    from coreclust.geometry import metric_from_points
    path = tmp_path / "metric.csv"
    np.savetxt(path, metric_from_points(gaussian_mixture(40, 2, 2, seed=6)).matrix,
               delimiter=",")
    return path


def read(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timings(report):
    report = dict(report)
    report.pop("timings", None)
    return report


class TestBuildVerify:
    def test_round_trip(self, tmp_path, data_file):
        core_path = tmp_path / "core.json"
        rep_path = tmp_path / "build.json"
        code = main(["build-coreset", "--input", str(data_file), "--k", "2",
                     "--eps", "0.3", "--seed", "7",
                     "--coreset-out", str(core_path), "--out", str(rep_path)])
        assert code == 0
        rep = read(rep_path)
        assert rep["results"]["coreset_size"] == rep["results"]["t"] + 2
        infl = rep["results"]["inflation"]
        assert rep["results"]["weight_sum"] == pytest.approx(infl * 60, rel=1e-12)

        # reload byte-identically
        loaded = load_coreset(core_path)
        twin = tmp_path / "twin.json"
        save_coreset(twin, loaded)
        assert twin.read_bytes() == core_path.read_bytes()

        vrep_path = tmp_path / "verify.json"
        code = main(["verify", "--coreset", str(core_path), "--input",
                     str(data_file), "--seed", "7", "--queries", "40",
                     "--out", str(vrep_path)])
        assert code == 0
        vrep = read(vrep_path)
        assert vrep["results"]["max_relative_error"] <= 0.3

    def test_replay_identical(self, tmp_path, data_file):
        args = ["build-coreset", "--input", str(data_file), "--k", "2",
                "--eps", "0.25", "--seed", "3"]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        c1, c2 = tmp_path / "c1.json", tmp_path / "c2.json"
        assert main(args + ["--coreset-out", str(c1), "--out", str(out1)]) == 0
        assert main(args + ["--coreset-out", str(c2), "--out", str(out2)]) == 0
        assert c1.read_bytes() == c2.read_bytes()
        r1, r2 = read(out1), read(out2)
        r1["results"].pop("coreset_file")
        r2["results"].pop("coreset_file")
        r1["config"].pop("coreset_out")
        r2["config"].pop("coreset_out")
        assert strip_timings(r1) == strip_timings(r2)

    def test_corrupted_weight_fails_verification(self, tmp_path, data_file):
        core_path = tmp_path / "core.json"
        assert main(["build-coreset", "--input", str(data_file), "--k", "2",
                     "--eps", "0.3", "--seed", "7",
                     "--coreset-out", str(core_path)]) == 0
        doc = read(core_path)
        doc["points"][0]["weight"] += 40.0
        core_path.write_text(json.dumps(doc))
        vrep = tmp_path / "verify.json"
        code = main(["verify", "--coreset", str(core_path), "--input",
                     str(data_file), "--seed", "7", "--queries", "40",
                     "--strict", "--out", str(vrep)])
        assert code == 4
        rep = read(vrep)
        assert not rep["results"]["pass"]
        assert rep["results"]["argmax_query"] >= 0

    def test_nan_coreset_cost_fails(self, tmp_path, data_file, capsys):
        # finite weights whose terms overflow to +inf and -inf cost NaN; the
        # audit used to skip a NaN error and pass with max_relative_error -1
        core = tmp_path / "core.json"
        assert main(["build-coreset", "--input", str(data_file), "--k", "2",
                     "--eps", "0.3", "--seed", "7",
                     "--coreset-out", str(core)]) == 0
        doc = read(core)
        doc["points"] = [{"coords": [50.0, 50.0], "weight": 1e308},
                         {"coords": [90.0, 90.0], "weight": -1e308}]
        core.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "verify.json"
        assert main(["verify", "--coreset", str(core), "--input",
                     str(data_file), "--seed", "7", "--queries", "20",
                     "--strict", "--out", str(out)]) == 4
        res = read(out)["results"]
        assert res["max_relative_error"] == "NaN" and res["pass"] is False
        assert res["argmax_query"] == 0
        assert "max_relative_error nan" in capsys.readouterr().err

    @pytest.mark.parametrize("weights, error, weight_sum", [
        ((1e308, -1e308), "NaN", 0.0),
        ((-1e308, -1e308), "Infinity", "-Infinity")])
    def test_reports_are_strict_json(self, tmp_path, data_file, capsys,
                                     weights, error, weight_sum):
        # json.dumps used to write the bare tokens NaN, Infinity and
        # -Infinity, which a strict parser rejects; each has its own string
        def reject(token):
            raise ValueError(f"not strict JSON: {token}")

        core = tmp_path / "core.json"
        assert main(["build-coreset", "--input", str(data_file), "--k", "2",
                     "--eps", "0.3", "--seed", "7",
                     "--coreset-out", str(core)]) == 0
        doc = read(core)
        doc["points"] = [{"coords": [50.0, 50.0], "weight": weights[0]},
                         {"coords": [90.0, 90.0], "weight": weights[1]}]
        core.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "verify.json"
        argv = ["verify", "--coreset", str(core), "--input", str(data_file),
                "--seed", "7", "--queries", "20"]
        assert main(argv + ["--out", str(out)]) == 0
        assert main(argv) == 0
        for text in (out.read_text(), capsys.readouterr().out):
            rep = json.loads(text, parse_constant=reject)
            assert rep["results"]["max_relative_error"] == error
            assert rep["results"]["weight_sum"] == weight_sum

    def test_an_overflowing_weight_sum_writes_no_warning(self, tmp_path,
                                                        data_file, child_env):
        # numpy warned "overflow encountered in reduce" on stderr, with its
        # own source path, when the weights summed past float64
        import subprocess
        import sys

        core = tmp_path / "core.json"
        assert main(["build-coreset", "--input", str(data_file), "--k", "2",
                     "--eps", "0.3", "--seed", "7",
                     "--coreset-out", str(core)]) == 0
        doc = read(core)
        doc["points"] = [{"coords": [50.0, 50.0], "weight": -1e308},
                         {"coords": [90.0, 90.0], "weight": -1e308}]
        core.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "coreclust", "verify", "--coreset", str(core),
             "--input", str(data_file), "--seed", "7", "--queries", "20"],
            capture_output=True, text=True, env=child_env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["results"]["weight_sum"] == "-Infinity"

    def test_a_nan_error_is_the_worst(self, data_file):
        from coreclust.cli import _max_rel_error

        class Answers:
            z = 1.0

            def __init__(self, answers):
                self.answers = iter(answers)

            def cost(self, centers):
                return next(self.answers)

        P = PointSet(np.loadtxt(data_file, delimiter=","))
        queries = [P.points[:2], P.points[2:4], P.points[4:6]]
        true = costs(P, queries)
        core = Answers([true[0] * 1.5, math.nan, true[2] * 4.0])
        worst, arg = _max_rel_error(P, core, queries)
        assert math.isnan(worst) and arg == 1

    def test_provenance_hash_mismatch(self, tmp_path, data_file):
        core_path = tmp_path / "core.json"
        assert main(["build-coreset", "--input", str(data_file), "--k", "2",
                     "--eps", "0.3", "--seed", "7",
                     "--coreset-out", str(core_path)]) == 0
        other = tmp_path / "other.csv"
        np.savetxt(other, gaussian_mixture(60, 2, 2, seed=9), delimiter=",")
        code = main(["verify", "--coreset", str(core_path), "--input",
                     str(other), "--seed", "7"])
        assert code == 3


class TestExitCodes:
    def test_usage_error(self):
        assert main(["build-coreset", "--k", "2"]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["bicriteria", "--input", str(tmp_path / "nope.csv"),
                     "--k", "1", "--eps", "0.3", "--seed", "1"]) == 2

    def test_validation_error(self, data_file):
        # k > n is an input error
        assert main(["bicriteria", "--input", str(data_file), "--k", "999",
                     "--eps", "0.3", "--seed", "1"]) == 3

    def test_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3\n")
        assert main(["bicriteria", "--input", str(bad), "--k", "1",
                     "--eps", "0.3", "--seed", "1"]) == 2

    def test_jsonl_string_coords(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"coords": "12"}\n{"coords": "34"}\n')
        assert main(["bicriteria", "--input", str(bad), "--k", "1",
                     "--eps", "0.3", "--seed", "1"]) == 2
        assert "line 1: coords must be a JSON list" in capsys.readouterr().err

    @pytest.mark.parametrize("cell, code, message", [
        ('"1.5"', 2, "row 2: '1.5' is not a JSON number"),
        # an integer beyond float64 reads as inf, as 1e400 does
        ("1" + "0" * 400, 3, "non-finite"),
    ])
    def test_jsonl_coordinates_are_json_numbers(self, tmp_path, capsys, cell,
                                                code, message):
        # a string used to load as its float, and a huge integer
        # ended in an OverflowError traceback
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"coords": [1, 2]}\n{"coords": [%s, 3]}\n' % cell)
        assert main(["bicriteria", "--input", str(bad), "--k", "1",
                     "--eps", "0.3", "--seed", "1"]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err, err

    def test_jsonl_rows_of_no_coordinates(self, tmp_path, capsys):
        # they used to build a coreset of 0-D points that verify passed
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"coords": []}\n' * 50)
        assert main(["build-coreset", "--input", str(bad), "--k", "2",
                     "--eps", "0.3", "--seed", "1",
                     "--coreset-out", str(tmp_path / "c.json")]) == 2
        assert "line 1: coords is empty" in capsys.readouterr().err
        assert not (tmp_path / "c.json").exists()

    @pytest.mark.parametrize("argv", [
        ["solve", "--method", "local", "--k", "0", "--input", "{data}"],
        ["verify", "--k", "100", "--input", "{data}", "--coreset", "{core}"],
        ["bench", "--k-grid", "0", "--n-grid", "50", "--eps-grid", "0.3"],
        ["bench", "--k-grid", "2", "--n-grid", "50", "--eps-grid", "0.3",
         "--d", "-1"],
        # the 60 rows are fewer than the default block, so no build runs
        ["stream", "--k", "0", "--eps", "0.3", "--input", "{data}",
         "--query-file", "{data}"],
    ])
    def test_bad_k_or_d_is_a_validation_error(self, tmp_path, data_file,
                                              capsys, argv):
        core = tmp_path / "core.json"
        assert main(["build-coreset", "--input", str(data_file), "--k", "2",
                     "--eps", "0.3", "--seed", "1",
                     "--coreset-out", str(core),
                     "--out", str(tmp_path / "build.json")]) == 0
        capsys.readouterr()
        argv = [a.format(data=data_file, core=core) for a in argv]
        assert main(argv + ["--seed", "1", "--out", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "k" in err

    @pytest.mark.parametrize("argv, flag", [
        *[(["build-coreset", "--k", "2", "--eps", "0.3", "--c", c,
            "--coreset-out", "{out}", "--input", "{data}"], "c")
          for c in ("nan", "inf", "-1", "0")],
        (["build-coreset", "--k", "2", "--eps", "0.3", "--t", "0",
          "--coreset-out", "{out}", "--input", "{data}"], "t"),
        (["solve", "--method", "coreset", "--k", "2", "--c", "-1",
          "--input", "{data}"], "c"),
        (["bicriteria", "--k", "2", "--eps", "0.3", "--c", "-1",
          "--input", "{data}"], "c"),
        (["bicriteria", "--k", "2", "--eps", "0.3", "--beta", "-4",
          "--input", "{data}"], "beta"),
        (["bicriteria", "--k", "2", "--eps", "0.3", "--beta", "0",
          "--input", "{data}"], "beta"),
        (["stream", "--k", "2", "--eps", "0.3", "--block-size", "16",
          "--c", "-1", "--input", "{data}"], "c"),
        (["stream", "--k", "2", "--eps", "0.3", "--block-size", "16",
          "--c", "0", "--input", "{data}"], "c"),
        (["bench", "--k-grid", "2", "--n-grid", "50", "--eps-grid", "0.3",
          "--c", "-1"], "c"),
        *[(["bench", "--n-grid", "50", "--k-grid", "2", "--eps-grid", "0.3",
            grid, ""], grid.strip("-"))
          for grid in ("--n-grid", "--k-grid", "--eps-grid")],
        # a non-finite eps used to fail in the cell seed with a traceback
        *[(["bench", "--n-grid", "50", "--k-grid", "2", "--eps-grid",
            f"0.3,{eps}"], "eps-grid") for eps in ("nan", "inf", "1")],
        (["verify", "--k", "0", "--coreset", "{core}", "--input", "{data}"],
         "k"),
        (["verify", "--k", "0", "--query-file", "{data}", "--coreset", "{core}",
          "--input", "{data}"], "k"),
        (["verify", "--eps", "0", "--coreset", "{core}", "--input", "{data}"],
         "eps"),
        (["verify", "--queries", "-5", "--coreset", "{core}", "--input",
          "{data}"], "queries"),
        (["bench", "--k-grid", "2", "--n-grid", "50", "--eps-grid", "0.3",
          "--queries", "-4"], "queries"),
        (["solve", "--method", "coreset", "--k", "2", "--delta", "0",
          "--input", "{data}"], "delta"),
        (["bench", "--k-grid", "2", "--n-grid", "50", "--eps-grid", "0.3",
          "--delta", "0"], "delta"),
    ])
    def test_bad_sample_constant_beta_t_k_or_eps_is_a_validation_error(
            self, tmp_path, data_file, capsys, argv, flag):
        # each value used to end in a traceback, in "center set must be
        # nonempty", or in a silent fall back to the default
        core = tmp_path / "core.json"
        assert main(["build-coreset", "--input", str(data_file), "--k", "2",
                     "--eps", "0.3", "--seed", "1",
                     "--coreset-out", str(core),
                     "--out", str(tmp_path / "build.json")]) == 0
        capsys.readouterr()
        out, report = tmp_path / "new.json", tmp_path / "r.json"
        argv = [a.format(data=data_file, core=core, out=out) for a in argv]
        assert main(argv + ["--seed", "1", "--out", str(report)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and re.search(rf"\b{flag}\b", err), err
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("flag, value", [("--z", "0.5"), ("--t", "0"),
                                             ("--eps", "1"), ("--delta", "0"),
                                             ("--delta", "-0.5")])
    def test_bad_build_value_fails_before_the_anchors(
            self, tmp_path, data_file, capsys, monkeypatch, flag, value):
        # these used to pay the whole anchor build before exit 3
        import coreclust.solvers as solvers
        calls = []
        anchors = solvers.constant_factor_metric_kmedian
        monkeypatch.setattr(solvers, "constant_factor_metric_kmedian",
                            lambda *a, **kw: calls.append(1) or anchors(*a, **kw))
        out = tmp_path / "core.json"
        argv = ["build-coreset", "--input", str(data_file), "--k", "2",
                "--eps", "0.3", "--seed", "1", "--coreset-out", str(out),
                flag, value]
        assert main(argv) == 3
        assert capsys.readouterr().err.count("\n") == 1
        assert calls == [] and not out.exists()
        # the wrapper does see the anchors of a good build
        assert main(argv[:-2] + ["--out", str(tmp_path / "r.json")]) == 0
        assert calls == [1] and out.exists()

    @pytest.mark.parametrize("argv", [
        ["build-coreset", "--k", "3", "--eps", "1e-9", "--coreset-out", "{out}"],
        ["build-coreset", "--k", "3", "--eps", "1e-200", "--coreset-out",
         "{out}"],
        ["build-coreset", "--k", "3", "--eps", "0.3", "--t", "2147483648",
         "--coreset-out", "{out}"],
        ["solve", "--method", "coreset", "--k", "3", "--c", "1e9"],
    ])
    def test_a_sample_too_large_to_draw_is_refused_before_the_anchors(
            self, tmp_path, data_file, capsys, monkeypatch, argv):
        # each used to end in a traceback: numpy's "array is too big", a
        # division by zero, or an allocation of 16 GiB to 1.51 TiB
        import coreclust.solvers as solvers
        calls = []
        monkeypatch.setattr(solvers, "constant_factor_metric_kmedian",
                            lambda *a, **kw: calls.append(1))
        out = tmp_path / "core.json"
        argv = [a.format(out=out) for a in argv]
        assert main(argv + ["--input", str(data_file), "--seed", "1"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "sample size t = " in err, err
        assert "exceeds 2147483647 draws" in err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("eps", ["1e-9", "1e-200"])
    def test_a_stream_block_too_large_is_refused_before_any_point(
            self, data_file, capsys, monkeypatch, eps):
        # 1e-9 took a block of 2.1e19 points, so the buffer kept every point;
        # 1e-200 was a division by zero
        import coreclust.cli as cli
        pushed = []
        monkeypatch.setattr(cli, "stream_push", lambda *a: pushed.append(a))
        assert main(["stream", "--input", str(data_file), "--k", "3",
                     "--eps", eps, "--seed", "1"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "block size " in err, err
        assert "exceeds 2147483647 points" in err
        assert pushed == []

    def test_audit_without_queries_is_a_validation_error(self, tmp_path,
                                                         data_file, capsys):
        # C(60, 4) is above the brute-force limit, so --queries 0 leaves the
        # audit with nothing to check; it must not pass
        core, report = tmp_path / "core.json", tmp_path / "verify.json"
        assert main(["build-coreset", "--input", str(data_file), "--k", "4",
                     "--eps", "0.3", "--seed", "1", "--coreset-out", str(core),
                     "--out", str(tmp_path / "build.json")]) == 0
        capsys.readouterr()
        assert main(["verify", "--input", str(data_file), "--coreset",
                     str(core), "--seed", "1", "--queries", "0", "--strict",
                     "--out", str(report)]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "queries" in err
        assert not report.exists()

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"type": "static"}',
        json.dumps({"type": "static", "z": 1.0, "eps": 0.3,
                    "metric": {"kind": "explicit-matrix"},
                    "points": [{"coords": 999, "weight": 40.0}]}),
    ], ids=["not-json", "no-metric", "id-outside-metric"])
    def test_malformed_coreset_file(self, tmp_path, metric_file, capsys, text):
        core = tmp_path / "core.json"
        core.write_text(text)
        assert main(["verify", "--coreset", str(core), "--input",
                     str(metric_file), "--metric", str(metric_file),
                     "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(core) in err

    @pytest.mark.parametrize("field, value", [
        ("weight", float("nan")), ("z", "z"), ("eps", "eps"),
        ("provenance", None)])
    def test_broken_coreset_field_is_an_io_error(self, tmp_path, capsys,
                                                 field, value):
        # a NaN weight used to pass verify (exit 0 under --strict); a string
        # z or eps, or a null provenance, ended in a traceback (exit 1)
        data, core = tmp_path / "pts.csv", tmp_path / "core.json"
        np.savetxt(data, gaussian_mixture(300, 2, 2, seed=3), delimiter=",")
        assert main(["build-coreset", "--input", str(data), "--k", "2",
                     "--eps", "0.3", "--seed", "1", "--coreset-out", str(core),
                     "--out", str(tmp_path / "build.json")]) == 0
        doc = read(core)
        if field == "weight":
            doc["points"][5]["weight"] = value
        else:
            doc[field] = value
        core.write_text(json.dumps(doc))
        capsys.readouterr()
        report = tmp_path / "verify.json"
        assert main(["verify", "--input", str(data), "--coreset", str(core),
                     "--seed", "1", "--queries", "20", "--strict",
                     "--out", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(core) in err and field in err
        assert not report.exists()

    def test_no_partial_output_on_failure(self, tmp_path, data_file):
        target = tmp_path / "sub" / "report.json"
        code = main(["bicriteria", "--input", str(data_file), "--k", "999",
                     "--eps", "0.3", "--seed", "1", "--out", str(target)])
        assert code == 3
        assert not target.exists()


class TestStrictReasons:
    def test_verify_names_max_relative_error(self, tmp_path, data_file,
                                             capsys):
        core_path = tmp_path / "core.json"
        assert main(["build-coreset", "--input", str(data_file), "--k", "2",
                     "--eps", "0.3", "--seed", "7",
                     "--coreset-out", str(core_path)]) == 0
        capsys.readouterr()
        code = main(["verify", "--coreset", str(core_path), "--input",
                     str(data_file), "--seed", "7", "--queries", "40",
                     "--eps", "0.001", "--strict"])
        assert code == 4
        captured = capsys.readouterr()
        assert not json.loads(captured.out)["results"]["pass"]
        assert "max_relative_error" in captured.err
        assert "argmax_query" in captured.err

    def test_bicriteria_names_center_bound(self, tmp_path, data_file, capsys):
        # beta = 1 caps the bound at ceil(log2 60) = 6 centers, below k = 10
        code = main(["bicriteria", "--input", str(data_file), "--k", "10",
                     "--beta", "1", "--eps", "0.3", "--seed", "2", "--strict",
                     "--out", str(tmp_path / "bic.json")])
        assert code == 4
        err = capsys.readouterr().err
        assert "n_centers 10" in err and "center_bound 6" in err


class TestZeroCostQueries:
    """Every query costs 0 on 60 copies of one point."""

    @pytest.fixture
    def one_point(self, tmp_path):
        data, core = tmp_path / "same.csv", tmp_path / "core.json"
        np.savetxt(data, np.ones((60, 2)), delimiter=",")
        assert main(["build-coreset", "--input", str(data), "--k", "2",
                     "--eps", "0.3", "--seed", "1", "--coreset-out", str(core),
                     "--out", str(tmp_path / "build.json")]) == 0
        return data, core

    def verify(self, tmp_path, data, core):
        out = tmp_path / "verify.json"
        code = main(["verify", "--coreset", str(core), "--input", str(data),
                     "--seed", "1", "--strict", "--out", str(out)])
        return code, read(out)["results"]

    def test_zero_cost_queries_are_audited(self, tmp_path, one_point):
        code, res = self.verify(tmp_path, *one_point)
        assert code == 0
        assert res["max_relative_error"] == 0.0 and res["argmax_query"] == 0
        assert res["pass"]

    def test_nonzero_coreset_cost_fails(self, tmp_path, one_point, capsys):
        data, core = one_point
        doc = read(core)
        doc["points"][0]["coords"] = [2.0, 2.0]
        core.write_text(json.dumps(doc))
        code, res = self.verify(tmp_path, data, core)
        assert code == 4
        assert res["max_relative_error"] == "Infinity" and res["pass"] is False
        assert "max_relative_error inf" in capsys.readouterr().err


class TestSolve:
    def test_local_search_refuses_k_above_the_candidates(self, tmp_path,
                                                          capsys):
        # local search used to lower k to the 300 points silently (cost 0)
        data = tmp_path / "pts.csv"
        np.savetxt(data, gaussian_mixture(300, 2, 2, seed=3), delimiter=",")
        errors = []
        for method in ("brute", "local"):
            out = tmp_path / f"{method}.json"
            assert main(["solve", "--input", str(data), "--k", "400",
                         "--method", method, "--seed", "1",
                         "--out", str(out)]) == 3
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors[0] == errors[1] == (
            "coreclust: need 1 <= k <= 300 candidates, got k=400\n")

    @pytest.mark.parametrize("method", ["brute", "local", "constant-factor",
                                        "coreset"])
    def test_methods_run(self, tmp_path, data_file, method):
        out = tmp_path / f"{method}.json"
        code = main(["solve", "--input", str(data_file), "--k", "2",
                     "--method", method, "--seed", "5", "--out", str(out)])
        assert code == 0
        rep = read(out)
        assert rep["results"]["solution"]["cost"] >= 0.0
        if method == "coreset":
            assert rep["results"]["audit"]["true_cost"] == \
                rep["results"]["solution"]["cost"]

    def test_brute_is_floor(self, tmp_path, data_file):
        costs = {}
        for method in ("brute", "local", "constant-factor"):
            out = tmp_path / f"{method}.json"
            main(["solve", "--input", str(data_file), "--k", "2", "--method",
                  method, "--seed", "5", "--out", str(out)])
            costs[method] = read(out)["results"]["solution"]["cost"]
        assert costs["brute"] <= costs["local"] + 1e-9
        assert costs["brute"] <= costs["constant-factor"] + 1e-9


    def test_constant_factor_reports_the_cost_at_z(self, tmp_path, data_file):
        # --z used to be echoed in config while the centers and the reported
        # cost stayed at z = 1
        from coreclust.geometry import PointSet, cost
        from coreclust.io import load_points
        from coreclust.solvers import constant_factor_metric_kmedian
        P = PointSet(load_points(data_file))
        sols = {}
        for z in ("1", "2"):
            out = tmp_path / f"z{z}.json"
            assert main(["solve", "--input", str(data_file), "--k", "2",
                         "--method", "constant-factor", "--z", z, "--seed", "5",
                         "--out", str(out)]) == 0
            sols[z] = read(out)["results"]["solution"]
            centers = np.array(sols[z]["centers"])
            assert sols[z]["cost"] == cost(P, centers, float(z))
        # z = 1 is still the anchors static_coreset builds
        anchors = constant_factor_metric_kmedian(P, 2, 0.2, 0.1, 5)
        assert sols["1"]["centers"] == anchors.centers.tolist()
        assert sols["1"]["cost"] == anchors.cost
        assert sols["2"]["cost"] != sols["1"]["cost"]


class TestBicriteriaCommand:
    def test_report_fields(self, tmp_path, data_file):
        out = tmp_path / "bic.json"
        code = main(["bicriteria", "--input", str(data_file), "--k", "2",
                     "--eps", "0.3", "--seed", "2", "--out", str(out)])
        assert code == 0
        rep = read(out)
        res = rep["results"]
        assert res["n_centers"] <= res["center_bound"]
        assert res["total_cost"] <= (2 + 0.3) * res["opt_lower_bound"] + 1e-9
        assert sum(r["size"] for r in res["rounds"]) == 60


class TestStream:
    def test_stream_from_file(self, tmp_path):
        pts = gaussian_mixture(256, 2, 2, seed=3)
        src = tmp_path / "stream.csv"
        np.savetxt(src, pts, delimiter=",")
        qf = tmp_path / "q.csv"
        np.savetxt(qf, pts[:2], delimiter=",")
        out = tmp_path / "stream.json"
        code = main(["stream", "--input", str(src), "--k", "2", "--eps",
                     "0.4", "--block-size", "64", "--seed", "8",
                     "--query-file", str(qf), "--out", str(out)])
        assert code == 0
        rep = read(out)
        assert rep["results"]["final"]["points_seen"] == 256
        assert len(rep["results"]["checkpoints"]) == 4
        assert rep["results"]["query_cost"] > 0
        # 4 blocks: levels [2], so 3 carries, each on its children's anchors
        trace = rep["results"]["trace"]
        assert {key: trace[key] for key in ("block_builds", "carries",
                                            "child_anchor_carries")} == {
            "block_builds": 4, "carries": 3, "child_anchor_carries": 3}
        assert 0 <= trace["negative_weights"] <= 64

    @pytest.mark.parametrize("payload, block_size, message", [
        ("1,2\nx,3\n", "64", "row 2: could not convert string to float"),
        ("1,2\n3\n4,5\n6,7\n", "3", "row 2 has 1 columns, expected 2"),
    ])
    def test_bad_stdin_line_is_load_error(self, monkeypatch, capsys, payload,
                                          block_size, message):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(payload))
        code = main(["stream", "--k", "2", "--eps", "0.4", "--block-size",
                     block_size, "--seed", "3"])
        assert code == 2
        assert f"<stdin>: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("query", [False, True])
    def test_a_non_finite_point_is_a_validation_error(self, tmp_path,
                                                      monkeypatch, capsys,
                                                      query):
        # the point was buffered: exit 0 with points_seen 3, or exit 3 from
        # the query without naming the point
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO("1,2\nnan,3\n4,5\n"))
        argv = ["stream", "--k", "1", "--eps", "0.4", "--block-size", "64",
                "--seed", "3"]
        if query:
            qf = tmp_path / "q.csv"
            qf.write_text("0,0\n")
            argv += ["--query-file", str(qf)]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err == ("coreclust: stream point 2 has non-finite "
                                "coordinates\n")
        assert captured.out == ""


class TestRowRules:
    """Point rows follow one rule whether they come from a point file,
    `stream --input` or `stream` on standard input."""

    @pytest.mark.parametrize("payload", [
        b"1,2\n , \n3,4\n",
        b'"1","2"\n3,4\n',
        b"1,2\r\n3,4\r\n",
        b"1,2,\n3,4\n",
        b"1,2\n3\n4,5\n",
        b"1,2\nx,3\n",
        b"1,2\n3\x00,4\n",
        b"1,2\n" + b"3" * 200_000 + b",4\n",
        b"1,2\n\xff\xfe,3\n",
    ], ids=["blank-cells", "quoted", "crlf", "trailing-comma", "ragged",
            "non-number", "nul", "oversize-cell", "not-utf8"])
    def test_file_and_stream_agree(self, tmp_path, monkeypatch, capsys,
                                   payload):
        import io
        import coreclust.cli as cli
        from coreclust.geometry import LoadError
        from coreclust.io import load_points
        path = tmp_path / "rows.csv"
        path.write_bytes(payload)
        try:
            expected = ("points", load_points(path).tolist())
        except LoadError as exc:
            expected = ("exit 2", str(exc).removeprefix(f"{path}: "))
        pushed = []
        push = cli.stream_push
        monkeypatch.setattr(cli, "stream_push",
                            lambda state, row: pushed.append(row) or push(state, row))
        argv = ["stream", "--k", "1", "--eps", "0.4", "--block-size", "64",
                "--seed", "3", "--out", str(tmp_path / "r.json")]
        for source, name in ((["--input", str(path)], str(path)),
                             ([], "<stdin>")):
            monkeypatch.setattr("sys.stdin",
                                io.TextIOWrapper(io.BytesIO(payload)))
            pushed.clear()
            capsys.readouterr()
            code = main(argv + source)
            if expected[0] == "points":
                assert code == 0 and pushed == expected[1]
            else:
                assert code == 2
                assert capsys.readouterr().err == (
                    f"coreclust: {name}: {expected[1]}\n")
        if expected[0] == "exit 2":
            assert re.match(r"row \d+", expected[1])


# the long flags of every subcommand: each one is read by its command, so a
# dead flag or an alias cannot come back unnoticed
FLAGS = {
    "build-coreset": {"--help", "--input", "--metric", "--seed", "--out",
                      "--strict", "--c", "--k", "--eps", "--z", "--t",
                      "--delta", "--coreset-out"},
    "bicriteria": {"--help", "--input", "--metric", "--seed", "--out",
                   "--strict", "--c", "--k", "--eps", "--delta", "--beta"},
    "solve": {"--help", "--input", "--metric", "--seed", "--out", "--c",
              "--k", "--method", "--eps", "--z", "--delta"},
    "verify": {"--help", "--input", "--metric", "--seed", "--out", "--strict",
               "--coreset", "--k", "--eps", "--queries", "--query-file"},
    "stream": {"--help", "--input", "--seed", "--out", "--c", "--k", "--eps",
               "--z", "--block-size", "--query-file"},
    "bench": {"--help", "--seed", "--out", "--c", "--n-grid", "--k-grid",
              "--eps-grid", "--d", "--delta", "--queries", "--csv-out"},
}

# enough of each command for its parser to accept it
REQUIRED = {
    "build-coreset": ["--input", "p", "--seed", "1", "--k", "2", "--eps", "0.3",
                      "--coreset-out", "c"],
    "bicriteria": ["--input", "p", "--seed", "1", "--k", "2", "--eps", "0.3"],
    "solve": ["--input", "p", "--seed", "1", "--k", "2", "--method", "brute"],
    "verify": ["--input", "p", "--seed", "1", "--coreset", "c"],
    "stream": ["--seed", "1", "--k", "2", "--eps", "0.3"],
    "bench": ["--seed", "1", "--n-grid", "50", "--k-grid", "2",
              "--eps-grid", "0.3"],
}


def _subparsers():
    import argparse
    from coreclust.cli import build_parser
    parser = build_parser()
    action, = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
    return parser, action.choices


class TestCliSurface:
    def test_each_command_has_exactly_its_flags(self):
        parser, commands = _subparsers()
        assert {s for a in parser._actions for s in a.option_strings
                if s.startswith("--")} == {"--help", "--version"}
        assert set(commands) == set(FLAGS)
        for name, sp in commands.items():
            flags = {s for a in sp._actions for s in a.option_strings
                     if s.startswith("--")}
            assert flags == FLAGS[name], name

    def test_every_flag_prefix_is_a_usage_error(self, capsys):
        _, commands = _subparsers()
        for name, sp in commands.items():
            # the minimal command line parses
            sp.parse_args(REQUIRED[name])
            for flag in FLAGS[name]:
                for end in range(3, len(flag)):
                    if flag[:end] in FLAGS[name]:
                        continue
                    with pytest.raises(SystemExit) as exc:
                        sp.parse_args(REQUIRED[name] + [flag[:end], "1"])
                    assert exc.value.code == 1, (name, flag[:end])
        capsys.readouterr()

    @pytest.mark.parametrize("argv, flag", [
        (["bench", "--n", "60", "--k", "2", "--eps", "0.3", "--seed", "1"],
         "--n"),
        (["verify", "--in", "{data}", "--coreset", "{core}", "--seed", "1"],
         "--in"),
        (["verify", "--input", "{data}", "--coreset", "{core}", "--seed", "1",
          "--c", "1"], "--c"),
        (["stream", "--k", "2", "--eps", "0.3", "--seed", "1", "--strict"],
         "--strict"),
        (["solve", "--input", "{data}", "--k", "2", "--method", "brute",
          "--seed", "1", "--strict"], "--strict"),
        (["bench", "--n-grid", "50", "--k-grid", "2", "--eps-grid", "0.3",
          "--seed", "1", "--strict"], "--strict"),
    ])
    def test_abbreviated_or_dead_flag_is_one_usage_error(
            self, tmp_path, data_file, capsys, argv, flag):
        core = tmp_path / "core.json"
        assert main(["build-coreset", "--input", str(data_file), "--k", "2",
                     "--eps", "0.3", "--seed", "1", "--coreset-out", str(core),
                     "--out", str(tmp_path / "build.json")]) == 0
        capsys.readouterr()
        argv = [a.format(data=data_file, core=core) for a in argv]
        assert main(argv + ["--out", str(tmp_path / "r.json")]) == 1
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and flag in errors[0], captured.err
        assert captured.out == "" and not (tmp_path / "r.json").exists()


class TestBench:
    def test_single_cell_matches_build_verify(self, tmp_path):
        out = tmp_path / "bench.json"
        csv_out = tmp_path / "bench.csv"
        code = main(["bench", "--n-grid", "80", "--k-grid", "2",
                     "--eps-grid", "0.3", "--seed", "4", "--out", str(out),
                     "--csv-out", str(csv_out)])
        assert code == 0
        rep = read(out)
        assert rep["results"]["cells"] == 1
        row = rep["results"]["rows"][0]

        # rebuild the same cell through the library: identical error
        from coreclust.cli import _max_rel_error, _query_grid
        from coreclust.geometry import PointSet
        from coreclust.solvers import (constant_factor_metric_kmedian,
                                       strong_coreset_sample_size)
        from coreclust.construction import k_median_coreset
        pts = gaussian_mixture(80, 2, 2, row["seed"])
        P = PointSet(pts)
        anchors = constant_factor_metric_kmedian(P, 2, 0.3, 0.1, row["seed"])
        t = strong_coreset_sample_size(80, 2, 0.3, 0.1, P.metric, dim=2)
        core = k_median_coreset(P, anchors.centers, t, 0.3, seed=row["seed"])
        queries = _query_grid(P, 2, 50, row["seed"],
                              extra_centers=anchors.centers)
        worst, _ = _max_rel_error(P, core, queries)
        assert row["max_relative_error"] == pytest.approx(worst, rel=1e-12)
        assert row["t"] == t
        lines = csv_out.read_text().strip().splitlines()
        assert len(lines) == 2

    def test_grid_cardinality(self, tmp_path):
        out = tmp_path / "bench.json"
        code = main(["bench", "--n-grid", "40,60", "--k-grid", "1,2",
                     "--eps-grid", "0.3", "--seed", "4", "--queries", "10",
                     "--out", str(out)])
        assert code == 0
        assert read(out)["results"]["cells"] == 4


class TestExplicitMetricCli:
    def test_build_and_verify_with_metric(self, tmp_path, metric_file):
        core_path = tmp_path / "core.json"
        # point ids come from the matrix, which is also the hashed file
        code = main(["build-coreset", "--input", str(metric_file), "--metric",
                     str(metric_file), "--k", "2", "--eps", "0.3", "--seed", "2",
                     "--coreset-out", str(core_path)])
        assert code == 0
        code = main(["verify", "--coreset", str(core_path), "--input",
                     str(metric_file), "--metric", str(metric_file), "--seed", "2",
                     "--queries", "25"])
        assert code == 0
        # a query file under --metric holds one id per row
        ids = np.array([3, 17, 31])
        query, report = tmp_path / "ids.csv", tmp_path / "verify.json"
        np.savetxt(query, ids, fmt="%d")
        assert main(["verify", "--coreset", str(core_path), "--input",
                     str(metric_file), "--metric", str(metric_file), "--seed",
                     "2", "--query-file", str(query), "--out", str(report)]) == 0
        metric = load_metric_csv(metric_file)
        core = load_coreset(core_path, metric)
        data = PointSet(np.arange(metric.size), metric=metric)
        true = costs(data, [ids], z=core.z)[0]
        want = abs(true - core.cost(ids)) / true
        assert read(report)["results"]["max_relative_error"] == want

    @pytest.mark.parametrize("text, code, message", [
        ("3\n2.5\n", 2, "row 2: id 2.5 is not a whole number"),
        ("3\n40\n", 3, "point ids out of range"),
    ])
    def test_verify_id_query_file_errors(self, tmp_path, metric_file, capsys,
                                         text, code, message):
        core = tmp_path / "core.json"
        assert main(["build-coreset", "--input", str(metric_file), "--metric",
                     str(metric_file), "--k", "2", "--eps", "0.3", "--seed", "2",
                     "--coreset-out", str(core),
                     "--out", str(tmp_path / "build.json")]) == 0
        query = tmp_path / "ids.csv"
        query.write_text(text)
        capsys.readouterr()
        assert main(["verify", "--coreset", str(core), "--input",
                     str(metric_file), "--metric", str(metric_file), "--seed",
                     "2", "--query-file", str(query)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_missing_input_is_an_io_error(self, tmp_path, metric_file, capsys):
        # the ids come from the matrix, but --input must still open
        core, missing = tmp_path / "core.json", str(tmp_path / "nope.csv")
        assert main(["build-coreset", "--input", missing, "--metric",
                     str(metric_file), "--k", "2", "--eps", "0.3", "--seed",
                     "2", "--coreset-out", str(core)]) == 2
        assert not core.exists()
        assert main(["build-coreset", "--input", str(metric_file), "--metric",
                     str(metric_file), "--k", "2", "--eps", "0.3", "--seed",
                     "2", "--coreset-out", str(core),
                     "--out", str(tmp_path / "build.json")]) == 0
        capsys.readouterr()
        assert main(["verify", "--coreset", str(core), "--input", missing,
                     "--metric", str(metric_file), "--seed", "2",
                     "--queries", "5"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and missing in err

    def test_verify_rejects_another_matrix(self, tmp_path, data_file,
                                          metric_file, capsys):
        core = tmp_path / "core.json"
        assert main(["build-coreset", "--input", str(data_file), "--metric",
                     str(metric_file), "--k", "2", "--eps", "0.3", "--seed",
                     "2", "--coreset-out", str(core),
                     "--out", str(tmp_path / "build.json")]) == 0
        scaled = tmp_path / "scaled.csv"
        np.savetxt(scaled, 2 * np.loadtxt(metric_file, delimiter=","),
                   delimiter=",")
        code = main(["verify", "--coreset", str(core), "--input",
                     str(data_file), "--metric", str(scaled), "--seed", "2",
                     "--queries", "25"])
        assert code == 3
        assert "provenance hash" in capsys.readouterr().err


class TestStdinStream:
    def test_console_script_reads_stdin(self, tmp_path, child_env):
        import subprocess
        import sys

        pts = gaussian_mixture(128, 2, 2, seed=7)
        payload = "\n".join(",".join(str(v) for v in row) for row in pts)
        out = tmp_path / "stream.json"
        proc = subprocess.run(
            [sys.executable, "-m", "coreclust", "stream", "--k", "2", "--eps", "0.4",
             "--block-size", "64", "--seed", "3", "--out", str(out)],
            input=payload, text=True, capture_output=True, env=child_env,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        rep = read(out)
        assert rep["results"]["final"]["points_seen"] == 128
        assert rep["results"]["final"]["bucket_levels"] == [1]


class TestOverflow:
    @pytest.mark.parametrize("argv", [
        ["build-coreset", "--k", "3", "--eps", "0.3", "--coreset-out", "core.json"],
        ["solve", "--method", "coreset", "--k", "3"],
    ])
    def test_overflowing_coordinates_exit_3(self, tmp_path, argv, child_env):
        import subprocess
        import sys

        data = tmp_path / "big.csv"
        np.savetxt(data, gaussian_mixture(300, 2, 3, seed=11) * 1e154,
                   delimiter=",", fmt="%.17g")
        proc = subprocess.run(
            [sys.executable, "-m", "coreclust", *argv, "--input", str(data),
             "--seed", "1", "--out", "report.json"],
            cwd=tmp_path, text=True, capture_output=True, env=child_env,
            timeout=120)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "coreclust: distance to the nearest center overflows float64; "
            "rescale the coordinates"]
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "core.json").exists()


class TestProcess:
    """A bare import loads no numpy, and a CLI process starts OpenBLAS with
    one thread unless the caller set OPENBLAS_NUM_THREADS."""

    def test_import_loads_no_numpy(self, child_env):
        import subprocess
        import sys

        code = ("import sys, coreclust\n"
                "assert 'numpy' not in sys.modules, 'import coreclust loaded numpy'\n"
                "from coreclust import cost\n"
                "print(cost.__module__, 'numpy' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-c", code], env=child_env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "coreclust.geometry True\n"

    @staticmethod
    def waiting_stream_threads(env) -> int:
        """The OS threads of a `stream` child that has written its first
        checkpoint and waits on an open stdin pipe."""
        import os
        import subprocess
        import sys
        import threading
        from pathlib import Path

        if not Path("/proc/self/task").is_dir():
            pytest.skip("no /proc")
        rows = gaussian_mixture(16, 2, 2, seed=7)
        proc = subprocess.Popen(
            [sys.executable, "-m", "coreclust", "stream", "--k", "2", "--eps",
             "0.4", "--block-size", "16", "--seed", "3"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
            env=dict(env, PYTHONUNBUFFERED="1"))
        timer = threading.Timer(120, proc.kill)
        timer.start()
        try:
            proc.stdin.write("".join(",".join(map(str, r)) + "\n" for r in rows))
            proc.stdin.flush()
            line = proc.stdout.readline()
            if line:
                maps = Path(f"/proc/{proc.pid}/maps").read_text()
                threads = len(os.listdir(f"/proc/{proc.pid}/task"))
        finally:
            proc.stdin.close()
            proc.wait()
            timer.cancel()
        err = proc.stderr.read()
        proc.stdout.close()
        proc.stderr.close()
        assert proc.returncode == 0 and line, err
        assert json.loads(line)["points_seen"] == 16
        if "openblas" not in maps.lower():
            pytest.skip("numpy does not use OpenBLAS here")
        return threads

    def test_the_cli_runs_one_thread(self, child_env):
        child_env.pop("OPENBLAS_NUM_THREADS", None)
        assert self.waiting_stream_threads(child_env) == 1

    def test_a_thread_count_the_caller_set_is_kept(self, child_env):
        import os

        # OpenBLAS starts no more threads than it has processors
        if len(os.sched_getaffinity(0)) < 2:
            pytest.skip("fewer than 2 processors")
        child_env["OPENBLAS_NUM_THREADS"] = "2"
        assert self.waiting_stream_threads(child_env) == 2
