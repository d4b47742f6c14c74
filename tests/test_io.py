import csv
import json
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coreclust.construction import k_median_coreset, metric_b_coreset
from coreclust.geometry import LoadError, Metric, PointSet, metric_from_points
import coreclust.io as cio
from coreclust.io import (
    _nonempty,
    coreset_from_dict,
    csv_points,
    csv_rows,
    coreset_to_dict,
    json_text,
    load_coreset,
    load_metric_csv,
    load_point_set,
    load_points,
    load_points_csv,
    load_points_jsonl,
    open_points,
    save_coreset,
)


class TestPointFiles:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "pts.csv"
        pts = np.random.default_rng(0).normal(size=(7, 3))
        np.savetxt(path, pts, delimiter=",")
        loaded = load_points_csv(path)
        assert np.allclose(loaded, pts)

    def test_csv_mixed_width_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(LoadError, match="row 2"):
            load_points_csv(path)

    def test_csv_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,a\n")
        with pytest.raises(LoadError):
            load_points_csv(path)

    def test_csv_empty_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,,2\n3,4\n5,6\n")
        with pytest.raises(LoadError, match="row 1: could not convert"):
            load_points_csv(path)

    def test_csv_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("1,2\n\n , \n3,4\n")
        assert load_points_csv(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_jsonl_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "pts.jsonl"
        path.write_text('{"coords": [1, 2]}\n{"coords": [3, null]}\n')
        with pytest.raises(LoadError, match="row 2"):
            load_points_jsonl(path)

    @pytest.mark.parametrize("cell", ['"1.5"', "true", "false", '"nan"',
                                      "[1]"])
    def test_jsonl_coordinates_must_be_numbers(self, tmp_path, cell):
        path = tmp_path / "pts.jsonl"
        path.write_text('{"coords": [1, 2]}\n{"coords": [3, %s]}\n' % cell)
        with pytest.raises(LoadError, match="row 2: .* is not a JSON number"):
            load_points_jsonl(path)

    def test_jsonl_integers_beyond_float64_are_infinite(self, tmp_path):
        path = tmp_path / "pts.jsonl"
        big = "1" + "0" * 400
        path.write_text('{"coords": [%s, -%s, 7]}\n' % (big, big))
        assert load_points_jsonl(path).tolist() == [[np.inf, -np.inf, 7.0]]

    def test_jsonl(self, tmp_path):
        path = tmp_path / "pts.jsonl"
        path.write_text('{"coords": [1, 2]}\n{"coords": [3, 4]}\n')
        assert load_points_jsonl(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_jsonl_mixed_width_rejected(self, tmp_path):
        path = tmp_path / "pts.jsonl"
        path.write_text('{"coords": [1, 2]}\n{"coords": [3]}\n')
        with pytest.raises(LoadError, match="row 2 has 1 columns, expected 2"):
            load_points_jsonl(path)

    @pytest.mark.parametrize("coords", ['"12"', "7", '{"x": 1}'])
    def test_jsonl_coords_must_be_a_list(self, tmp_path, coords):
        # a string used to be read character by character: "12" -> (1, 2)
        path = tmp_path / "pts.jsonl"
        path.write_text('{"coords": [1, 2]}\n{"coords": %s}\n' % coords)
        with pytest.raises(LoadError, match="line 2: coords must be a JSON list"):
            load_points(path)

    def test_jsonl_rows_of_no_coordinates_are_rejected(self, tmp_path):
        # fifty such rows used to load as a (50, 0) array, build a coreset
        # and pass verify at error 0
        path = tmp_path / "pts.jsonl"
        path.write_text('{"coords": []}\n' * 50)
        with pytest.raises(LoadError, match="line 1: coords is empty"):
            load_points(path)
        path.write_text('{"coords": [1, 2]}\n\n{"coords": []}\n')
        with pytest.raises(LoadError, match="line 3: coords is empty"):
            load_points(path)

    def test_dispatch_by_extension(self, tmp_path):
        path = tmp_path / "pts.jsonl"
        path.write_text('{"coords": [5]}\n')
        assert load_points(path).tolist() == [[5.0]]

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("")
        with pytest.raises(LoadError):
            load_points_csv(path)


def csv_rows_outcome(path):
    """What csv_rows makes of a point file: its array's shape and bits, or
    its LoadError's text."""
    try:
        with open_points(path) as fh:
            points = np.asarray(_nonempty(path, list(csv_rows(fh, path))))
    except LoadError as exc:
        return "error", str(exc)
    return points.shape, points.tobytes()


def outcome(load, path):
    try:
        points = load(path)
    except LoadError as exc:
        return "error", str(exc)
    return points.shape, points.tobytes()


def read_by_lines(n):
    """A loader that reads a point file as `stream` does, through
    csv_points at most n lines a chunk."""
    def load(path):
        with open_points(path) as fh:
            blocks = list(csv_points(fh, path, lambda: n))
        assert all(len(b) <= n for b in blocks)
        return np.concatenate(_nonempty(path, blocks))
    return load


def loadtxt_blocks():
    """A patch of np.loadtxt that records every array it returns."""
    real, blocks = np.loadtxt, []

    def loadtxt(*args, **kwargs):
        blocks.append(real(*args, **kwargs))
        return blocks[-1]
    return mock.patch.object(np, "loadtxt", loadtxt), blocks


# cells where np.loadtxt and float() could part: spellings only float()
# takes, quotes, signed zeros, NaNs, values past the float64 range either
# way, whitespace float() strips or keeps, NUL and non-ASCII text
ODD_CELLS = ["1_0", "\u0661", "\uff13", "-0", "+0.0", "nan", "-nan", "NaN",
             "inf", "-Infinity", "1e400", "-1e400", "1e-400", "4.9e-324",
             '"1"', '"2.5"', '"1\n2"', "", " ", " 3 ", "\t4\t", "\x0c5", "\x0b6",
             "7\x1c", "\x1f8", "9\x00", "1\u00a0", "\u20032", "x", "0x1", "1e",
             "1d5", ".5", "5.", "+.5e-3"]
cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(ODD_CELLS),
    st.text(alphabet="0123456789.eE+-_ \t", max_size=6))
rows = st.one_of(st.lists(cells, min_size=1, max_size=3).map(",".join),
                 st.sampled_from(["", "  ", " , ", ","]))


class TestCsvFastPath:
    """csv_points parses CSV text with np.loadtxt a chunk of lines at a time
    and goes on with csv_rows from the first chunk np.loadtxt might read
    otherwise: either way the array, or the LoadError text, is the one
    csv_rows gives, for a file and for the few lines at a time `stream`
    reads."""

    @settings(max_examples=300, deadline=None)
    @given(lines=st.lists(rows, min_size=0, max_size=8),
           ending=st.sampled_from(["\n", "\r\n", "\r"]),
           last=st.sampled_from(["", "\n"]),
           raw=st.sampled_from([b"", b"\xff\xfe", b"\x00"]),
           chunk=st.sampled_from([1, 7, 64, 1 << 20]))
    def test_both_parsers_agree(self, lines, ending, last, raw, chunk):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pts.csv"
            path.write_bytes(ending.join(lines).encode() + raw + last.encode())
            expected = csv_rows_outcome(path)
            with mock.patch.object(cio, "LOADTXT_CHARS", chunk):
                assert outcome(load_points_csv, path) == expected
            for n in (1, 2, 5):
                assert outcome(read_by_lines(n), path) == expected

    @pytest.mark.parametrize("text", [
        "1,2\n3,4\n",
        "1,2\r\n\r\n3,4\r\n",
        "1,2\r3,4",
        " -0 , nan\n-nan,1e400\n\n1e-400 ,\t5\n",
        "7\n",
        "\n\n\n1e5,.5,5.\n",
    ])
    def test_well_formed_files_take_the_numpy_pass(self, tmp_path, text):
        path = tmp_path / "pts.csv"
        path.write_text(text, newline="")
        expected = csv_rows_outcome(path)
        # with a csv_rows that reads no row, np.loadtxt must read them all
        for chunk in (1, 1 << 20):
            with mock.patch.object(cio, "LOADTXT_CHARS", chunk), \
                    mock.patch.object(cio, "csv_rows", lambda *args: iter(())):
                assert outcome(load_points_csv, path) == expected
                assert outcome(read_by_lines(chunk), path) == expected

    @pytest.mark.parametrize("payload", [
        b'"1","2"\n3,4\n',
        b"1,2\n" + b"3" * (csv.field_size_limit() + 1) + b",4\n",
        b"1,2\n3\x00,4\n",
        b"1,2\n\xff\xfe,3\n",
        b"1,2\n3,4\x1c\n",
        "1,2\n\u0661,3\n".encode(),
        b"1,2\n3,4,\n",
        b"1,2\n3\n",
        b"\n \n",
    ], ids=["quoted", "oversize-cell", "nul", "not-utf8", "file-separator",
            "arabic-digit", "trailing-comma", "ragged", "blank"])
    def test_what_numpy_might_read_otherwise_goes_to_csv_rows(self, tmp_path,
                                                              payload):
        path = tmp_path / "pts.csv"
        path.write_bytes(payload)
        patch, parsed = loadtxt_blocks()
        with patch:
            got = outcome(load_points_csv, path)
        assert parsed == []
        assert got == csv_rows_outcome(path)

    @pytest.mark.parametrize("tail, bad", [
        ("", False), ("x,1\n", True), ("1,2,3\n", True),
        ("3" * (csv.field_size_limit() + 1) + ",4\n", True),
        ('"4\n",6\n', False)],
        ids=["none", "non-number", "ragged", "oversize", "quoted"])
    @pytest.mark.parametrize("cell", ['"1"', "1_0", '"1",5'],
                             ids=["quote", "1_0", "quote-and-width"])
    def test_a_decline_after_numpy_chunks_counts_rows_on(self, tmp_path,
                                                         cell, tail, bad):
        # row 40 holds what np.loadtxt declines; csv_rows reads from its
        # chunk on, carrying the row number and the width
        lines = [f"{i},{-i}\n" for i in range(1, 60)]
        lines[39] = f"{cell},40\n"
        lines[29] = "\n"
        path = tmp_path / "pts.csv"
        path.write_text("".join(lines) + "7,8\n" * 10 + tail, newline="")
        expected = csv_rows_outcome(path)
        if cell == '"1",5':
            assert expected[1] == f"{path}: row 40 has 3 columns, expected 2"
        elif bad:
            assert expected[1].startswith(f"{path}: row 70")
        for load in (load_points_csv, read_by_lines(3), read_by_lines(16)):
            patch, parsed = loadtxt_blocks()
            with patch, mock.patch.object(cio, "LOADTXT_CHARS", 64):
                assert outcome(load, path) == expected
            assert sum(map(len, parsed)) >= 30

    def test_the_text_is_parsed_a_chunk_at_a_time(self, tmp_path,
                                                  monkeypatch):
        X = np.random.default_rng(3).normal(size=(20_000, 4))
        path = tmp_path / "pts.csv"
        np.savetxt(path, X, delimiter=",", fmt="%.17g")
        monkeypatch.setattr(cio, "LOADTXT_CHARS", 1 << 14)
        tracemalloc.start()
        try:
            got = load_points_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == X.tobytes()
        # the chunks' arrays and their concatenation (8 bytes a cell each)
        # and a few chunks of text; the whole text is about 23 bytes a cell,
        # csv_rows' Python floats 32
        assert peak < 2 * X.nbytes + 16 * (1 << 14)
        assert path.stat().st_size > peak


class TestMetricFiles:
    def test_matrix_round_trip(self, tmp_path):
        coords = np.random.default_rng(1).normal(size=(9, 2))
        metric = metric_from_points(coords)
        path = tmp_path / "m.csv"
        np.savetxt(path, metric.matrix, delimiter=",")
        loaded = load_metric_csv(path)
        assert np.allclose(loaded.matrix, metric.matrix)

    def test_point_set_with_metric(self, tmp_path):
        coords = np.random.default_rng(2).normal(size=(5, 2))
        metric = metric_from_points(coords)
        mpath = tmp_path / "m.csv"
        np.savetxt(mpath, metric.matrix, delimiter=",")
        P = load_point_set(None, metric_path=mpath)
        assert len(P) == 5
        assert not P.metric.is_euclidean


class TestCoresetFiles:
    def test_static_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(25, 2))
        P = PointSet(pts)
        core = k_median_coreset(P, pts[:3], t=12, eps=0.2, seed=4)
        path = tmp_path / "core.json"
        save_coreset(path, core)
        loaded = load_coreset(path)
        x = pts[:2]
        assert loaded.cost(x) == pytest.approx(core.cost(x), rel=1e-15)
        assert coreset_to_dict(loaded) == coreset_to_dict(core)

    def test_threshold_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(20, 2))
        P = PointSet(pts)
        core = metric_b_coreset(P, pts[:2], t=9, eps=0.3, seed=5)
        path = tmp_path / "core.json"
        save_coreset(path, core)
        loaded = load_coreset(path)
        for _ in range(5):
            x = pts[rng.choice(20, 2, replace=False)]
            assert loaded.cost(x) == pytest.approx(core.cost(x), rel=1e-15)

    @pytest.mark.parametrize("field, value", [
        ("center", 7), ("center", -1), ("masses", [1.0, 2.0, 3.0])])
    def test_threshold_parts_must_match(self, tmp_path, field, value):
        pts = np.random.default_rng(4).normal(size=(20, 2))
        core = metric_b_coreset(PointSet(pts), pts[:2], t=9, eps=0.3, seed=5)
        doc = coreset_to_dict(core)
        part = doc["points" if field == "center" else "projected"][0]
        part[field] = value
        path = tmp_path / "core.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(LoadError, match="do not match the projected"):
            load_coreset(path)

    def test_threshold_runs_must_be_sorted(self, tmp_path):
        # cost finds every target's active copies with one binary search
        # over all thresholds, which holds only for sorted runs
        pts = np.random.default_rng(4).normal(size=(20, 2))
        core = metric_b_coreset(PointSet(pts), pts[:2], t=9, eps=0.3, seed=5)
        doc = coreset_to_dict(core)
        j = max(range(2), key=lambda j: len(doc["projected"][j]["thresholds"]))
        doc["projected"][j]["thresholds"].reverse()
        path = tmp_path / "core.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(LoadError, match=rf"'projected\[{j}\].thresholds' "
                                            "is not sorted"):
            load_coreset(path)

    @pytest.mark.parametrize("kind, part, field, value", [
        ("static", "points", "weight", float("nan")),
        ("static", "points", "weight", float("-inf")),
        ("static", "points", "weight", "1.5"),
        ("static", "points", "weight", True),
        ("static", "points", "weight", None),
        ("static", "points", "weight", 10 ** 400),
        ("static", None, "z", "z"),
        ("static", None, "z", None),
        ("static", None, "eps", "eps"),
        ("threshold", "points", "weight", float("nan")),
        ("threshold", "points", "threshold", float("inf")),
        ("threshold", "projected", "thresholds", [float("nan")]),
        ("threshold", "projected", "masses", ["1.0"]),
        ("threshold", None, "eps", float("inf")),
    ])
    def test_a_field_that_is_not_a_finite_number_is_rejected(
            self, tmp_path, kind, part, field, value):
        # a NaN weight used to load and then pass verify; a string z or eps
        # ended in a ValueError or TypeError traceback
        pts = np.random.default_rng(4).normal(size=(20, 2))
        build = k_median_coreset if kind == "static" else metric_b_coreset
        doc = coreset_to_dict(build(PointSet(pts), pts[:2], t=9, eps=0.3,
                                    seed=5))
        target = doc if part is None else doc[part][-1]
        target[field] = value
        path = tmp_path / "core.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(LoadError, match=rf"^{path}: field '\S*{field}\b"):
            load_coreset(path)

    @pytest.mark.parametrize("field, value, message", [
        ("provenance", None, "'provenance' holds None, not an object"),
        ("provenance", [1], "'provenance' holds [1], not an object"),
        ("k", "3", "'provenance.k' holds '3', not an integer"),
        ("k", 2.5, "'provenance.k' holds 2.5, not an integer"),
        ("k", True, "'provenance.k' holds True, not an integer"),
        ("eps", 5.0, "'eps' holds 5.0, not in (0, 1)"),
        ("eps", 1.0, "'eps' holds 1.0, not in (0, 1)"),
        ("eps", 0, "'eps' holds 0, not in (0, 1)"),
        ("eps", -1.0, "'eps' holds -1.0, not in (0, 1)"),
    ])
    def test_a_provenance_or_eps_outside_its_domain_is_rejected(
            self, tmp_path, field, value, message):
        # a null provenance ended in an AttributeError traceback in verify
        # and a string k in a TypeError; k 2.5 audited at k = 2, k true at
        # k = 1, and eps 5.0 passed an audit that --eps 5 refuses
        pts = np.random.default_rng(4).normal(size=(20, 2))
        doc = coreset_to_dict(k_median_coreset(PointSet(pts), pts[:2], t=9,
                                               eps=0.3, seed=5))
        (doc["provenance"] if field == "k" else doc)[field] = value
        path = tmp_path / "core.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(LoadError, match=rf"^{path}: field "
                           + re.escape(message)):
            load_coreset(path)

    @pytest.mark.parametrize("coords, field", [
        (["1.5", 2.0], "points[4].coords[0]"),
        ([True, "3"], "points[4].coords[0]"),
        ([1.0, None], "points[4].coords[1]")])
    def test_a_coordinate_that_is_not_a_number_is_rejected(
            self, tmp_path, coords, field):
        # as_points converted strings and bools: ["1.5", "2"] loaded as
        # (1.5, 2) and [true, "3"] as (1, 3)
        pts = np.random.default_rng(4).normal(size=(20, 2))
        doc = coreset_to_dict(k_median_coreset(PointSet(pts), pts[:2], t=9,
                                               eps=0.3, seed=5))
        doc["points"][4]["coords"] = coords
        path = tmp_path / "core.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(LoadError, match=rf"^{path}: field "
                           rf"'{re.escape(field)}' holds .*, not a finite"):
            load_coreset(path)

    @pytest.mark.parametrize("part, field, value", [
        ("points", "center", 0.7),
        ("points", "center", 1.0),
        ("points", "center", True),
        ("points", "coords", 3.5),
        ("projected", "coords", False)])
    def test_an_id_that_is_not_an_integer_is_rejected(self, tmp_path, part,
                                                       field, value):
        # np.asarray(..., dtype=np.intp) turned a threshold center of 0.7
        # into center 0
        coords = np.random.default_rng(6).normal(size=(30, 2))
        metric = metric_from_points(coords)
        core = metric_b_coreset(PointSet(np.arange(30), metric=metric),
                                np.array([0, 9]), t=12, eps=0.3, seed=5)
        doc = coreset_to_dict(core)
        doc[part][1][field] = value
        path = tmp_path / "core.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(LoadError, match=rf"^{path}: field "
                           rf"'{part}\[1\]\.{field}' holds .*, not an integer"):
            load_coreset(path, metric)

    def test_a_null_eps_loads(self, tmp_path):
        pts = np.random.default_rng(4).normal(size=(20, 2))
        doc = coreset_to_dict(k_median_coreset(PointSet(pts), pts[:2], t=9,
                                               eps=0.3, seed=5))
        doc["eps"] = None
        assert coreset_from_dict(doc).eps is None
        del doc["provenance"]     # none recorded, as a null eps
        assert coreset_from_dict(doc).provenance == {}

    def test_byte_identical_reserialization(self, tmp_path):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(15, 2))
        core = k_median_coreset(PointSet(pts), pts[:2], t=8, eps=0.2, seed=6)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_coreset(p1, core)
        save_coreset(p2, load_coreset(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_explicit_metric_coreset(self, tmp_path):
        coords = np.random.default_rng(6).normal(size=(12, 2))
        metric = metric_from_points(coords)
        P = PointSet(np.arange(12), metric=metric)
        core = k_median_coreset(P, np.array([0, 5]), t=6, eps=0.2, seed=7)
        path = tmp_path / "core.json"
        save_coreset(path, core)
        loaded = load_coreset(path, metric)
        q = np.array([1, 8])
        assert loaded.cost(q) == pytest.approx(core.cost(q), rel=1e-15)
        with pytest.raises(LoadError, match="does not match"):
            load_coreset(path)

    def test_explicit_metric_file_holds_ids_not_the_matrix(self, tmp_path):
        coords = np.random.default_rng(8).normal(size=(200, 2))
        P = PointSet(np.arange(200), metric=metric_from_points(coords))
        core = k_median_coreset(P, np.array([0, 70, 140]), t=40, eps=0.2,
                                seed=9)
        path = tmp_path / "core.json"
        save_coreset(path, core)
        assert json.loads(path.read_text())["metric"] == {
            "kind": "explicit-matrix"}
        assert path.stat().st_size < 100 * len(core)

    @settings(max_examples=30, deadline=None)
    @given(build=st.sampled_from([k_median_coreset, metric_b_coreset]),
           euclid=st.booleans(), n=st.integers(2, 40),
           z=st.sampled_from([1.0, 2.0]), seed=st.integers(0, 2 ** 32 - 1))
    def test_json_round_trip_is_lossless(self, build, euclid, n, z, seed):
        rng = np.random.default_rng(seed)
        coords = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-3, 4)
        if euclid:
            pts, metric = coords, Metric()
        else:
            pts, metric = np.arange(n), metric_from_points(coords)
        w = rng.uniform(0.1, 5.0, n)
        B = pts[rng.choice(n, rng.integers(1, min(n, 4) + 1), replace=False)]
        core = build((pts, w, metric), B, t=int(rng.integers(1, 30)),
                     eps=float(rng.uniform(0.05, 0.9)), z=z, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.json", Path(tmp) / "b.json"
            save_coreset(first, core)
            loaded = load_coreset(first, metric)
            save_coreset(second, loaded)
            assert first.read_bytes() == second.read_bytes()
        for _ in range(5):
            x = pts[rng.choice(n, min(n, 3), replace=False)]
            assert loaded.cost(x) == core.cost(x)

    def test_reports_spell_each_non_finite_float(self):
        text = json_text({"v": [float("nan"), float("inf"), -float("inf"),
                                np.float64("nan"), 1.5]})
        assert text == '{"v": ["NaN", "Infinity", "-Infinity", "NaN", 1.5]}'

    def test_unknown_type_rejected(self):
        with pytest.raises(LoadError):
            coreset_from_dict({"type": "mystery", "metric": {"kind": "euclidean"},
                               "z": 1, "eps": 0.1, "points": []})
