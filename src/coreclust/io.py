"""File formats: point files, explicit metric matrices, coreset JSON.

Point files are CSV (one point per row, d columns) or JSON lines with a
"coords" field; the dimension is inferred from the first row and mixed widths
are a load error.  Explicit metrics are square CSV matrices.  Coresets
round-trip losslessly through a single JSON document that names its metric's
kind but not its matrix: the loader takes the metric the ids refer to.  All
JSON is strict, written by json_text, and all writes go through a temp file
plus atomic rename so failures never leave partial output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .geometry import InputError, LoadError, Metric, PointSet, as_points
from .construction import StaticCoreset, ThresholdCoreset


def parse_row(cells, width, path, lineno, number=float) -> list[float]:
    """One point row as floats, each cell read by `number`; a width of None
    accepts the first row's."""
    try:
        row = [number(c) for c in cells]
    except (TypeError, ValueError) as exc:
        raise LoadError(f"{path}: row {lineno}: {exc}") from exc
    if width is not None and len(row) != width:
        raise LoadError(
            f"{path}: row {lineno} has {len(row)} columns, expected {width}")
    return row


def _as_points(path, rows) -> np.ndarray:
    if not rows:
        raise LoadError(f"{path}: no points found")
    return np.asarray(rows, dtype=float)


def csv_rows(lines, path):
    """The point rows of CSV text, one float list at a time.  Only blank rows
    are skipped; an empty cell, a non-number or a width other than the first
    row's is a LoadError naming the row and `path`."""
    reader = csv.reader(lines)
    width = None
    try:
        for lineno, cells in enumerate(reader, start=1):
            if "".join(cells).strip():
                row = parse_row(cells, width, path, lineno)
                width = len(row)
                yield row
    except csv.Error as exc:
        raise LoadError(f"{path}: row {reader.line_num}: {exc}") from exc


def open_points(path):
    """A point file opened as text.  Bytes the encoding cannot decode
    become lone surrogates, as on stdin under the C locale, so the row that
    holds them fails to parse and its LoadError names it."""
    return open(path, newline="", errors="surrogateescape")


# characters after which np.loadtxt and csv_rows could read a line apart: a
# quote (csv unquotes cells, which may span lines), NUL, and \x1c-\x1f, which
# numpy strips from a cell as whitespace and float() does not
_CSV_ONLY = '"\x00\x1c\x1d\x1e\x1f'
# characters of whole lines that one np.loadtxt call parses
LOADTXT_CHARS = 1 << 20


def _loadtxt_rows(fh):
    """The rows of a CSV point file as one array, np.loadtxt parsing about
    LOADTXT_CHARS characters of whole lines at a time; None where csv_rows
    might read any line otherwise.  That is a chunk of non-ASCII text, one
    holding a character of _CSV_ONLY or a line longer than csv's field
    limit, a chunk np.loadtxt refuses, one of another width than the first,
    and a file of no rows.  Where both parse a line they give the same bits:
    each cell goes through PyOS_string_to_double, as float() does, and
    np.loadtxt refuses the spellings only float() takes (1_0, non-ASCII
    digits).  Blank lines are skipped by both; a whitespace-only chunk holds
    no rows."""
    limit, parts = csv.field_size_limit(), []
    while lines := fh.readlines(LOADTXT_CHARS):
        text = "".join(lines)
        if not text.isascii() or any(c in text for c in _CSV_ONLY) or \
                max(map(len, lines)) > limit:
            return None
        if text.isspace():
            continue
        try:
            part = np.loadtxt(lines, delimiter=",", comments=None, dtype=float,
                              ndmin=2)
        except ValueError:
            return None
        if parts and part.shape[1] != parts[0].shape[1]:
            return None
        parts.append(part)
    return np.concatenate(parts) if parts else None


def load_points_csv(path) -> np.ndarray:
    """The points of a CSV file: one np.loadtxt pass a chunk of lines at a
    time (_loadtxt_rows), or csv_rows over the whole file where that pass
    declines, so values, skipped rows and every LoadError are csv_rows'."""
    with open_points(path) as fh:
        points = _loadtxt_rows(fh)
        if points is None:
            fh.seek(0)
            points = _as_points(path, list(csv_rows(fh, path)))
        return points


def _json_number(v) -> float:
    """A JSON number as a float: an integer beyond float64 is +-inf, and a
    string, a bool or null is a TypeError, as in _finite."""
    if type(v) not in (int, float):
        raise TypeError(f"{v!r} is not a JSON number")
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def load_points_jsonl(path) -> np.ndarray:
    rows = []
    with open_points(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                cells = json.loads(line)["coords"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise LoadError(f"{path}: line {lineno}: {exc}") from exc
            if not isinstance(cells, list):
                raise LoadError(f"{path}: line {lineno}: coords must be a JSON "
                                f"list, got {type(cells).__name__}")
            if not cells:
                raise LoadError(f"{path}: line {lineno}: coords is empty; a "
                                "point needs at least one coordinate")
            rows.append(parse_row(cells, len(rows[0]) if rows else None,
                                  path, lineno, _json_number))
    return _as_points(path, rows)


def load_points(path) -> np.ndarray:
    path = str(path)
    if path.endswith(".jsonl") or path.endswith(".ndjson"):
        return load_points_jsonl(path)
    return load_points_csv(path)


def load_centers(path, metric: Metric) -> np.ndarray:
    """A center file: a point file, or under an explicit metric one integer
    id per row.  An id that is not a whole number is a LoadError naming its
    row (rows count the file's point rows); an id outside the matrix stays
    outside it, for as_points to reject."""
    rows = load_points(path)
    if metric.is_euclidean:
        return rows
    if rows.shape[1] != 1:
        raise LoadError(f"{path}: an id file holds one id per row, got "
                        f"{rows.shape[1]} columns")
    ids = rows[:, 0]
    bad = np.flatnonzero(~np.isfinite(ids) | (ids != np.floor(ids)))
    if bad.size:
        raise LoadError(f"{path}: row {bad[0] + 1}: id {float(ids[bad[0]])} "
                        "is not a whole number")
    return np.clip(ids, -1, metric.size).astype(np.intp)


def load_metric_csv(path) -> Metric:
    return Metric.from_matrix(load_points_csv(path))


def load_point_set(path, metric_path=None) -> PointSet:
    """The points of `path`, or under an explicit metric the ids of its
    matrix.  There a `path` given is opened but not parsed, so an input that
    cannot be opened is an OSError either way."""
    if metric_path is not None:
        if path is not None:
            with open(path, "rb"):
                pass
        metric = load_metric_csv(metric_path)
        return PointSet(points=np.arange(metric.size, dtype=np.intp), metric=metric)
    return PointSet(points=load_points(path))


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def atomic_write_text(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _spell_nonfinite(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        if math.isnan(obj):
            return "NaN"
        return "Infinity" if obj > 0 else "-Infinity"
    if isinstance(obj, dict):
        return {k: _spell_nonfinite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_spell_nonfinite(v) for v in obj]
    return obj


def json_text(obj, indent=None) -> str:
    """The one JSON writer of reports, stream checkpoints and coreset files:
    strict JSON with sorted keys, where a NaN, +inf or -inf float is the
    string "NaN", "Infinity" or "-Infinity"."""
    return json.dumps(_spell_nonfinite(obj), indent=indent, sort_keys=True,
                      allow_nan=False)


def dump_json(path, obj) -> None:
    atomic_write_text(path, json_text(obj, indent=2) + "\n")


def coreset_to_dict(core) -> dict:
    if not isinstance(core, (StaticCoreset, ThresholdCoreset)):
        raise TypeError(f"not a coreset: {type(core)!r}")
    euclid = core.metric.is_euclidean
    doc = {"z": core.z, "eps": core.eps, "metric": {"kind": core.metric.kind},
           "provenance": core.provenance}
    if isinstance(core, StaticCoreset):
        points = [{"coords": p.tolist() if euclid else int(p), "weight": float(w)}
                  for p, w in zip(core.points, core.weights)]
        return {**doc, "type": "static", "points": points, "projected": []}
    points = [{"coords": p.tolist() if euclid else int(p), "weight": float(w),
               "threshold": float(t), "center": int(c)}
              for p, w, t, c in zip(core.sampled_points, core.sampled_weights,
                                    core.sampled_tau, core.sampled_center)]
    projected = [{"coords": p.tolist() if euclid else int(p),
                  "thresholds": tau.tolist(), "masses": np.diff(cum).tolist()}
                 for p, tau, cum in zip(core.proj_points, core.proj_tau,
                                        core.proj_cum_mass)]
    return {**doc, "type": "threshold", "points": points, "projected": projected}


def _finite(values, field) -> np.ndarray:
    """JSON numbers as float64.  A string, a bool, null or a number that is
    not finite is a LoadError naming its field, field.format(i) for entry
    i."""
    out = np.empty(len(values))
    for i, v in enumerate(values):
        try:
            ok = type(v) in (int, float) and math.isfinite(v)
        except OverflowError:       # an int beyond float64
            ok = False
        if not ok:
            raise LoadError(f"field {field.format(i)!r} holds {v!r}, not a "
                            "finite number")
        out[i] = v
    return out


def _ids(values, field) -> np.ndarray:
    """JSON integers as intp.  A float (0.7, and 1.0 too), a bool, a string,
    null or an integer beyond 64 bits is a LoadError naming its field, as in
    _finite."""
    for i, v in enumerate(values):
        if not (type(v) is int and abs(v) < 2 ** 63):
            raise LoadError(f"field {field.format(i)!r} holds {v!r}, not an "
                            "integer")
    return np.asarray(values, dtype=np.intp)


def coreset_from_dict(obj: dict, metric: Metric = Metric()):
    """A coreset from its JSON document.  The document names only the kind of
    its metric; `metric` is the one its points (or ids) live in.  Every
    Euclidean coordinate, weight, threshold, mass and z must be a finite
    number, and eps, unless it is null, a number in (0, 1) as every builder
    takes; every id, threshold center and provenance k must be an integer,
    and the provenance an object."""
    if obj["metric"]["kind"] != metric.kind:
        raise LoadError(f"coreset metric {obj['metric']['kind']!r} does not "
                        f"match the data's {metric.kind!r}")
    _finite([obj["z"]], "z")
    if obj["eps"] is not None and not 0 < _finite([obj["eps"]], "eps")[0] < 1:
        raise LoadError(f"field 'eps' holds {obj['eps']!r}, not in (0, 1)")
    provenance = obj.get("provenance", {})
    if not isinstance(provenance, dict):
        raise LoadError(f"field 'provenance' holds {provenance!r}, not an "
                        "object")
    if "k" in provenance:
        _ids([provenance["k"]], "provenance.k")

    def as_pts(part):
        items = obj[part]
        if metric.is_euclidean:
            return as_points(metric, [
                _finite(it["coords"], f"{part}[{i}].coords[{{}}]")
                for i, it in enumerate(items)])
        return as_points(metric, _ids([it["coords"] for it in items],
                                      part + "[{}].coords"))

    def numbers(key):
        return _finite([it[key] for it in obj["points"]],
                       "points[{}]." + key)

    if obj["type"] == "static":
        pts = as_pts("points")
        return StaticCoreset(points=pts, weights=numbers("weight"),
                             metric=metric, z=obj["z"], eps=obj["eps"],
                             provenance=provenance)
    if obj["type"] == "threshold":
        pts = (as_pts("points") if obj["points"] else
               (np.empty((0, len(obj["projected"][0]["coords"])))
                if metric.is_euclidean else np.empty(0, dtype=np.intp)))
        w, tau = numbers("weight"), numbers("threshold")
        cen = _ids([it["center"] for it in obj["points"]],
                   "points[{}].center")
        proj = as_pts("projected")
        proj_tau, proj_cum = [], []
        for j, it in enumerate(obj["projected"]):
            proj_tau.append(_finite(it["thresholds"],
                                    f"projected[{j}].thresholds[{{}}]"))
            if np.any(proj_tau[j][1:] < proj_tau[j][:-1]):
                raise LoadError(f"field 'projected[{j}].thresholds' is not "
                                "sorted")
            masses = _finite(it["masses"], f"projected[{j}].masses[{{}}]")
            proj_cum.append(np.concatenate([[0.0], np.cumsum(masses)]))
        if np.any((cen < 0) | (cen >= len(proj))) or any(
                len(c) != len(t) + 1 for t, c in zip(proj_tau, proj_cum)):
            raise LoadError("threshold centers or masses do not match the "
                            "projected points")
        return ThresholdCoreset(
            sampled_points=pts, sampled_weights=w, sampled_tau=tau,
            sampled_center=cen, proj_points=proj, proj_tau=proj_tau,
            proj_cum_mass=proj_cum, metric=metric, z=obj["z"], eps=obj["eps"],
            provenance=provenance)
    raise LoadError(f"unknown coreset type {obj['type']!r}")


def save_coreset(path, core) -> None:
    dump_json(path, coreset_to_dict(core))


def load_coreset(path, metric: Metric = Metric()):
    """A coreset file over `metric`; a malformed file is a LoadError naming it."""
    with open(path) as fh:
        try:
            return coreset_from_dict(json.load(fh), metric)
        except KeyError as exc:
            raise LoadError(f"{path}: coreset file lacks the field {exc}") from exc
        except (LookupError, TypeError, ValueError) as exc:
            raise LoadError(f"{path}: {exc}") from exc


def gaussian_mixture(n: int, d: int, k: int, seed: int, spread: float = 6.0,
                     sigma: float = 1.0) -> np.ndarray:
    """Synthetic benchmark data: k spherical Gaussian clusters."""
    if min(n, d, k) < 1:
        raise InputError(f"need n, d, k >= 1, got n={n}, d={d}, k={k}")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-spread, spread, size=(k, d))
    labels = rng.integers(0, k, size=n)
    return centers[labels] + sigma * rng.normal(size=(n, d))
