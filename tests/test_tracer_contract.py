"""What the benchmark harness's tracer relies on.

perfbench/tracer.py measures the layers from outside: it replaces each
(module, function) of its TARGETS list in the loaded coreclust modules, and
wraps StaticCoreset.cost, whose calls it reports as cost queries.  A renamed
function, or an audit that stops querying the coreset once per query, would
break the per-layer numbers without failing a benchmark check.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from coreclust.cli import main
from coreclust.construction import StaticCoreset
from coreclust.geometry import metric_from_points
from coreclust.io import gaussian_mixture

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    targets = load_tracer().TARGETS
    assert len(targets) > 10
    missing = [f"{module}.{name}" for module, name, _ in targets
               if not callable(getattr(importlib.import_module(
                   f"coreclust.{module}"), name, None))]
    assert not missing
    assert callable(StaticCoreset.cost)


@pytest.mark.parametrize("metric", [False, True], ids=["points", "matrix"])
def test_verify_queries_the_coreset_once_per_audited_query(tmp_path, metric):
    X = gaussian_mixture(60, 2, 2, seed=4)
    data, core = tmp_path / "data.csv", tmp_path / "core.json"
    np.savetxt(data, X, delimiter=",")
    extra = []
    if metric:
        extra = ["--metric", str(tmp_path / "matrix.csv")]
        np.savetxt(extra[1], metric_from_points(X).matrix, delimiter=",")
    assert main(["build-coreset", "--input", str(data), "--k", "2",
                 "--eps", "0.3", "--seed", "5", "--coreset-out", str(core),
                 *extra]) == 0
    tracer, cost = load_tracer().Tracer(), StaticCoreset.cost
    tracer.install()
    try:
        code = main(["verify", "--input", str(data), "--coreset", str(core),
                     "--queries", "25", "--seed", "5",
                     "--out", str(tmp_path / "v.json"), *extra])
    finally:
        tracer.uninstall()
    assert code == 0
    queries = json.loads((tmp_path / "v.json").read_text())["results"]["queries"]
    assert queries == 26          # 25 drawn and the brute optimum
    layers = tracer.layer_metrics(blocks=0, stored_points=0)
    assert layers["construction.cost_queries"] == queries
    assert StaticCoreset.cost is cost
