"""tools/replay.py records every run of its quick set."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "replay.py"

# the runs that end otherwise than in exit 0
BAD_EXITS = {
    "bad/build-z": 3,
    "bad/build-t": 3,
    "bad/build-eps": 3,
    "bad/build-eps-tiny": 3,
    "bad/verify-strict": 4,
    "bad/bicriteria-strict": 4,
    "bad/unwritable-out": 2,
    "bad/hash-mismatch": 3,
    "bad/verify-k0": 3,
    "bad/stream-eps-tiny": 3,
    "bad/stream-nan-row": 3,
    "bad/stream-text-row": 2,
    "bad/jsonl-string-coordinate": 2,
    "bad/verify-metric-query-id": 3,
}


def load_tool():
    spec = importlib.util.spec_from_file_location("replay", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules["replay"] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_quick_replay_records_every_run(tmp_path):
    out = tmp_path / "replay.jsonl"
    proc = subprocess.run([sys.executable, str(TOOL), str(ROOT / "src"),
                           str(out), "--quick"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    runs = load_tool().quick_runs()
    assert [r["name"] for r in lines] == [r.name for r in runs]
    assert len(lines) == 53
    for line, run in zip(lines, runs):
        assert line["argv"] == run.argv
        assert line["exit"] == BAD_EXITS.get(run.name, 0), line
        if line["exit"] == 0:
            assert line["stderr"] == "" and line["report"] is not None
            assert "timings" not in line["report"]
            assert not {"input", "coreset_out"} & line["report"]["config"].keys()
            assert list(line["coreset_sha256"]) == run.writes
        else:
            assert line["stderr"] and line["coreset_sha256"] == {}
        if run.name.endswith("-row"):
            # the checkpoints of the blocks that filled before row 150
            assert [json.loads(cp)["points_seen"] for cp in
                    line["stdout"].splitlines()] == [64, 128]
