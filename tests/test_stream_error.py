"""tools/stream_error.py measures a tree's stream error and push time."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "stream_error.py"


def test_one_line_per_tree_and_the_same_answers_on_the_same_tree():
    # 1,100 points at the default block of 531: two blocks and one carry
    src = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(TOOL), src, src, "--n", "1100",
                           "--seeds", "1-2"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    first, second = [json.loads(line) for line in proc.stdout.splitlines()]
    push = first.pop("median_push_s"), second.pop("median_push_s")
    assert first == second and all(s > 0 for s in push)
    assert {key: first[key] for key in ("src", "n", "k", "d", "seeds")} == {
        "src": src, "n": 1100, "k": 3, "d": 2, "seeds": "1-2"}
    assert 0 < first["median"] <= first["p90"] <= first["max"] < 0.2
