"""Short benchmark passes at the reference seed against perfbench/reference.json.

At seed 1 ``perfbench/run.py`` checks every experiment's t_end, message
count and J checkpoints against the recorded reference (J within 1e-12
relative), so a change that moves the traces fails here, not only when the
benchmark is run. One pass of each workload takes a few seconds.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_pass_matches_the_recorded_reference(workload):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stderr
    assert result["attempted"] >= 1
