import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; the output is deterministic across hash seeds
DEMO_STDOUT = {
    "central_extensions.py": "9b1f574e68be32af22e7f862b6b6c32a6159a92459eaafa2e30119e1aad6b1bc",
    "spectral_walkthrough.py": "46c8d3e95ee6b5418deecf7dbf113b9cd5f46aa7108ca783c554e329c586d661",
    "weight_tables.py": "fa75e3ad2673858d4cbf49fe44baabb914ae646fa98baf1f92d5497d77db5ee3",
}


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    # each demo asserts its own results; it must run to the end
    env = {k: v for k, v in os.environ.items() if k != "SUPERNIL_CACHE_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_STDOUT[demo.name]
