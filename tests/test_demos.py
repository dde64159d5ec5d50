"""Runs every demo end to end, so a public name they import cannot
disappear unnoticed. Demos 04 and 05 train or gradient-check for a few
seconds; demos 06 and 07, the reduced sweep and ablations, for 10-20 s."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-7]_*.py"))
# Files a demo writes; they must land in its working directory.
DEMO_OUTPUTS = {"01_generate_dataset": ["sslcl_demo_data.jsonl"],
                "06_batch_size_stability": ["sslcl_demo_sweep.svg"]}


def test_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05", "06", "07"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in DEMO_OUTPUTS.get(demo.stem, []):
        assert (tmp_path / name).is_file(), f"{demo.stem} did not write {name} into its cwd"
