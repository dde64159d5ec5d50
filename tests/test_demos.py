"""Runs the quick demos end to end, so a public name they import cannot
disappear unnoticed. Demos 04 and 05 train or gradient-check for a few
seconds; demos 06 and 07 train for minutes and are left to manual runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = sorted((ROOT / "demos").glob("0[1-5]_*.py"))
# Files a demo writes; they must land in its working directory.
DEMO_OUTPUTS = {"01_generate_dataset": ["sslcl_demo_data.jsonl"]}


def test_quick_demos_found():
    assert [p.name[:2] for p in QUICK_DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", QUICK_DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for name in DEMO_OUTPUTS.get(demo.stem, []):
        assert (tmp_path / name).is_file(), f"{demo.stem} did not write {name} into its cwd"
