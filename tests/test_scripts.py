import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_line_load_scaling_script_rows_stay_bounded():
    """The script prints four refinement levels; h * ||f_h|| stays within 2.5x."""
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "line_load_scaling.py")],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 4
    scaled = [float(row.split()[-1]) for row in rows]
    assert min(scaled) > 0 and max(scaled) / min(scaled) <= 2.5
