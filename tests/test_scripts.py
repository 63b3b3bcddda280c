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


def test_line_load_scaling_script_prints_the_unpruned_norm():
    """The printed ||f_h|| column, which the pruned norm computes, equals the
    norm integrated over every element, to the 5 printed decimals."""
    import unpruned_norms as ref
    from linedg import basis as fb
    from linedg.curve import Curve, compute_fh_field
    from linedg.mesh import BoxDomain, build_box_mesh

    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "line_load_scaling.py")],
        capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    printed = [float(row.split()[-2]) for row in out.strip().splitlines()[1:]]
    domain = BoxDomain(lo=[0, 0, 0], hi=[1, 1, 0.25])
    curve = Curve([[2 / 3, 1 / 3, 0.0], [2 / 3, 1 / 3, 0.25]])
    levels = [(4 * m, 4 * m, m) for m in (1, 2, 4, 8)]
    assert len(printed) == len(levels)
    for n, value in zip(levels, printed):
        fh = compute_fh_field(curve, 1.0, build_box_mesh(domain, n), fb.make_basis(1))
        assert abs(value - ref.l2(fh)) <= 0.5e-5 + 1e-12


def test_code_lines_script_counts_only_code(tmp_path):
    """A module docstring, a comment and a blank line are not code lines; the
    two statements are.  The raw count holds every line."""
    module = tmp_path / "fixture.py"
    module.write_text('"""A docstring\nover two lines."""\n\n# a comment\nx = 1\ny = x + 1\n')
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "code_lines.py"), str(module)],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    code, raw = map(int, out.splitlines()[-1].split()[:2])
    assert (code, raw) == (2, 6)
