import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter: every path below, multigrid solves, a
# multigrid time-stepping run and a multigrid study included, must finish
# without loading scipy or numpy.ma (which ``np.unique`` without a
# ``return_*`` option imports); reading
# ``SparseSystem.matrix`` at the end must load scipy, so the check cannot
# pass on a process that never could.
GUARD = """
import contextlib
import io
import sys
from pathlib import Path

import numpy as np

import linedg
import linedg.cli
from linedg import basis
from linedg.assembly import assemble_stiffness
from linedg.config import load_config, parse_config
from linedg.curve import compute_fh_field
from linedg.mesh import build_box_mesh
from linedg.norms import weighted_l2_norm
from linedg.solver import SolverConfig, solve


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


configs = sorted(Path("configs").glob("*.yaml"))
assert configs
for path in configs:
    load_config(path)

demo = Path("configs/parabolic_demo.yaml")
text = demo.read_text()
for old, new in (("n: [8, 8, 2]", "n: [4, 4, 2]"), ("steps: 40", "steps: 4"),
                 ("snapshot_every: 10", "snapshot_every: 2")):
    assert old in text, old
    text = text.replace(old, new)
cfg = parse_config(text, source=str(demo), base_dir=demo.parent)
assert cfg.solver.preconditioner == "multigrid"
linedg.cli.run_parabolic(cfg, sys.argv[1])

mesh = build_box_mesh(cfg.domain, (4, 4, 1))
k1 = basis.make_basis(1)
fh = compute_fh_field(cfg.curve, 1.0, mesh, k1)
assert weighted_l2_norm(fh, cfg.curve, 0.5) > 0
assert scipy_modules() == [], scipy_modules()

system = assemble_stiffness(mesh, cfg.scheme, k1)
b = np.ones(mesh.n_elements * k1.dim)
result = solve(system, b, SolverConfig(preconditioner="multigrid"))
assert result.residual <= 1e-10 * np.linalg.norm(b)

study = Path("configs/study_k2.yaml")
text = study.read_text()
finer = "  - [16, 16, 4]\\n  - [32, 32, 8]\\n"
assert finer in text
text = text.replace(finer, "")
cfg = parse_config(text, source=str(study), base_dir=study.parent)
assert cfg.solver.preconditioner == "multigrid" and cfg.levels == ((4, 4, 1), (8, 8, 2))
with contextlib.redirect_stdout(io.StringIO()):  # the study prints its table
    linedg.cli.run_study(cfg, Path(sys.argv[1]) / "study")
assert scipy_modules() == [], scipy_modules()
assert "numpy.ma" not in sys.modules  # scipy imports it, so check before reading the matrix

system.matrix
assert "scipy.sparse" in scipy_modules(), scipy_modules()
print("ok")
"""


def test_multigrid_solve_loads_no_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", GUARD, str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ok"]
    assert (tmp_path / "history.csv").exists()
    assert (tmp_path / "study" / "study.csv").exists()
