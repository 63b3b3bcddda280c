"""One workload instance in a fresh interpreter; started by ``bench/run.py``.

Usage: ``python3 bench/child.py SPEC.json``.  The spec names the workload,
the mode (``plain``, ``traced`` or ``setup``), the config file and the
output directory.  Timestamps are CLOCK_MONOTONIC, so the parent can
subtract its own spawn time from them.

Both ``plain`` and ``traced`` call the entry points users call:
``linedg.cli.run_study``, ``linedg.cli.run_parabolic`` and, for
``curve_oblique``, ``line_load_levels`` below (the line-load path of
``scripts/line_load_scaling.py``).  ``traced`` wraps, for the duration of
that one call, the layer functions those entry points look up by name in
their modules (``LAYERS``), so that each layer call records a span (name,
start, end, parent).  The outputs are thus written by the same code in both
modes.  Nothing inside ``src/`` is instrumented.  ``setup`` stops after
``load_config``.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

import linedg.cli
import linedg.parabolic
from linedg import basis as _basis
from linedg.config import load_config
from linedg.curve import assemble_line_rhs, build_restrictions, compute_fh_field
from linedg.errors import NonconvergenceError
from linedg.mesh import build_box_mesh
from linedg.norms import l2_error, weighted_l2_norm
from linedg.solver import SolveResult, make_preconditioner


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def line_load_levels(cfg, out_dir):
    """Per level: mesh, clip, line load, f_h, plain and distance-weighted L2 norm.

    The line-load path of ``scripts/line_load_scaling.py``, on the curve and
    the levels of the config; writes ``lineload.csv``.
    """
    import csv

    curve = cfg.build_curve()
    basis = _basis.make_basis(cfg.degree)
    f_fn, _ = cfg.source.build()

    def f(s):
        return f_fn(0.0, s)

    rows = []
    for n in cfg.levels:
        mesh = build_box_mesh(cfg.domain, n)
        restrictions = build_restrictions(curve, mesh)
        b = assemble_line_rhs(curve, f, mesh, basis, restrictions=restrictions)
        fh = compute_fh_field(curve, f, mesh, basis, restrictions=restrictions)
        fh_l2 = l2_error(fh, 0.0)
        weighted = weighted_l2_norm(fh, curve, 0.5)
        rows.append([f"{n[0]}x{n[1]}x{n[2]}", repr(mesh.h), repr(curve.length),
                     repr(float(b.sum())), repr(fh_l2), repr(mesh.h * fh_l2),
                     repr(weighted), len(restrictions), mesh.n_elements])
    with open(Path(out_dir) / "lineload.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "h", "curve_length", "load_sum", "fh_l2", "h_fh_l2",
                         "fh_weighted_l2", "elements_crossed", "elements"])
        writer.writerows(rows)


ENTRY = {
    "study_k2": lambda cfg, out: linedg.cli.run_study(cfg, out, vtk=False),
    "heat_k1": lambda cfg, out: linedg.cli.run_parabolic(cfg, out, vtk=True),
    "curve_oblique": line_load_levels,
}

# span name of each layer function, by the module whose global name is wrapped
LAYERS = {
    "linedg.cli": {
        "build_box_mesh": "mesh.build",
        "assemble_stiffness": "assembly.stiffness",
        "build_restrictions": "curve.clip",
        "assemble_line_rhs": "curve.lineload",
        "assemble_dirichlet_rhs": "assembly.nitsche",
        "solve": "solver.solve",
        "l2_error": "norms.l2",
        "dg_energy_error": "norms.dg",
        "write_vtk": "vtk_io.write",
        "run_backward_euler": "parabolic.run",
        "step_diagnostics": "parabolic.diagnostics",
    },
    "linedg.parabolic": {
        "assemble_stiffness": "assembly.stiffness",
        "assemble_mass": "assembly.mass",
        "build_restrictions": "curve.clip",
        "assemble_line_rhs": "curve.lineload",
        "solve": "solver.solve",
    },
    __name__: {
        "build_box_mesh": "mesh.build",
        "build_restrictions": "curve.clip",
        "assemble_line_rhs": "curve.lineload",
        "compute_fh_field": "curve.fh",
        "l2_error": "norms.l2",
        "weighted_l2_norm": "norms.weighted",
    },
}

# layers whose last call is repeated under tracemalloc once the outputs are written
ALLOC_PROBES = ("assembly.stiffness", "norms.weighted")


class Tracer:
    """In-memory spans, written out once the workload has finished."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.last_args = {}  # span name -> (fn, args, kwargs) of its last call
        self.system = None  # the operator of the last solve, and its solve count
        self.system_solves = 0

    def call(self, name, fn, *args, **kwargs):
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec["start"] = now()
        try:
            out = fn(*args, **kwargs)
        except NonconvergenceError as err:
            # go on from the best iterate, so that the failure is counted
            rec["error"] = type(err).__name__
            out = SolveResult(err.best_x, int(err.iterations or 0), err.residual)
        except Exception as err:
            rec["error"] = type(err).__name__
            raise
        finally:
            rec["end"] = now()
            self._stack.pop()
        for attr in ("iterations", "n_elements"):
            if hasattr(out, attr):
                rec[attr] = int(getattr(out, attr))
        if isinstance(out, list):
            rec["items"] = len(out)
        if name in ALLOC_PROBES:
            self.last_args[name] = (fn, args, kwargs)
        if name == "solver.solve":
            if args[0] is not self.system:
                self.system, self.system_solves = args[0], 0
            self.system_solves += 1
        return out

    def wrap(self, name, fn):
        return lambda *args, **kwargs: self.call(name, fn, *args, **kwargs)

    def run_wrapped(self, name, fn, *args):
        """``fn(*args)`` in a span, with every name of ``LAYERS`` wrapped meanwhile."""
        originals = [(sys.modules[mod], attr, getattr(sys.modules[mod], attr))
                     for mod, names in LAYERS.items() for attr in names]
        try:
            for module, attr, fn_orig in originals:
                setattr(module, attr, self.wrap(LAYERS[module.__name__][attr], fn_orig))
            return self.call(name, fn, *args)
        finally:
            for module, attr, fn_orig in originals:
                setattr(module, attr, fn_orig)

    def alloc_peaks(self):
        """Repeat each ``ALLOC_PROBES`` layer's last call under tracemalloc; bytes."""
        import tracemalloc

        peaks = {}
        for name, (fn, args, kwargs) in self.last_args.items():
            tracemalloc.start()
            fn(*args, **kwargs)
            peaks[name] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        return peaks


def operator_counts(tr, solver_config):
    """Traced-only numbers on the finest operator, taken after the outputs.

    One extra ``make_preconditioner`` call, and the median of repeated
    CSR matvecs with the operator.
    """
    system = tr.system
    tr.call("solver.precond_setup", make_preconditioner, system, solver_config.preconditioner)
    A = system.matrix
    x = np.ones(A.shape[0])
    times = []
    t_end = now() + 0.5
    while len(times) < 5 or now() < t_end:
        t0 = now()
        A @ x
        times.append(now() - t0)
    return {
        "ndof": int(A.shape[0]),
        "nnz": int(A.nnz),
        "csr_bytes": int(A.data.nbytes + A.indices.nbytes + A.indptr.nbytes),
        "vector_bytes": int(x.nbytes),
        "matvec_s": float(np.median(times)),
        "solves": tr.system_solves,
    }


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    workload, mode, out = spec["workload"], spec["mode"], Path(spec["out_dir"])
    result = {}
    if mode == "traced":
        tr = Tracer()
        cfg = tr.call("config.load", load_config, spec["config"])
        result["t_setup"] = now()
        tr.run_wrapped("cli", ENTRY[workload], cfg, out)
        result["t_done"] = now()
        counts = operator_counts(tr, cfg.solver) if tr.system is not None else {}
        tr.system = None
        counts["alloc_peak_bytes"] = tr.alloc_peaks()
        result["counts"] = counts
        result["spans"] = tr.spans
    else:
        cfg = load_config(spec["config"])
        result["t_setup"] = now()
        if mode == "plain":
            ENTRY[workload](cfg, out)
        result["t_done"] = now()
    with open(out / "child.json", "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
