#!/usr/bin/env python3
"""linedg benchmark: three workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload study_k2 --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one summary
    python3 bench/run.py --selftest              # tiny sizes, every code path

Run from anywhere; the program is the ``src/`` next to this directory.
Every workload instance is a fresh ``python3 bench/child.py`` process with
BLAS threads capped at the number of usable cores.  With ``--trace 0`` the
run repeats plain instances until ``--seconds`` have passed (at least one)
and reports the median ``wall_s`` and ``peak_rss_mib`` over them.  After each
instance it starts ``PROBES_PER_REP`` processes that stop after
``load_config``; ``setup_s`` is the lower decile of at least
``SETUP_SAMPLES`` such set-up times.  With
``--trace 1`` it runs one plain and one traced instance, checks that their
outputs and counts agree, and reports the per-layer metrics of the traced
one.  The last line of standard output is the JSON result; the lines
before it are for people.  Workloads, metrics and the layer table are
described in ``bench/README.md``.
"""

import argparse
import csv
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import yaml

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference"
RUNS = ROOT / ".bench_runs"

WORKLOADS = ("study_k2", "heat_k1", "curve_oblique")
SETUP_SAMPLES = 15
PROBES_PER_REP = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIB = 2.0 ** 20

# Reference comparisons, set from how far the outputs move when the solve
# changes but still meets its tolerance (Jacobi for block-Jacobi, or
# rel_tol 1e-13 for the config's value): study error columns by up to
# 1.7e-6 relative at 16x16x4, and about 4x more per level as the condition
# number grows; history columns by 2e-10 of the column's largest value.
STUDY_RTOL = 1e-4
HISTORY_RTOL = 1e-6
LOAD_SUM_RTOL = 1e-12
FH_SPREAD_MAX = 2.5  # acceptance criterion 5: max/min of h * ||f_h||

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- inputs ----------------------------------------------------------------------


def _read_yaml(path):
    with open(path) as fh:
        return yaml.safe_load(fh)


def _write_yaml(path, data):
    with open(path, "w") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)
    return path


def oblique_polyline(seed, domain, segments=8, margin=0.02, step=1.0 / 3.0, jitter=0.15):
    """A seeded walk of oblique segments of nearly one size.

    Every segment moves along each axis by ``step`` of the box extent (the
    mean distance between two uniform points) times a factor drawn from
    1 +- ``jitter``.  The start point, the factors and the sign of each
    move come from the seed; a move that would leave the box shrunk by
    ``margin`` takes the other sign.  Every seed thus gives a curve of about
    the same length and segment bounding boxes, in another place and
    orientation, so the cost of a run does not hinge on the draw.
    """
    import random

    rng = random.Random(seed)
    lo, hi = domain["lo"], domain["hi"]
    ext = [h - l for l, h in zip(lo, hi)]
    low = [l + margin * e for l, e in zip(lo, ext)]
    high = [h - margin * e for h, e in zip(hi, ext)]
    point = [a + (b - a) * rng.random() for a, b in zip(low, high)]
    points = [point]
    for _ in range(segments):
        point = list(point)
        for d in range(3):
            size = step * ext[d] * (1.0 + jitter * (2.0 * rng.random() - 1.0))
            move = size * rng.choice((-1.0, 1.0))
            if not low[d] <= point[d] + move <= high[d]:
                move = -move
            point[d] += move
        points.append(point)
    return points


def make_inputs(workload, seed, rundir, tiny):
    """Write the workload's config (and curve file) into ``rundir``."""
    if workload == "study_k2":
        cfg = _read_yaml(ROOT / "configs" / "study_k2.yaml")
        if tiny:
            cfg["levels"] = cfg["levels"][:2]
    elif workload == "heat_k1":
        cfg = _read_yaml(ROOT / "configs" / "parabolic_demo.yaml")
        cfg["n"] = [16, 16, 4]
        if tiny:
            cfg["n"] = [4, 4, 1]
            cfg["time"] = {"final": 0.015, "steps": 3}
            cfg["snapshot_every"] = 1
    else:
        cfg = _read_yaml(ROOT / "configs" / "parabolic_demo.yaml")
        points = oblique_polyline(seed, cfg["domain"])
        with open(rundir / "curve.txt", "w") as fh:
            fh.writelines(" ".join(repr(v) for v in p) + "\n" for p in points)
        for key in ("n", "time", "initial", "snapshot_every"):
            cfg.pop(key)
        cfg.update(
            curve={"kind": "file", "path": "curve.txt"},
            source={"kind": "constant", "value": 1.0},
            mode="elliptic",
            levels=[[4, 4, 1], [8, 8, 2]] if tiny else [[8, 8, 2], [16, 16, 4], [32, 32, 8]],
        )
    return _write_yaml(rundir / f"{workload}.yaml", cfg)


# -- child processes -------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Instance:
    """One child process: its spawn time, exit status, peak RSS and report."""

    def __init__(self, workload, mode, config, outdir, deadline):
        outdir.mkdir(parents=True, exist_ok=True)
        self.outdir = outdir
        spec = outdir / "spec.json"
        spec.write_text(json.dumps({"workload": workload, "mode": mode,
                                    "config": str(config), "out_dir": str(outdir)}))
        with open(outdir / "child.log", "w") as log:
            self.t_spawn = now()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH / "child.py"), str(spec)],
                stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=str(outdir),
            )
        timer = threading.Timer(max(deadline - now(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.ok = proc.returncode == 0
        self.rss_mib = usage.ru_maxrss * 1024 / MIB
        self.report = {}
        if self.ok:
            self.report = json.loads((outdir / "child.json").read_text())
        else:
            tail = (outdir / "child.log").read_text()[-2000:]
            print(f"# child {workload}/{mode} exited with {proc.returncode}:\n{tail}",
                  file=sys.stderr)

    @property
    def setup_s(self):
        return self.report["t_setup"] - self.t_spawn

    @property
    def done_s(self):
        """Spawn to outputs written, as the child saw it."""
        return self.report["t_done"] - self.t_spawn


# -- output checks ---------------------------------------------------------------


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _close(value, ref, rtol, scale=0.0):
    return abs(value - ref) <= rtol * max(abs(ref), scale)


def check_study(out, config, tiny):
    """One check per level: error columns against the stored reference.

    The finest level also carries every ``assert_rates`` window of the
    config, recomputed from the error columns.
    """
    cfg = _read_yaml(config)
    try:
        header, rows = _read_csv(out / "study.csv")
        ref_header, ref_rows = _read_csv(REFERENCE / "study_k2.csv")
    except OSError:
        return [False] * len(cfg["levels"])
    if header != ref_header or len(rows) != len(cfg["levels"]):
        return [False] * len(cfg["levels"])
    cols = [i for i, name in enumerate(header) if name.startswith("err_")]
    ref_by_dof = {r[2]: r for r in ref_rows}
    results = [
        row[2] in ref_by_dof
        and all(_close(float(row[i]), float(ref_by_dof[row[2]][i]), STUDY_RTOL) for i in cols)
        for row in rows
    ]
    hs = [float(r[1]) for r in rows]
    for a in cfg.get("assert_rates", []):
        name = f"err_{'L2' if a['norm'] == 'l2' else 'DG'}_{a['region']}"
        if name not in header:
            results[-1] = False
            continue
        j = header.index(name)
        rate = math.log(float(rows[-2][j]) / float(rows[-1][j])) / math.log(hs[-2] / hs[-1])
        results[-1] = results[-1] and a["min"] <= rate <= a["max"]
    return results


def check_heat(out, config, tiny):
    """One check: history.csv against the stored reference, and every snapshot written."""
    cfg = _read_yaml(config)
    steps = cfg["time"]["steps"]
    try:
        header, rows = _read_csv(out / "history.csv")
        reference = REFERENCE / ("heat_k1_tiny.csv" if tiny else "heat_k1.csv")
        ref_header, ref_rows = _read_csv(reference)
    except OSError:
        return [False]
    ok = header == ref_header and len(rows) == len(ref_rows) == steps + 1
    for j in range(2, len(header)) if ok else ():
        scale = max(abs(float(r[j])) for r in ref_rows)
        ok = ok and all(_close(float(r[j]), float(q[j]), HISTORY_RTOL, scale)
                        for r, q in zip(rows, ref_rows))
    ok = ok and all(r[0] == q[0] and _close(float(r[1]), float(q[1]), 1e-12)
                    for r, q in zip(rows, ref_rows))
    snapshots = len(range(0, steps + 1, cfg["snapshot_every"]))
    return [ok and len(list(out.glob("snapshot_*.vtk"))) == snapshots]


def check_curve(out, config, tiny):
    """One check per level: the load vector sums to the curve length (f = 1).

    The finest level also checks that h * ||f_h|| stays bounded across levels.
    """
    levels = _read_yaml(config)["levels"]
    try:
        _, rows = _read_csv(out / "lineload.csv")
    except OSError:
        return [False] * len(levels)
    if len(rows) != len(levels):
        return [False] * len(levels)
    results = []
    for row in rows:
        length, load_sum, weighted = float(row[2]), float(row[3]), float(row[6])
        results.append(_close(load_sum, length, LOAD_SUM_RTOL)
                       and math.isfinite(weighted) and weighted > 0)
    h_fh = [float(r[5]) for r in rows]
    results[-1] = results[-1] and min(h_fh) > 0 and max(h_fh) / min(h_fh) <= FH_SPREAD_MAX
    return results


CHECKS = {"study_k2": check_study, "heat_k1": check_heat, "curve_oblique": check_curve}


def expected_checks(workload, config):
    if workload == "heat_k1":
        return 1
    return len(_read_yaml(config)["levels"])


# -- outputs compared between the plain and the traced instance ----------------


def output_values(workload, out):
    """The numbers the traced run must reproduce: error columns, history, load sums."""
    name = {"study_k2": "study.csv", "heat_k1": "history.csv", "curve_oblique": "lineload.csv"}
    header, rows = _read_csv(out / name[workload])
    if workload == "study_k2":
        keep = [i for i, h in enumerate(header) if h.startswith("err_") or h == "n_dof"]
    elif workload == "heat_k1":
        keep = range(len(header))
    else:
        keep = [header.index(h) for h in ("load_sum", "fh_l2", "fh_weighted_l2",
                                          "elements_crossed")]
    return [[row[i] for i in keep] for row in rows]


def plain_counts(workload, out):
    """Counts the plain instance exposes: per-level DoF and CG iterations."""
    if workload == "study_k2":
        runs = _read_yaml(out / "metadata.yaml")["runs"]
        return {"n_dof": [r["n_dof"] for r in runs], "iterations": [r["iterations"] for r in runs]}
    if workload == "heat_k1":
        return {"n_dof": [_read_yaml(out / "metadata.yaml")["run"]["n_dof"]]}
    _, rows = _read_csv(out / "lineload.csv")
    return {"elements_crossed": [int(r[7]) for r in rows]}


# -- per-layer metrics from the traced instance ----------------------------------

PER_LAYER = (
    ("mesh.build_s", "s"), ("mesh.elements", "count"),
    ("curve.clip_s", "s"), ("curve.elements_crossed", "count"),
    ("curve.lineload_s", "s"), ("curve.fh_s", "s"),
    ("assembly.stiffness_s", "s"), ("assembly.nitsche_s", "s"), ("assembly.mass_s", "s"),
    ("assembly.dof", "count"), ("assembly.nnz", "count"), ("assembly.csr_mib", "MiB"),
    ("assembly.stiffness_alloc_peak_mib", "MiB"),
    ("solver.solve_s", "s"), ("solver.iterations", "count"), ("solver.precond_setup_s", "s"),
    ("solver.s_per_iteration", "s"), ("solver.matvec_s", "s"),
    ("solver.matvec_flops_computed", "count"), ("solver.matvec_mib_computed", "MiB"),
    ("solver.matvec_gbps_computed", "GB/s"), ("solver.failures", "count"),
    ("norms.l2_s", "s"), ("norms.dg_s", "s"), ("norms.weighted_s", "s"),
    ("norms.weighted_alloc_peak_mib", "MiB"),
    ("parabolic.run_s", "s"), ("parabolic.s_per_step", "s"), ("parabolic.diagnostics_s", "s"),
    ("vtk_io.write_s", "s"), ("vtk_io.mib_written", "MiB"),
    ("config.load_s", "s"), ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(inst, plain, cfg):
    """Per-layer numbers; a layer the workload never calls reads 0.

    Times are summed over levels; counts are taken on the finest level.
    """
    spans = inst.report["spans"]
    counts = inst.report["counts"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def last(name, key):
        found = [s[key] for s in named(name) if key in s]
        return found[-1] if found else 0

    top = next(i for i, s in enumerate(spans) if s["name"] == "cli")
    children = [s for s in spans if s["parent"] == top]
    all_solves = named("solver.solve")
    solves = all_solves[len(all_solves) - counts.get("solves", 0):]  # the finest level's
    finest_iterations = sum(s.get("iterations", 0) for s in solves)
    precond = total("solver.precond_setup")
    nnz = counts.get("nnz", 0)
    matvec_bytes = counts.get("csr_bytes", 0) + 2 * counts.get("vector_bytes", 0)
    matvec_s = counts.get("matvec_s", 0.0)
    steps = cfg.get("time", {}).get("steps", 0) if cfg.get("mode") == "parabolic" else 0
    vtk_bytes = sum(p.stat().st_size for p in inst.outdir.glob("snapshot_*.vtk"))
    alloc_peak = counts["alloc_peak_bytes"]
    values = {
        "mesh.build_s": total("mesh.build"),
        "mesh.elements": last("mesh.build", "n_elements"),
        "curve.clip_s": total("curve.clip"),
        "curve.elements_crossed": last("curve.clip", "items"),
        "curve.lineload_s": total("curve.lineload"),
        "curve.fh_s": total("curve.fh"),
        "assembly.stiffness_s": total("assembly.stiffness"),
        "assembly.nitsche_s": total("assembly.nitsche"),
        "assembly.mass_s": total("assembly.mass"),
        "assembly.dof": counts.get("ndof", 0),
        "assembly.nnz": nnz,
        "assembly.csr_mib": counts.get("csr_bytes", 0) / MIB,
        "assembly.stiffness_alloc_peak_mib": alloc_peak.get("assembly.stiffness", 0) / MIB,
        "solver.solve_s": total("solver.solve"),
        "solver.iterations": finest_iterations,
        "solver.precond_setup_s": precond,
        "solver.s_per_iteration": (
            (sum(s["end"] - s["start"] for s in solves) - len(solves) * precond) / finest_iterations
            if finest_iterations else 0.0
        ),
        "solver.matvec_s": matvec_s,
        "solver.matvec_flops_computed": 2 * nnz,
        "solver.matvec_mib_computed": matvec_bytes / MIB,
        "solver.matvec_gbps_computed": matvec_bytes / matvec_s / 1e9 if matvec_s else 0.0,
        "solver.failures": sum(1 for s in named("solver.solve") if "error" in s),
        "norms.l2_s": total("norms.l2"),
        "norms.dg_s": total("norms.dg"),
        "norms.weighted_s": total("norms.weighted"),
        "norms.weighted_alloc_peak_mib": alloc_peak.get("norms.weighted", 0) / MIB,
        "parabolic.run_s": total("parabolic.run"),
        "parabolic.s_per_step": total("parabolic.run") / steps if steps else 0.0,
        "parabolic.diagnostics_s": total("parabolic.diagnostics"),
        "vtk_io.write_s": total("vtk_io.write"),
        "vtk_io.mib_written": vtk_bytes / MIB,
        "config.load_s": total("config.load"),
        "cli.self_s": (spans[top]["end"] - spans[top]["start"])
        - sum(s["end"] - s["start"] for s in children),
        "trace.overhead_s": inst.done_s - plain.done_s if plain.ok else 0.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# -- environment -----------------------------------------------------------------


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        l3 = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                            text=True, timeout=10).stdout.strip()
        l3_mib = int(l3) / MIB if l3.isdigit() and int(l3) > 0 else None
    except (OSError, subprocess.SubprocessError):
        l3_mib = None
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "l3_mib": l3_mib,
        "commit": git_commit(),
    }


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


# -- one run ---------------------------------------------------------------------


def run(workload, seed, seconds, trace, tiny=False):
    """Measure one workload; return (result line dict, details dict)."""
    t_start = now()
    deadline = t_start + RUN_LIMIT_S
    rundir = RUNS / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    if rundir.exists():
        shutil.rmtree(rundir)
    rundir.mkdir(parents=True)
    config = make_inputs(workload, seed, rundir, tiny)
    check = CHECKS[workload]
    n_checks = expected_checks(workload, config)
    attempted = failed = 0
    details = {"workload": workload, "trace": trace, "tiny": tiny, "env": environment(seed)}

    def instance(mode, tag):
        nonlocal attempted, failed
        inst = Instance(workload, mode, config, rundir / tag, deadline)
        if mode != "setup":
            results = check(inst.outdir, config, tiny) if inst.ok else [False] * n_checks
            attempted += n_checks
            failed += results.count(False)
        inst.t_checked = now()
        return inst

    if not trace:
        # set-up probes go between the instances, so that both sample the
        # same stretch of time on a machine whose speed drifts
        reps, setups = [], []

        def probe():
            inst = instance("setup", "setup")
            shutil.rmtree(inst.outdir)
            if inst.ok:
                setups.append(inst.setup_s)

        while not reps or (now() - t_start < seconds
                           and now() + 1.5 * reps[-1].done_s < deadline - 20):
            inst = instance("plain", f"rep{len(reps)}")
            shutil.rmtree(inst.outdir)
            reps.append(inst)
            if not inst.ok:
                break
            for _ in range(PROBES_PER_REP):
                probe()
        while len(setups) < SETUP_SAMPLES and now() < deadline - 20:
            probe()
        walls = [r.t_checked - r.t_spawn for r in reps if r.ok]
        rss = [r.rss_mib for r in reps if r.ok]
        ok = bool(walls) and len(setups) >= 2
        metrics = {
            "wall_s": statistics.median(walls) if ok else 0.0,
            # start-up cost is a floor that contention on the machine only adds to
            "setup_s": statistics.quantiles(setups, n=10)[0] if ok else 0.0,
            "peak_rss_mib": statistics.median(rss) if ok else 0.0,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        details["samples"] = {"wall_s": walls, "setup_s": setups, "peak_rss_mib": rss}
    else:
        plain = instance("plain", "plain")
        traced = instance("traced", "traced")
        both = plain.ok and traced.ok
        # the traced outputs must equal the plain outputs, and the counts repeat
        same_outputs = both and output_values(workload, plain.outdir) == output_values(
            workload, traced.outdir)
        repeats = repeat_checks(workload, seed, tiny, plain, traced, details) if both else [False]
        attempted += 1 + len(repeats)
        failed += [same_outputs, *repeats].count(False)
        # a traced instance whose solves failed still gives its layer metrics
        ok = traced.ok
        cfg = _read_yaml(config)
        metrics = layer_metrics(traced, plain, cfg) if ok else {
            name: {"value": 0.0, "unit": unit} for name, unit in PER_LAYER}
        if ok:
            details["spans"] = traced.report["spans"]
    details["attempted"], details["failed"] = attempted, failed
    details["run_s"] = now() - t_start
    shutil.rmtree(rundir, ignore_errors=True)
    result = {"correct": failed == 0 and ok, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, details


def exact_counts(traced):
    """Counts of a traced instance that must repeat exactly from run to run."""
    spans, c = traced.report["spans"], traced.report["counts"]

    def each(name, key):
        return [s[key] for s in spans if s["name"] == name and key in s]

    out = {"elements": each("mesh.build", "n_elements"),
           "elements_crossed": each("curve.clip", "items"),
           "cg_iterations": each("solver.solve", "iterations")}
    if "nnz" in c:
        out.update(dof=c["ndof"], nnz=c["nnz"], csr_bytes=c["csr_bytes"],
                   matvec_flops=2 * c["nnz"], matvec_bytes=c["csr_bytes"] + 2 * c["vector_bytes"])
    return out


def repeat_checks(workload, seed, tiny, plain, traced, details):
    """Counts repeat between the plain and the traced instance, and between traced runs.

    The first traced run of a workload and seed on a given ``src/`` stores
    its counts in ``.bench_runs``; later ones must match them exactly.
    """
    per_instance = [plain_counts(workload, plain.outdir), plain_counts(workload, traced.outdir)]
    counts = exact_counts(traced)
    details["counts"] = {"plain_vs_traced": per_instance, "traced": counts}
    checks = [per_instance[0] == per_instance[1]]
    stored = RUNS / f"counts-{workload}-seed{seed}{'-tiny' if tiny else ''}-{source_digest()}.json"
    if stored.is_file():
        checks.append(json.loads(stored.read_text()) == counts)
        details["counts"]["earlier_run"] = "same" if checks[-1] else "DIFFERENT"
    else:
        stored.write_text(json.dumps(counts))
    return checks


def source_digest():
    """Short hash of the program's sources, so stored counts follow the code."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


# -- reporting -------------------------------------------------------------------


def print_human(result, details):
    print(f"# {details['workload']} trace={details['trace']} seed={details['env']['seed']} "
          f"run {details['run_s']:.1f} s")
    samples = details.get("samples", {})
    for name, m in result["metrics"].items():
        n = len(samples.get(name, [])) or 1
        stat = "lower decile" if name == "setup_s" else "median"
        print(f"#   {name:36s} {m['value']:14.6g} {m['unit']:6s} ({stat} of {n})"
              if samples else f"#   {name:36s} {m['value']:14.6g} {m['unit']}")
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"#   {'failed_frac':36s} {frac:14.6g} {'':6s} "
          f"({result['failed']} of {result['attempted']} checks)")
    if "counts" in details:
        print(f"#   counts {json.dumps(details['counts'])}")
        csr = result["metrics"]["assembly.csr_mib"]["value"]
        print(f"#   finest CSR {csr:.1f} MiB against L3 {details['env']['l3_mib']} MiB "
              "(matvec bytes and GB/s are computed from array sizes)")
    print(f"#   env {json.dumps(details['env'])}")


def save(details, result):
    RUNS.mkdir(exist_ok=True)
    name = f"{details['workload']}-seed{details['env']['seed']}-trace{details['trace']}.json"
    with open(RUNS / name, "w") as fh:
        json.dump({"result": result, **details}, fh, indent=1)


def program_present():
    needed = [ROOT / "src" / "linedg" / "__init__.py", ROOT / "configs" / "study_k2.yaml",
              ROOT / "configs" / "parabolic_demo.yaml"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"bench: the program is missing from {ROOT}: {', '.join(missing)}",
              file=sys.stderr)
    return not missing


def selftest():
    """Every workload at tiny size, plain and traced; all names and checks must hold."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    ok = [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, details = run(workload, seed=0, seconds=0, trace=trace, tiny=True)
            print_human(result, details)
            names_ok = list(result["metrics"]) == want[trace]
            print(f"# selftest {workload} trace={trace}: correct={result['correct']} "
                  f"names={'ok' if names_ok else 'MISMATCH'}")
            ok = ok and result["correct"] and names_ok
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def write_reference():
    """Run the plain path once per reference file and store its output."""
    wanted = (("study_k2", False, "study.csv", "study_k2.csv"),
              ("heat_k1", False, "history.csv", "heat_k1.csv"),
              ("heat_k1", True, "history.csv", "heat_k1_tiny.csv"))
    REFERENCE.mkdir(exist_ok=True)
    for workload, tiny, produced, stored in wanted:
        rundir = RUNS / f"reference-{stored}"
        shutil.rmtree(rundir, ignore_errors=True)
        rundir.mkdir(parents=True)
        config = make_inputs(workload, 0, rundir, tiny)
        inst = Instance(workload, "plain", config, rundir / "out", now() + 900)
        if not inst.ok:
            return 1
        shutil.copyfile(inst.outdir / produced, REFERENCE / stored)
        shutil.rmtree(rundir)
        print(f"wrote {REFERENCE / stored}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the plain outputs of study_k2 and heat_k1 as the reference")
    args = parser.parse_args(argv)
    if not program_present():
        return 2
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if args.selftest:
        return selftest()
    if args.write_reference:
        return write_reference()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result, details = run(workload, args.seed, args.seconds, args.trace)
        save(details, result)
        print_human(result, details)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
