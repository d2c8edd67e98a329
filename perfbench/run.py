"""polqpdf benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload trace_sweeps --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from
`src/`.  With `--trace 0` it reports the end-to-end metrics: set-up time
of a fresh `import polqpdf.cli` (median of interpreter spawns spread over
the run), and the wall time, median and tail latency of a pass over the
workload's operations after one warm-up pass, plus peak resident memory.
The metric names and units are those BENCHMARK.json declares.  With
`--trace 1` it wraps the package's public functions (see `tracing.py`)
and reports per-layer counts and self times instead; traced passes
alternate with untraced ones so that the tracing overhead can be stated.

Every operation's output is checked outside the timed sections
(`checks.py`).  `attempted` counts the workload's distinct operations and
`failed` those whose check failed in any pass; `correct` is false when a
failure is not one of the known defects listed in `workloads.py`.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import hostspeed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SPAWNS = 5  # fresh interpreters per run, for setup_s or -X importtime
IMPORT_LINE = "import polqpdf.cli"


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric units, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git checkout."""
    # the ceiling keeps git from taking up a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    env_threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {
        "nproc": nproc,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        # OpenBLAS runs one thread per available CPU unless the env caps it
        "blas_threads": int(env_threads) if env_threads else nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# set-up time in fresh interpreters
# ---------------------------------------------------------------------------

def _spawn_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def setup_once() -> float:
    """Wall time of one `python -c 'import polqpdf.cli'` in a fresh interpreter."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", IMPORT_LINE], cwd=ROOT,
                          env=_spawn_env(), capture_output=True, text=True)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import failed: {proc.stderr.strip()[-400:]}")
    return dt


def import_breakdown(spawns: int) -> dict[str, float]:
    """Median cumulative `-X importtime` seconds of polqpdf and two scipy parts."""
    samples: dict[str, list[float]] = {"polqpdf": [], "scipy.stats": [], "scipy.special": []}
    for _ in range(spawns):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_LINE],
                              cwd=ROOT, env=_spawn_env(), capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"fresh import failed: {proc.stderr.strip()[-400:]}")
        cum: dict[str, float] = {}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, c, name = (part.strip() for part in line[len("import time:"):].split("|"))
            if c.isdigit():
                top = name.split(".")[0] if name.startswith("polqpdf") else name
                cum[top] = max(cum.get(top, 0.0), int(c) * 1e-6)
        for key in samples:
            samples[key].append(cum.get(key, 0.0))
    return {
        "setup.import.polqpdf_s": statistics.median(samples["polqpdf"]),
        "setup.import.scipy_stats_s": statistics.median(samples["scipy.stats"]),
        "setup.import.scipy_special_s": statistics.median(samples["scipy.special"]),
    }


# ---------------------------------------------------------------------------
# executing operations
# ---------------------------------------------------------------------------

@dataclass
class Context:
    out: Path
    workload: workloads.Workload
    dim: int = workloads.DENSITY_DIM
    rho: list = field(default_factory=list)
    kets: list = field(default_factory=list)
    fock10: list = field(default_factory=list)
    states: dict = field(default_factory=dict)


def _coherent(beta: complex, dim: int) -> np.ndarray:
    n = np.arange(dim)
    logfact = np.cumsum(np.log(np.maximum(n, 1)))
    if beta == 0:
        v = (n == 0).astype(complex)
    else:
        v = np.exp(n * np.log(abs(beta)) - 0.5 * logfact + 1j * n * np.angle(beta))
    return v / np.linalg.norm(v)


def prepare(wl: workloads.Workload, out: Path) -> Context:
    """Inputs the user would hand to the library: kets and dense densities."""
    ctx = Context(out, wl)
    for mixture in wl.mixtures:
        pairs = [(w, np.kron(_coherent(b, ctx.dim), _coherent(g, ctx.dim)))
                 for w, b, g in mixture]
        ctx.kets.append(pairs)
        ctx.rho.append(sum(w * np.outer(v, v.conj()) for w, v in pairs))
    one = np.zeros(ctx.dim * ctx.dim, dtype=complex)
    one[1 * ctx.dim + 0] = 1.0  # |1,0>, flattened index n_x * dim + n_y
    ctx.fock10 = [(1.0, one)]
    return ctx


def execute(op: workloads.Op, ctx: Context):
    from polqpdf import cli, fock, qpdf

    if op.argv:
        argv = [a.replace("{out}", str(ctx.out)) for a in op.argv]
        out, err = io.StringIO(), io.StringIO()
        rc, exc = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except (Exception, SystemExit) as e:  # undocumented: counted, not fatal
                exc = e
        return checks.CliResult(rc, exc, out.getvalue(), err.getvalue())
    pr = op.params
    try:
        if op.api == "from_density":
            value = fock.TwoModeState.from_density(ctx.rho[pr["mixture"]], ctx.dim)
            ctx.states[pr["state"]] = value
        elif op.api == "from_kets":
            pairs = ctx.fock10 if pr["mixture"] < 0 else ctx.kets[pr["mixture"]]
            value = fock.TwoModeState.from_kets(pairs, ctx.dim)
            ctx.states[pr["state"]] = value
        elif op.api == "plane":
            value = qpdf.plane_grid_qpdf(ctx.states[pr["state"]], pr["s"],
                                         pr["half_width"], pr["n"], pr["alpha_y"])
        elif op.api == "state_components":
            value = fock.state_components(ctx.states[pr["state"]])
        elif op.api == "read_csv":
            value = cli.read_csv(ctx.out / pr["csv"])
        else:
            raise KeyError(op.api)
    except Exception as e:
        return checks.ApiResult(None, e)
    return checks.ApiResult(value, None)


@dataclass
class PassLog:
    latencies: list[float] = field(default_factory=list)
    outcomes: list[tuple[workloads.Op, checks.Outcome]] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    # reference kernel samples: (index of the latency each precedes, seconds)
    kernel: list[tuple[int, float]] = field(default_factory=list)

    def scales(self) -> list[float]:
        """Per latency, KERNEL_REF_S over the mean of the kernel samples
        just before and just after it: brings it to the reference speed."""
        out, j, ks = [], 0, self.kernel
        for i in range(len(self.latencies)):
            while ks[j + 1][0] <= i:
                j += 1
            out.append(hostspeed.KERNEL_REF_S / (0.5 * (ks[j][1] + ks[j + 1][1])))
        return out

    def scaled_latencies(self) -> list[float]:
        return [dt * k for dt, k in zip(self.latencies, self.scales())]

    def scaled_walls(self) -> list[float]:
        n = len(self.latencies) // len(self.walls)  # operations per pass
        lat = self.scaled_latencies()
        return [math.fsum(lat[i:i + n]) for i in range(0, len(lat), n)]


@dataclass
class SetupSample:
    raw: float  # seconds of the fresh `import polqpdf.cli`
    ref: float  # the faster `import numpy` spawn of just before and just after

    @property
    def scaled(self) -> float:
        return self.raw * hostspeed.SPAWN_REF_S / self.ref


def setup_sample() -> SetupSample:
    before = hostspeed.numpy_spawn(ROOT)
    raw = setup_once()
    return SetupSample(raw, min(before, hostspeed.numpy_spawn(ROOT)))


def run_pass(ctx: Context, log: PassLog | None, tracer: tracing.Tracer | None = None,
             between=None) -> None:
    """One closed-loop pass; only the operation calls are timed.

    `between`, when given, is called before each operation.
    """
    wall = 0.0
    for op in ctx.workload.ops:
        if between is not None:
            between()
        if tracer is not None:
            tracer.op_id += 1
            tracer.active = True
        t0 = time.perf_counter()
        result = execute(op, ctx)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        wall += dt
        if log is not None:
            log.latencies.append(dt)
            log.outcomes.append((op, checks.check(op, result, ctx)))
    if log is not None:
        log.walls.append(wall)


def measure(ctx: Context, seconds: float, min_passes: int,
            spawns: int) -> tuple[PassLog, list[SetupSample]]:
    """Timed passes for `seconds`, with the set-up spawns spread among them.

    The reference kernel runs between operations, once every
    `hostspeed.KERNEL_EVERY_S` of run time, and right before and after
    each set-up spawn.  A shared host runs slower in stretches of seconds;
    spacing the spawns evenly over the passes keeps one such stretch from
    catching them all.  Time spent in spawns and in the kernel does not
    count towards `seconds`.
    """
    log, setup = PassLog(), []
    start, spent, last = time.perf_counter(), 0.0, -math.inf

    def sample() -> None:
        nonlocal spent, last
        t0 = time.perf_counter()
        log.kernel.append((len(log.latencies), hostspeed.kernel()))
        last = time.perf_counter()
        spent += last - t0

    def between() -> None:
        if time.perf_counter() - last >= hostspeed.KERNEL_EVERY_S:
            sample()

    while True:
        frac = min(1.0, (time.perf_counter() - start - spent) / seconds)
        while len(setup) < spawns and len(setup) <= (spawns - 1) * frac:
            sample()
            t0 = time.perf_counter()
            setup.append(setup_sample())
            spent += time.perf_counter() - t0
            sample()  # the spawns' aftermath must not count
        if frac >= 1.0 and len(log.walls) >= min_passes:
            sample()
            return log, setup
        run_pass(ctx, log, between=between)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def min_passes_for_tail(wl: workloads.Workload) -> int:
    """Fewest passes that leave at least ten latencies beyond the tail."""
    passes = 1
    while True:
        n = passes * len(wl.ops)
        if n - math.ceil(wl.tail_pct / 100.0 * n) >= 10:
            return passes
        passes += 1


def summarize(logs: list[PassLog]) -> tuple[int, int, int, dict]:
    """attempted, failed, unexpected failures, and the correctness figures.

    Each distinct operation of the workload counts once, however many
    passes ran it, and fails when any of its runs failed its check.  The
    counts so depend on the seed, not on how many passes fitted in the run.
    """
    attempted: set[int] = set()
    causes: dict[int, set[tuple[str, bool]]] = {}  # failed op -> (cause, known)
    trace_err = norm_dev = 0.0
    for log in logs:
        for op, oc in log.outcomes:
            attempted.add(id(op))  # the workload's Op objects live for the run
            if oc.trace_err is not None:
                trace_err = max(trace_err, oc.trace_err)
            if oc.norm_dev is not None:
                norm_dev = max(norm_dev, oc.norm_dev)
            if not oc.ok:
                known = bool(op.defect) and workloads.KNOWN_FAILURE[op.defect] in oc.detail
                key = op.defect if known else f"UNEXPECTED {op.label}: {oc.detail}"
                causes.setdefault(id(op), set()).add((key, known))
    failures: dict[str, int] = {}
    for keys in causes.values():
        for key, _ in keys:
            failures[key] = failures.get(key, 0) + 1
    unexpected = sum(not all(known for _, known in keys) for keys in causes.values())
    return len(attempted), len(causes), unexpected, {
        "qpdf.trace.max_abs_err": trace_err,
        "qpdf.normalization.max_dev": norm_dev,
        "failures": failures,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure_run(wl: workloads.Workload, seed: int, seconds: float, trace: int,
                out: Path, spawns: int = SETUP_SPAWNS) -> tuple[dict, list[str]]:
    """Run one workload; return the JSON result and the notes printed before it."""
    ctx = prepare(wl, out)
    n_ops = len(wl.ops)
    if trace:
        metrics = import_breakdown(spawns)
    run_pass(ctx, None)  # warm-up: caches, lazy imports, BLAS start-up

    notes = [f"# env {json.dumps(environment())}"]
    if trace:
        # untraced and traced passes alternate, so that both see the same
        # stretches of a shared host's speed
        plain, traced = PassLog(), PassLog()
        tracer = tracing.Tracer()
        kernel = []
        start = time.perf_counter()
        while not traced.walls or time.perf_counter() - start < seconds:
            kernel.append(hostspeed.kernel())
            run_pass(ctx, plain)
            tracer.install()
            try:
                run_pass(ctx, traced, tracer)
            finally:
                tracer.uninstall()
        logs = [plain, traced]
        metrics.update(tracing.layer_metrics(tracer.spans, len(traced.walls)))
        plain_s, traced_s = statistics.fmean(plain.walls), statistics.fmean(traced.walls)
        metrics["trace.overhead_s"] = traced_s - plain_s
        metrics["host.kernel_s"] = statistics.median(kernel)
        spans = WORK / "spans" / f"{wl.name}-seed{seed}.jsonl"
        tracer.write_jsonl(str(spans))
        notes.append(f"# wall_s {plain_s:.4f} untraced, {traced_s:.4f} traced; "
                     f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}")
    else:
        log, setup = measure(ctx, seconds, min_passes_for_tail(wl), spawns)
        logs = [log]
        latencies = log.scaled_latencies()
        tail_s, beyond = tail(latencies, wl.tail_pct)
        # every timing at the reference host speed (see hostspeed.py)
        metrics = {
            "setup_s": statistics.median(v.scaled for v in setup),
            # the mean, not the median: the scaling follows the host's speed
            # only roughly, and the mean moves smoothly with what is left
            # where a median of few passes jumps between speeds
            "wall_s": statistics.fmean(log.scaled_walls()),
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        notes.append(f"# op_tail_s is p{wl.tail_pct:g} of {len(latencies)} op "
                     f"latencies, {beyond} beyond it")
        notes.append(f"# unscaled: wall_s {statistics.fmean(log.walls):.4f}, op_p50_s "
                     f"{statistics.median(log.latencies):.5f}, setup_s "
                     f"{statistics.median(v.raw for v in setup):.4f}; {len(log.kernel)} "
                     f"kernel samples, median {statistics.median(k for _, k in log.kernel):.4f} s; "
                     f"setup spawns (s, raw/numpy ref): "
                     f"{[(round(v.raw, 3), round(v.ref, 3)) for v in setup]}")

    attempted, failed, unexpected, correctness = summarize(logs)
    passes = sum(len(lg.walls) for lg in logs)
    notes.append(f"# workload {wl.name} seed={seed}: {n_ops} ops per pass, "
                 f"{passes} timed passes, closed loop, one client")
    notes.append(f"# error_ratio = {failed}/{attempted} = {failed / attempted:.4f} distinct "
                 f"operations; failures: {json.dumps(correctness.pop('failures'))}")
    if trace:
        metrics.update(correctness)
        metrics["error_ratio"] = failed / attempted
    units = declared_metrics()[trace]
    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        # a per-layer metric reads 0 where the workload never enters its layer
        "metrics": {k: {"value": float(metrics.get(k, 0.0) if trace else metrics[k]),
                        "unit": u} for k, u in units.items()},
    }
    return result, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import polqpdf.cli  # fails here when the checkout has no src/

    if not Path(polqpdf.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"polqpdf imported from {polqpdf.cli.__file__}, not {SRC}")

    wl = workloads.build(args.workload, args.seed)
    out = WORK / f"{args.workload}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        result, notes = measure_run(wl, args.seed, args.seconds, args.trace, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
