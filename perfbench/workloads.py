"""Seeded operation lists for the four benchmark workloads.

An operation is one CLI command (driven through `cli.main(argv)`) or one
library call for inputs no CLI command accepts.  Everything an operation
needs is drawn from the seed here; the program only ever sees the
generated argv or arguments.  Work per pass is held nearly constant
across seeds (stratified moduli, fixed point counts, fixed totals) so
that different seeds measure the same amount of work on different
inputs.

Why each workload exists:

* trace_sweeps -- `sweep --method trace_oracle` at Fock dims 35..110: the
  ket trace engine and its displacement blocks do nearly all the work.
  A minority of commands use 0 < s <= 0.5, where the trace route is
  known to return wrong values (ROADMAP item 3); they stay in.
* density_planes -- `plane_grid_qpdf` over coherent mixtures given once
  as a dense density and once as kets, plus the Fock ket |1,0>: the only
  place the dense-density branch, `fock.kernel` and the eigen
  decompositions do the work.
* audits -- `oracle`, `normcheck`, `report` and invalid inputs with
  documented exit codes: the normalization engine, the coherence layer,
  and per-call overhead of single-point traces.
* closed_form_io -- figure presets and closed-form sweeps, each CSV read
  back: never enters the Fock space; argparse and the CSV/SVG writers
  and reader dominate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

NAMES = ("trace_sweeps", "density_planes", "audits", "closed_form_io")

S_IN_DOMAIN = (-1.0, -0.5, 0.0)
DENSITY_DIM = 30
DENSITY_HALF_WIDTH = 1.0  # corner modulus 1.41 needs required_dim = 30
DEFECT_S_POSITIVE = "trace route at s > 0 returns unbounded values (ROADMAP 3)"
DEFECT_TUPLES_ZERO = "oracle --tuples 0 raises a bare ValueError (ROADMAP 3)"
DEFECT_NONFINITE = "non-finite amplitude raises a bare ValueError (ROADMAP 3)"
# how each known defect shows in a failed check; any other failure of the
# same operation is unexpected
KNOWN_FAILURE = {
    DEFECT_S_POSITIVE: "max |value - reference|",
    DEFECT_TUPLES_ZERO: "undocumented ValueError",
    DEFECT_NONFINITE: "undocumented ValueError",
}


@dataclass(frozen=True)
class Op:
    """One timed operation and what its check needs to know."""

    label: str
    argv: tuple[str, ...] = ()  # CLI command; "{out}" is the output directory
    api: str = ""  # library call, when argv is empty
    params: dict = field(default_factory=dict)
    defect: str = ""  # known defect this input exercises, if any


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # per-operation latency percentile reported as op_tail_s, fixed so
    # later runs compare the same one: a high one that a 10 s run reaches
    # with >= 10 samples beyond it and that falls inside the cluster of
    # the slowest operations, not on its lower edge, where the value would
    # jump between two clusters from run to run
    tail_pct: float
    mixtures: tuple = ()  # density_planes: ((weight, beta, gamma), ...) each


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """Operation list of one workload; `tiny` shrinks it for self-tests."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    return _BUILDERS[name](rng, tiny)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _c(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _polar(rng, lo: float, hi: float) -> complex:
    return float(rng.uniform(lo, hi)) * cmath.exp(2j * math.pi * float(rng.uniform()))


def _disc(rng, radius: float) -> complex:
    r = radius * math.sqrt(float(rng.uniform()))
    return r * cmath.exp(2j * math.pi * float(rng.uniform()))


def _s_positive(rng) -> float:
    return 0.5 * (1.0 - float(rng.uniform()))  # (0, 0.5]


# ---------------------------------------------------------------------------
# trace_sweeps
# ---------------------------------------------------------------------------

def _trace_sweeps(rng, tiny: bool) -> Workload:
    # total modulus M = |alpha_x|max + |beta| sets dim = ceil((M+3)^2 + 10):
    # M = 2.0 -> 35, M = 7.05 -> 110; one command per stratum, the same
    # dims for every seed.  An odd count puts op_p50_s inside the middle
    # command's latencies, not between two strata of different cost
    n_cmd, points = (4, 6) if tiny else (15, 12)
    m_lo, m_hi = (1.0, 2.0) if tiny else (2.0, 7.05)
    totals = np.linspace(m_lo, m_hi, n_cmd)
    s_vals = [float(v) for v in rng.choice(S_IN_DOMAIN, n_cmd - n_cmd // 4)]
    s_vals += [_s_positive(rng) for _ in range(n_cmd // 4)]
    kinds = (["phase", "modulus"] * n_cmd)[:n_cmd]
    svg = ([True, False] * n_cmd)[:n_cmd]
    order = rng.permutation(n_cmd)
    perm_s, perm_k, perm_svg = (rng.permutation(n_cmd) for _ in range(3))
    ops = []
    for i, slot in enumerate(order):
        total = float(totals[slot])
        beta = _polar(rng, 0.2, min(1.5, total - 0.5))
        p = _polar(rng, 0.05, 0.9)
        q = _polar(rng, 0.05, 0.9)
        s = s_vals[perm_s[i]]
        kind = kinds[perm_k[i]]
        reach = total - abs(beta)
        argv = ["sweep", f"--beta={_c(beta)}", f"--p={_c(p)}", f"--q={_c(q)}",
                f"--s={s!r}", f"--points={points}", "--method=trace_oracle",
                f"--out={{out}}/trace_{i:02d}.csv"]
        params = dict(beta=beta, p=p, q=q, s=s, kind=kind, points=points,
                      svg=svg[perm_svg[i]], csv=f"trace_{i:02d}.csv")
        if kind == "phase":
            argv.append(f"--modulus={reach!r}")
            params["modulus"] = reach
        else:
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            argv += [f"--phase={phase!r}", f"--max-modulus={reach!r}"]
            params.update(phase=phase, max_modulus=reach)
        if params["svg"]:
            argv.append("--svg")
        ops.append(Op("sweep_trace", tuple(argv), params=params,
                      defect=DEFECT_S_POSITIVE if s > 0 else ""))
    return Workload("trace_sweeps", tuple(ops), tail_pct=95.0)


# ---------------------------------------------------------------------------
# density_planes
# ---------------------------------------------------------------------------

def _density_planes(rng, tiny: bool) -> Workload:
    n_dense, n_ket = (4, 6) if tiny else (12, 32)
    s_list = S_IN_DOMAIN[:1] if tiny else S_IN_DOMAIN
    # the ket route loops over components: 2, 3 and 4 pairs in seeded
    # order keep the total the same for every seed
    sizes = rng.permutation([2, 3, 4])
    mixtures = []
    ops = []
    for k, s in enumerate(s_list):
        n_pairs = int(sizes[k])
        w = rng.uniform(0.2, 1.0, n_pairs)
        w = w / w.sum()
        mixtures.append(tuple(
            (float(wi), _disc(rng, 0.8), _disc(rng, 0.8)) for wi in w
        ))
        ay = _disc(rng, 0.4)
        plane = dict(s=s, half_width=DENSITY_HALF_WIDTH, alpha_y=ay)
        ops += [
            Op("from_density", api="from_density", params=dict(state=f"rho{k}", mixture=k)),
            Op("plane_density", api="plane", params=dict(plane, state=f"rho{k}",
                                                          mixture=k, n=n_dense)),
            Op("from_kets", api="from_kets", params=dict(state=f"ket{k}", mixture=k)),
            Op("plane_kets", api="plane", params=dict(plane, state=f"ket{k}",
                                                       mixture=k, n=n_ket)),
        ]
    k = int(rng.integers(len(s_list)))
    ops.append(Op("state_components", api="state_components",
                  params=dict(state=f"rho{k}", mixture=k)))
    ops += [
        Op("from_kets", api="from_kets", params=dict(state="fock10", mixture=-1)),
        Op("plane_fock10", api="plane", params=dict(
            s=float(rng.choice(S_IN_DOMAIN)), half_width=DENSITY_HALF_WIDTH,
            alpha_y=_disc(rng, 0.4), state="fock10", mixture=-1, n=n_ket)),
    ]
    # the 4 slowest of 15 operations (the three 12^2 dense planes and
    # state_components) hold the top 27 %: p75 sits on their edge, p80
    # inside; it needs 4 passes for ten samples beyond it
    return Workload("density_planes", tuple(ops), tail_pct=80.0,
                    mixtures=tuple(mixtures))


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def _audits(rng, tiny: bool) -> Workload:
    ops = []
    spread = int(rng.integers(0, 5))
    tuples = [6, 6] if tiny else [int(t) for t in rng.permutation(
        [30 - spread, 30, 30 + spread])]  # 90 tuples per pass for every seed
    for t in tuples:
        seed = int(rng.integers(1, 2**31 - 1))
        ops.append(Op("oracle", ("oracle", f"--seed={seed}", f"--tuples={t}"),
                      params=dict(tuples=t)))
    nodes = 32 if tiny else 100
    for s in S_IN_DOMAIN:
        ops.append(Op("normcheck", ("normcheck", f"--s={s!r}", f"--points={nodes}"),
                      params=dict(s=s, nodes=nodes)))
    for polarized in (True, False, bool(rng.integers(2))):
        beta = _polar(rng, 0.3, 1.5)
        p = _polar(rng, 0.1, 1.2)
        q = p if polarized else p + _polar(rng, 0.3, 0.8)
        argv = ["report", f"--beta={_c(beta)}", f"--p={_c(p)}"]
        if not polarized:
            argv.append(f"--q={_c(q)}")
        ops.append(Op("report", tuple(argv), params=dict(beta=beta, p=p, q=q)))
    bad = float(rng.choice([math.nan, math.inf, -math.inf]))
    ops += [
        Op("invalid", ("oracle", "--tuples=0"), params=dict(expect=4),
           defect=DEFECT_TUPLES_ZERO),
        Op("invalid", ("oracle", "--s=1", f"--tuples={int(rng.integers(2, 6))}"),
           params=dict(expect=4)),
        Op("invalid", ("oracle", f"--dim={int(rng.integers(4, 12))}",
                       f"--tuples={int(rng.integers(2, 6))}"),
           params=dict(expect=3)),
        Op("invalid", ("report", f"--beta={bad!r},0.5"), params=dict(expect=4),
           defect=DEFECT_NONFINITE),
    ]
    order = rng.permutation(len(ops))
    return Workload("audits", tuple(ops[i] for i in order), tail_pct=75.0)


# ---------------------------------------------------------------------------
# closed_form_io
# ---------------------------------------------------------------------------

def _closed_form_io(rng, tiny: bool) -> Workload:
    svg = rng.permutation([True, False] * 2)
    cmds = []
    for i, name in enumerate(("figure1a", "figure1b", "figure2c", "figure2d")):
        argv = [name, f"--out={{out}}/{name}.csv"] + (["--svg"] if svg[i] else [])
        cmds.append((Op("figure", tuple(argv), params=dict(
            preset=name, csv=f"{name}.csv", svg=bool(svg[i]))), f"{name}.csv"))
    # sweep sizes span 128..4096 points so that write and read latencies
    # form a continuum without a gap at the median; SVG goes on every
    # other size, so every seed has the same costs in a different order
    sizes = (64, 512) if tiny else (128, 256, 512, 1024, 1536, 2048, 3072, 4096)
    with_svg = {n: k % 2 == 1 for k, n in enumerate(sizes)}
    sizes = rng.permutation(sizes)
    for i in range(len(sizes)):
        beta = _polar(rng, 0.2, 2.5)
        p = _polar(rng, 0.05, 1.5)
        q = _polar(rng, 0.05, 1.5)
        s = float(rng.choice(S_IN_DOMAIN)) if i % 2 else _s_positive(rng)
        points = int(sizes[i])
        csv = f"closed_{i:02d}.csv"
        argv = ["sweep", f"--beta={_c(beta)}", f"--p={_c(p)}", f"--q={_c(q)}",
                f"--s={s!r}", f"--points={points}", f"--out={{out}}/{csv}"]
        params = dict(beta=beta, p=p, q=q, s=s, points=points, csv=csv,
                      svg=with_svg[points])
        if i % 2:
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            mx = float(rng.uniform(3.0, 8.0))
            argv += [f"--phase={phase!r}", f"--max-modulus={mx!r}"]
            params.update(kind="modulus", phase=phase, max_modulus=mx)
        else:
            mod = float(rng.uniform(0.5, 6.0))
            argv.append(f"--modulus={mod!r}")
            params.update(kind="phase", modulus=mod)
        if params["svg"]:
            argv.append("--svg")
        cmds.append((Op("sweep_closed", tuple(argv), params=params), csv))
    ops = []
    for i in rng.permutation(len(cmds)):
        op, csv = cmds[i]
        ops += [op, Op("read_csv", api="read_csv", params=dict(op.params, csv=csv))]
    return Workload("closed_form_io", tuple(ops), tail_pct=99.0)


_BUILDERS = {
    "trace_sweeps": _trace_sweeps,
    "density_planes": _density_planes,
    "audits": _audits,
    "closed_form_io": _closed_form_io,
}
