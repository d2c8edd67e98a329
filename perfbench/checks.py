"""Correctness checks of each operation's output, run outside timed sections.

References are written here independently of the package: the coherent
pair closed form, its weighted sums for mixtures, the |1,0> Fock-ket
formula, the coherent-pair correlation monomials and the polarization
residual |q - p| |beta|.  Trace values must match them within `TOL`, the
accuracy bound ROADMAP item 2 keeps.  A check never raises; it returns an
`Outcome`, and a failed outcome counts against the run's error ratio.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOL = 1e-9
# inputs no command accepts must exit with a documented code
EXIT_TRUNCATION, EXIT_VALIDATION = 3, 4

_P_SMALL = 0.0049 * (1 + 1j)
_P_DIAG = complex(math.sqrt(0.5), math.sqrt(0.5))
# the figure captions: (axis, beta, p = q, fixed modulus or phase), s = 0
FIGURES = {
    "figure1a": ("phase", 2j, _P_SMALL, 5.0),
    "figure1b": ("phase", 0.1 + 0.2j, _P_DIAG, 5.0),
    "figure2c": ("modulus", 2j, _P_SMALL, math.pi / 4),
    "figure2d": ("modulus", 0.1 + 0.2j, _P_DIAG, math.pi / 2),
}
FIGURE_POINTS = 512
FIGURE_MAX_MODULUS = 8.0


@dataclass
class CliResult:
    rc: int | None
    exc: BaseException | None
    out: str
    err: str


@dataclass
class ApiResult:
    value: object
    exc: BaseException | None


@dataclass
class Outcome:
    ok: bool
    detail: str = ""
    trace_err: float | None = None  # trace vs reference, s <= 0 values only
    norm_dev: float | None = None


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def closed_pair(beta, gamma, ax, ay, s):
    kappa = 2.0 / (1.0 - s)
    return kappa**2 * np.exp(-kappa * (np.abs(ax - beta) ** 2 + np.abs(ay - gamma) ** 2))


def closed_mixture(mixture, ax, ay, s):
    return sum(w * closed_pair(b, g, ax, ay, s) for w, b, g in mixture)


def fock10(ax, ay, s):
    kappa = 2.0 / (1.0 - s)
    x = np.abs(ax) ** 2
    return (kappa * np.exp(-kappa * x) * (1.0 - kappa + kappa**2 * x)
            * kappa * np.exp(-kappa * np.abs(ay) ** 2))


def sweep_points(kind, points, fixed, p, max_modulus=FIGURE_MAX_MODULUS):
    """Axis and (alpha_x, alpha_y) points of a phase or modulus sweep."""
    if kind == "phase":
        axis = np.arange(points) * (2.0 * math.pi / points)
        axs = fixed * np.exp(1j * axis)
    else:
        axis = np.linspace(0.0, max_modulus, points)
        axs = axis * complex(math.cos(fixed), math.sin(fixed))
    return axis, axs, p * axs


def plane_points(half_width, n):
    axis = np.linspace(-half_width, half_width, n)
    re_, im_ = np.meshgrid(axis, axis, indexing="ij")
    return axis, (re_ + 1j * im_).reshape(-1)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def check(op, result, ctx) -> Outcome:
    """Check one operation's result; ctx gives the output dir and inputs."""
    try:
        return _CHECKS[op.label](op, result, ctx)
    except Exception as exc:  # a malformed output is a failed check
        return Outcome(False, f"check error: {type(exc).__name__}: {exc}")


def _cli_ok(res: CliResult) -> Outcome | None:
    if res.exc is not None:
        return Outcome(False, f"raised {type(res.exc).__name__}: {res.exc}")
    if res.rc != 0:
        return Outcome(False, f"exit code {res.rc}: {res.err.strip()[-200:]}")
    return None


def _grid_against(grid, axis, ref, s, roundtrip_of: Path | None, trace: bool):
    from polqpdf import cli

    if not np.allclose(grid.axis_values, axis, rtol=0.0, atol=1e-12):
        return Outcome(False, "axis differs from the requested sweep")
    err = float(np.max(np.abs(grid.values - ref)))
    if s == -1.0 and float(np.min(grid.values)) < 0.0:
        return Outcome(False, f"negative Husimi value {np.min(grid.values):.3e}")
    if roundtrip_of is not None:
        again = roundtrip_of.with_name(roundtrip_of.stem + ".again.csv")
        cli.write_csv(grid, again)
        if again.read_bytes() != roundtrip_of.read_bytes():
            return Outcome(False, "CSV does not read back to an equal grid")
    ok = err <= TOL
    return Outcome(ok, "" if ok else f"max |value - reference| = {err:.3e}",
                   trace_err=err if trace and s <= 0 else None)


def _svg_ok(path: Path) -> bool:
    text = path.read_text()
    return text.startswith("<svg") and "<polyline" in text


# ---------------------------------------------------------------------------
# trace_sweeps / closed_form_io
# ---------------------------------------------------------------------------

def _sweep_reference(pr):
    if "preset" in pr:
        kind, beta, p, fixed = FIGURES[pr["preset"]]
        axis, axs, ays = sweep_points(kind, FIGURE_POINTS, fixed, p)
        return axis, closed_pair(beta, p * beta, axs, ays, 0.0), 0.0
    fixed = pr["modulus"] if pr["kind"] == "phase" else pr["phase"]
    axis, axs, ays = sweep_points(pr["kind"], pr["points"], fixed, pr["p"],
                                  pr.get("max_modulus", FIGURE_MAX_MODULUS))
    beta = pr["beta"]
    return axis, closed_pair(beta, pr["q"] * beta, axs, ays, pr["s"]), pr["s"]


def _check_sweep_trace(op, res: CliResult, ctx) -> Outcome:
    from polqpdf import cli

    pr = op.params
    if pr["s"] > 0 and res.exc is None and res.rc in (EXIT_TRUNCATION, EXIT_VALIDATION):
        return Outcome(True, "typed refusal at s > 0")
    bad = _cli_ok(res)
    if bad:
        return bad
    path = ctx.out / pr["csv"]
    grid = cli.read_csv(path)
    if grid.meta.method.value != "trace_oracle" or grid.meta.s != pr["s"]:
        return Outcome(False, "CSV header does not match the command")
    if pr["svg"] and not _svg_ok(path.with_suffix(".svg")):
        return Outcome(False, "SVG missing or malformed")
    axis, ref, s = _sweep_reference(pr)
    return _grid_against(grid, axis, ref, s, path, trace=True)


def _check_cli_writes(op, res: CliResult, ctx) -> Outcome:
    bad = _cli_ok(res)
    if bad:
        return bad
    path = ctx.out / op.params["csv"]
    if not path.is_file():
        return Outcome(False, "CSV not written")
    if op.params["svg"] and not _svg_ok(path.with_suffix(".svg")):
        return Outcome(False, "SVG missing or malformed")
    return Outcome(True)


def _check_read_csv(op, res: ApiResult, ctx) -> Outcome:
    if res.exc is not None:
        return Outcome(False, f"raised {type(res.exc).__name__}: {res.exc}")
    axis, ref, s = _sweep_reference(op.params)
    return _grid_against(res.value, axis, ref, s, ctx.out / op.params["csv"],
                         trace=False)


# ---------------------------------------------------------------------------
# density_planes
# ---------------------------------------------------------------------------

def _check_state(op, res: ApiResult, ctx) -> Outcome:
    if res.exc is not None:
        return Outcome(False, f"raised {type(res.exc).__name__}: {res.exc}")
    if res.value.dim != ctx.dim:
        return Outcome(False, f"state dim {res.value.dim} != {ctx.dim}")
    return Outcome(True)


def _check_plane(op, res: ApiResult, ctx) -> Outcome:
    if res.exc is not None:
        return Outcome(False, f"raised {type(res.exc).__name__}: {res.exc}")
    pr = op.params
    axis, pts = plane_points(pr["half_width"], pr["n"])
    if pr["mixture"] < 0:
        ref = fock10(pts, pr["alpha_y"], pr["s"])
    else:
        ref = closed_mixture(ctx.workload.mixtures[pr["mixture"]], pts,
                             pr["alpha_y"], pr["s"])
    return _grid_against(res.value, axis, ref, pr["s"], None, trace=True)


def _check_components(op, res: ApiResult, ctx) -> Outcome:
    if res.exc is not None:
        return Outcome(False, f"raised {type(res.exc).__name__}: {res.exc}")
    comps = res.value
    weights = np.array([w for w, _ in comps])
    if np.any(weights <= 0.0) or abs(weights.sum() - 1.0) > TOL:
        return Outcome(False, f"weights {weights} are not a distribution")
    # eigenpairs of rho with orthonormal vectors and weights summing to
    # tr rho = 1 leave nothing of the positive rho outside the components;
    # checked by matrix-vector products, so the check allocates no
    # dim^2 x dim^2 temporaries that would set peak_rss_mb
    rho = ctx.rho[op.params["mixture"]]
    vecs = np.array([v for _, v in comps])
    residual = max(float(np.linalg.norm(rho @ v - w * v)) for w, v in comps)
    gram = vecs.conj() @ vecs.T
    ortho = float(np.max(np.abs(gram - np.eye(len(comps)))))
    err = max(residual, ortho)
    ok = err <= TOL
    return Outcome(ok, "" if ok else f"eigen residual {residual:.3e}, "
                                     f"orthonormality {ortho:.3e}")


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

_NUM = r"([-+0-9.eEnaif]+)"


def _check_oracle(op, res: CliResult, ctx) -> Outcome:
    bad = _cli_ok(res)
    if bad:
        return bad
    err = float(re.search(r"max_abs_err=" + _NUM, res.out).group(1))
    ok = err <= TOL
    return Outcome(ok, "" if ok else f"oracle max_abs_err {err:.3e}", trace_err=err)


def _check_normcheck(op, res: CliResult, ctx) -> Outcome:
    bad = _cli_ok(res)
    if bad:
        return bad
    devs = [float(x) for x in re.findall(r"max_dev=" + _NUM, res.out)]
    w1 = float(re.search(r"W at origin for \|1>, s=0: " + _NUM, res.out).group(1))
    if len(devs) != 2 or abs(w1 + 2.0) > TOL:
        return Outcome(False, f"normcheck printed devs={devs}, W(0)={w1}")
    return Outcome(True, norm_dev=max(devs))


_TABLE_ROW = re.compile(r"\((\d), (\d), (\d), (\d)\): lhs=(\S+) rhs=")


def _check_report(op, res: CliResult, ctx) -> Outcome:
    bad = _cli_ok(res)
    if bad:
        return bad
    beta, p, q = op.params["beta"], op.params["p"], op.params["q"]
    gamma = q * beta
    rows = _TABLE_ROW.findall(res.out)
    if len(rows) != 70:
        return Outcome(False, f"factorization table has {len(rows)} rows, not 70")
    worst = 0.0
    for mx, my, nx, ny, lhs in rows:
        want = (beta.conjugate() ** int(mx) * gamma.conjugate() ** int(my)
                * beta ** int(nx) * gamma ** int(ny))
        worst = max(worst, abs(complex(lhs) - want) / max(1.0, abs(want)))
    residual = float(re.search(r"residual of the state: " + _NUM, res.out).group(1))
    vacuum = float(re.search(r"residual of vacuum: +" + _NUM, res.out).group(1))
    expect = abs(q - p) * abs(beta)
    # the residual is printed with four significant digits
    if abs(residual - expect) > 1e-3 * expect + TOL or vacuum > TOL:
        return Outcome(False, f"residual {residual:.3e}, expected {expect:.3e}")
    if q == p:
        fact = float(re.search(r"worst factorization error: " + _NUM, res.out).group(1))
        if fact > TOL:
            return Outcome(False, f"polarized factorization error {fact:.3e}")
    ok = worst <= TOL
    return Outcome(ok, "" if ok else f"correlation relative error {worst:.3e}")


def _check_invalid(op, res: CliResult, ctx) -> Outcome:
    if res.exc is not None:
        return Outcome(False, f"undocumented {type(res.exc).__name__}: {res.exc}")
    ok = res.rc == op.params["expect"]
    return Outcome(ok, "" if ok else f"exit code {res.rc}, documented {op.params['expect']}")


_CHECKS = {
    "sweep_trace": _check_sweep_trace,
    "figure": _check_cli_writes,
    "sweep_closed": _check_cli_writes,
    "read_csv": _check_read_csv,
    "from_density": _check_state,
    "from_kets": _check_state,
    "plane_density": _check_plane,
    "plane_kets": _check_plane,
    "plane_fock10": _check_plane,
    "state_components": _check_components,
    "oracle": _check_oracle,
    "normcheck": _check_normcheck,
    "report": _check_report,
    "invalid": _check_invalid,
}
