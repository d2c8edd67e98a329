"""Command-line surface: figure presets, sweeps, and numeric audits.

Commands
--------
figure1a/figure1b/figure2c/figure2d
    Emit the preset curves as CSV (and SVG with --svg).
sweep
    Custom phase or modulus sweep; --modulus gives a phase sweep at
    fixed |alpha_x|, --phase gives a modulus sweep at fixed arg.
oracle
    Closed form vs trace over random coherent tuples; gates on the max
    error.
normcheck
    Plane-integral normalization of test states plus the (reported,
    never asserted) restricted-section integrals of the presets.
report
    Factorization table and polarization residuals for a configured
    coherent pair.

Exit codes: 0 ok, 1 I/O failure, 2 tolerance exceeded, 3 truncation,
4 validation.  CSV files are deterministic: the header carries
parameters, never timestamps.  POLQPDF_OUT sets the default output
directory.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import fock, qpdf
from .coherence import CoherenceOrder, factorization_check, polarization_residual
from .errors import (
    EXIT_IO,
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_TRUNCATION,
    EXIT_VALIDATION,
    TruncationError,
    ValidationError,
)
from .qpdf import AxisKind, GridMeta, Method, QpdfGrid

__all__ = ["main", "app", "write_csv", "read_csv", "write_svg", "FIGURE_PRESETS"]

_OUT_ENV = "POLQPDF_OUT"

_ORACLE_TOL = 1e-6
_NORM_TOL = 1e-4

# caption parameters, verbatim; beta values are written in exact
# rectangular form (2 e^{i pi/2} = 2i, 20^{-1/2} e^{i atan 2} = 0.1+0.2i)
_P_SMALL = 0.0049 * (1 + 1j)
_P_DIAG = complex(math.sqrt(0.5), math.sqrt(0.5))

FIGURE_PRESETS = {
    "figure1a": dict(kind=AxisKind.PHASE, beta=2j, p=_P_SMALL, q=_P_SMALL,
                     fixed=5.0, s=0.0),
    "figure1b": dict(kind=AxisKind.PHASE, beta=0.1 + 0.2j, p=_P_DIAG, q=_P_DIAG,
                     fixed=5.0, s=0.0),
    "figure2c": dict(kind=AxisKind.MODULUS, beta=2j, p=_P_SMALL, q=_P_SMALL,
                     fixed=math.pi / 4, s=0.0),
    "figure2d": dict(kind=AxisKind.MODULUS, beta=0.1 + 0.2j, p=_P_DIAG, q=_P_DIAG,
                     fixed=math.pi / 2, s=0.0),
}


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def write_csv(grid: QpdfGrid, path: Path) -> None:
    """Emit `# key=value` header plus axis,value rows, 17 significant digits."""
    m = grid.meta
    lines = [
        f"# s={m.s!r}",
        f"# p={m.p!r}",
        f"# q={m.q!r}",
        f"# beta={m.beta!r}",
        f"# dim={'none' if m.dim_used is None else m.dim_used}",
        f"# method={m.method.value}",
        f"# measure={m.measure}",
        f"# axis_kind={grid.axis_kind.value}",
        "axis,value",
    ]
    if grid.axis_kind is AxisKind.PLANE:
        n = grid.axis_values.size
        for i in range(n):
            for j in range(n):
                lines.append(
                    f"{grid.axis_values[i]:.17g},{grid.values[i * n + j]:.17g}"
                )
    else:
        for a, v in zip(grid.axis_values, grid.values):
            lines.append(f"{a:.17g},{v:.17g}")
    path.write_text("\n".join(lines) + "\n")


def read_csv(path: Path) -> QpdfGrid:
    """Parse a file produced by write_csv back into an equal QpdfGrid."""
    meta: dict[str, str] = {}
    rows: list[tuple[float, float]] = []
    seen_header = False
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value
            continue
        if not seen_header:
            if line != "axis,value":
                raise ValidationError(f"expected 'axis,value' header, got {line!r}")
            seen_header = True
            continue
        a, _, v = line.partition(",")
        rows.append((float(a), float(v)))
    try:
        kind = AxisKind(meta["axis_kind"])
        gm = GridMeta(
            s=float(meta["s"]),
            p=complex(meta["p"]),
            q=complex(meta["q"]),
            beta=complex(meta["beta"]),
            dim_used=None if meta["dim"] == "none" else int(meta["dim"]),
            method=Method(meta["method"]),
            measure=meta["measure"],
        )
    except KeyError as exc:
        raise ValidationError(f"CSV header is missing {exc}") from exc
    values = np.array([v for _, v in rows])
    if kind is AxisKind.PLANE:
        n = round(math.isqrt(len(rows)))
        axis = np.array([rows[i * n][0] for i in range(n)])
    else:
        axis = np.array([a for a, _ in rows])
    return QpdfGrid(kind, axis, values, gm)


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H = 640, 420
_SVG_ML, _SVG_MR, _SVG_MT, _SVG_MB = 70, 20, 30, 50


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def write_svg(grid: QpdfGrid, path: Path, title: str) -> None:
    """Line plot: polyline, axis box, ticks, caption.  No dependencies."""
    if grid.axis_kind is AxisKind.PLANE:
        raise ValidationError("SVG output supports sweep grids only")
    x = grid.axis_values
    y = grid.values
    x0, x1 = float(x[0]), float(x[-1])
    y0, y1 = float(y.min()), float(y.max())
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    iw = _SVG_W - _SVG_ML - _SVG_MR
    ih = _SVG_H - _SVG_MT - _SVG_MB

    def px(v: float) -> float:
        return _SVG_ML + (v - x0) / (x1 - x0) * iw

    def py(v: float) -> float:
        return _SVG_MT + (y1 - v) / (y1 - y0) * ih

    pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
    xlabel = "arg alpha_x [rad]" if grid.axis_kind is AxisKind.PHASE else "|alpha_x|"
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<rect x="{_SVG_ML}" y="{_SVG_MT}" width="{iw}" height="{ih}" '
        'fill="none" stroke="black"/>',
        f'<text x="{_SVG_W / 2:.0f}" y="20" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{title}</text>',
    ]
    for t in _ticks(x0, x1):
        parts.append(
            f'<line x1="{px(t):.2f}" y1="{_SVG_MT + ih}" x2="{px(t):.2f}" '
            f'y2="{_SVG_MT + ih + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(t):.2f}" y="{_SVG_MT + ih + 20}" text-anchor="middle" '
            f'font-family="monospace" font-size="11">{t:.3g}</text>'
        )
    for t in _ticks(y0, y1):
        parts.append(
            f'<line x1="{_SVG_ML - 5}" y1="{py(t):.2f}" x2="{_SVG_ML}" '
            f'y2="{py(t):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_SVG_ML - 8}" y="{py(t) + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{t:.3g}</text>'
        )
    parts.append(
        f'<text x="{_SVG_ML + iw / 2:.0f}" y="{_SVG_H - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{_SVG_MT + ih / 2:.0f}" text-anchor="middle" '
        f'font-family="monospace" font-size="12" '
        f'transform="rotate(-90 18 {_SVG_MT + ih / 2:.0f})">W</text>'
    )
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1a56a0" '
                 'stroke-width="1.2"/>')
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected 're' or 're,im', got {text!r}")


def _out_path(arg: str | None, default_name: str) -> Path:
    if arg:
        return Path(arg)
    base = os.environ.get(_OUT_ENV)
    return (Path(base) if base else Path.cwd()) / default_name


def _add_output_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", help="output CSV path (default: $POLQPDF_OUT or cwd)")
    sp.add_argument("--svg", action="store_true", help="also write an SVG plot")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polqpdf",
        description="s-ordered quasi-probability distributions of polarized "
        "two-mode light",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name in FIGURE_PRESETS:
        sp = sub.add_parser(name, help=f"emit the {name} preset curve")
        sp.add_argument("--method", choices=[m.value for m in Method],
                        default=Method.CLOSED_FORM.value)
        sp.add_argument("--dim", type=int, help="Fock dim for the trace route")
        _add_output_flags(sp)

    sp = sub.add_parser("sweep", help="custom sweep of the coherent-pair QPDF")
    sp.add_argument("--beta", type=_parse_complex, required=True, metavar="re,im")
    sp.add_argument("--p", type=_parse_complex, required=True, metavar="re,im")
    sp.add_argument("--q", type=_parse_complex, required=True, metavar="re,im")
    sp.add_argument("--s", type=float, default=0.0)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--modulus", type=float,
                       help="fixed |alpha_x|; sweeps arg alpha_x over [0, 2pi)")
    group.add_argument("--phase", type=float,
                       help="fixed arg alpha_x; sweeps |alpha_x| over [0, 8]")
    sp.add_argument("--max-modulus", type=float, default=8.0)
    sp.add_argument("--points", type=int, default=512)
    sp.add_argument("--dim", type=int)
    sp.add_argument("--method", choices=[m.value for m in Method],
                    default=Method.CLOSED_FORM.value)
    _add_output_flags(sp)

    sp = sub.add_parser("oracle", help="closed form vs trace over random tuples")
    sp.add_argument("--tuples", type=int, default=200)
    sp.add_argument("--seed", type=int, default=20240915)
    sp.add_argument("--dim", type=int, default=60)
    sp.add_argument("--s", type=float,
                    help="fix s (default cycles over -1, -0.5, 0)")

    sp = sub.add_parser("normcheck", help="plane-integral normalization audit")
    sp.add_argument("--points", type=int, default=200,
                    help="Gauss-Legendre nodes per axis")
    sp.add_argument("--half-width", type=float, default=6.0)
    sp.add_argument("--s", type=float, help="fix s (default runs -1 and 0)")

    sp = sub.add_parser("report", help="factorization table and residuals")
    sp.add_argument("--beta", type=_parse_complex, default=1 + 0j, metavar="re,im")
    sp.add_argument("--p", type=_parse_complex, default=_P_DIAG, metavar="re,im")
    sp.add_argument("--q", type=_parse_complex, metavar="re,im",
                    help="gamma = q*beta (default q = p, i.e. polarized)")
    return ap


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _emit_grid(grid: QpdfGrid, out: Path, svg: bool, title: str) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(grid, out)
    print(f"wrote {out}")
    if svg:
        svg_path = out.with_suffix(".svg")
        write_svg(grid, svg_path, title)
        print(f"wrote {svg_path}")


def _run_figure(name: str, args: argparse.Namespace) -> int:
    preset = FIGURE_PRESETS[name]
    method = Method(args.method)
    if preset["kind"] is AxisKind.PHASE:
        grid = qpdf.sweep_phase(preset["beta"], preset["q"], preset["p"],
                                preset["fixed"], preset["s"],
                                method=method, dim=args.dim)
        title = f"{name}: |alpha|={preset['fixed']:g}, s={preset['s']:g}"
    else:
        grid = qpdf.sweep_modulus(preset["beta"], preset["q"], preset["p"],
                                  preset["fixed"], preset["s"],
                                  method=method, dim=args.dim)
        title = f"{name}: arg alpha={preset['fixed']:.4g}, s={preset['s']:g}"
    _emit_grid(grid, _out_path(args.out, f"{name}.csv"), args.svg, title)
    return EXIT_OK


def _run_sweep(args: argparse.Namespace) -> int:
    method = Method(args.method)
    if args.modulus is not None:
        grid = qpdf.sweep_phase(args.beta, args.q, args.p, args.modulus, args.s,
                                n_points=args.points, method=method, dim=args.dim)
        title = f"phase sweep at |alpha|={args.modulus:g}, s={args.s:g}"
    else:
        grid = qpdf.sweep_modulus(args.beta, args.q, args.p, args.phase, args.s,
                                  max_modulus=args.max_modulus,
                                  n_points=args.points, method=method,
                                  dim=args.dim)
        title = f"modulus sweep at arg={args.phase:.4g}, s={args.s:g}"
    _emit_grid(grid, _out_path(args.out, "sweep.csv"), args.svg, title)
    return EXIT_OK


def _run_oracle(args: argparse.Namespace) -> int:
    if args.tuples < 1:
        raise ValidationError(f"--tuples must be >= 1, got {args.tuples}")
    rng = np.random.default_rng(args.seed)
    s_cycle = [-1.0, -0.5, 0.0] if args.s is None else [args.s]
    errs = []
    worst_tuple = None
    for i in range(args.tuples):
        b, g, ax, ay = (
            complex(r * math.cos(t), r * math.sin(t))
            for r, t in zip(
                2.5 * np.sqrt(rng.uniform(0, 1, 4)), rng.uniform(0, 2 * math.pi, 4)
            )
        )
        s = s_cycle[i % len(s_cycle)]
        state = fock.two_mode_coherent_density(b, g, args.dim)
        got = qpdf.qpdf_trace(state, ax, ay, s)
        want = qpdf.qpdf_coherent_closed(b, g, ax, ay, s)
        err = abs(got - want)
        errs.append(err)
        if worst_tuple is None or err > worst_tuple[0]:
            worst_tuple = (err, b, g, ax, ay, s)
    arr = np.array(errs)
    print(f"oracle: n={args.tuples} dim={args.dim} seed={args.seed}")
    print(f"max_abs_err={arr.max():.3e}")
    print(f"mean_abs_err={arr.mean():.3e}")
    if arr.max() > _ORACLE_TOL:
        _, b, g, ax, ay, s = worst_tuple
        print(f"FAIL (max > {_ORACLE_TOL:g}) at beta={b!r} gamma={g!r} "
              f"ax={ax!r} ay={ay!r} s={s!r}", file=sys.stderr)
        return EXIT_TOLERANCE
    print(f"PASS (max <= {_ORACLE_TOL:g})")
    return EXIT_OK


def _run_normcheck(args: argparse.Namespace) -> int:
    quad = qpdf.PlaneQuadrature(args.points, args.half_width)
    s_list = [-1.0, 0.0] if args.s is None else [args.s]
    beta0 = 0.8 + 0.3j
    q0 = 0.5 - 0.2j
    d = 40
    one = np.kron(fock.fock_vector(1, d), fock.fock_vector(0, d))
    states = [
        ("coherent pair", fock.two_mode_coherent_density(beta0, q0 * beta0, d)),
        ("fock |1,0>", fock.TwoModeState.from_kets([(1.0, one)], d)),
    ]
    print(f"normalization: {args.points}x{args.points} Gauss-Legendre on "
          f"[-{args.half_width:g},{args.half_width:g}]^2")
    worst = 0.0
    for label, state in states:
        for s in s_list:
            res = qpdf.normalization_check(state, s, quad)
            dev = max(abs(res.total - 1.0), abs(res.mode_x - 1.0),
                      abs(res.mode_y - 1.0))
            worst = max(worst, dev)
            print(f"{label:14s} s={s:+.1f}: total={res.total:.10f} "
                  f"mode_x={res.mode_x:.10f} mode_y={res.mode_y:.10f} "
                  f"max_dev={dev:.2e}")
            for note in res.warnings:
                print(f"  warning: {note}")

    w1 = qpdf.qpdf_trace_single(
        np.outer(fock.fock_vector(1, 20), fock.fock_vector(1, 20)), 0j, 0.0
    )
    print(f"W at origin for |1>, s=0: {w1:.12f} (target -2)")

    # restricted-section integrals (reported, not asserted: the section
    # fixes alpha_y = p alpha_x, which is not a normalized marginal)
    for name in ("figure1a", "figure1b"):
        pre = FIGURE_PRESETS[name]
        val = qpdf.poincare_sphere_qpdf(
            pre["beta"], pre["q"],
            _direction_of(pre["p"]), pre["s"],
        )
        print(f"section integral ({name} parameters): {val:.10g}")

    if worst > _NORM_TOL or abs(w1 + 2.0) > 1e-9:
        print(f"FAIL (deviation > {_NORM_TOL:g})", file=sys.stderr)
        return EXIT_TOLERANCE
    print(f"PASS (deviations <= {_NORM_TOL:g})")
    return EXIT_OK


def _direction_of(p: complex) -> tuple[float, float]:
    return 2.0 * math.atan(abs(p)), math.atan2(p.imag, p.real)


def _run_report(args: argparse.Namespace) -> int:
    p = args.p
    q = p if args.q is None else args.q
    beta = args.beta
    d = 40
    state = fock.two_mode_coherent_density(beta, q * beta, d)
    print(f"state |beta, q*beta>, beta={beta!r}, q={q!r}, p={p!r}, dim={d}")
    print("factorization table (mx,my,nx,ny): lhs, rhs, abs_error")
    worst = 0.0
    orders = [
        (mx, my, nx, ny)
        for mx in range(5) for my in range(5)
        for nx in range(5) for ny in range(5)
        if mx + my + nx + ny <= 4
    ]
    for tup in orders:
        chk = factorization_check(state, p, CoherenceOrder(*tup))
        worst = max(worst, chk.abs_error)
        print(f"  {tup}: lhs={chk.lhs:.12g} rhs={chk.rhs:.12g} "
              f"err={chk.abs_error:.3e}")
    print(f"worst factorization error: {worst:.3e} over {len(orders)} orders")

    res = polarization_residual(state, p)
    print(f"polarization residual of the state: {res:.3e}")
    vac = fock.two_mode_coherent_density(0j, 0j, 8)
    print(f"polarization residual of vacuum:    {polarization_residual(vac, p):.3e}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command in FIGURE_PRESETS:
            return _run_figure(args.command, args)
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "oracle":
            return _run_oracle(args)
        if args.command == "normcheck":
            return _run_normcheck(args)
        return _run_report(args)
    except TruncationError as exc:
        print(f"truncation error: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
