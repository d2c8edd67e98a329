"""Re-time the prose baseline of ROADMAP.md, one call per item.

    python3 perfbench/roadmap_probe.py

The ROADMAP states its baseline as single timings taken outside the
repository. This script repeats each of those calls once, so that the
figures can be set next to the benchmark's own (see BASELINE.md). It is
not part of the benchmark runs.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from polqpdf import cli, fock, qpdf  # noqa: E402
from polqpdf.qpdf import Method, PlaneQuadrature  # noqa: E402


def timed(label: str, roadmap: str, fn) -> None:
    t0 = time.perf_counter()
    fn()
    print(f"{label:52s} {time.perf_counter() - t0:9.4f} s   (ROADMAP: {roadmap})")


def main() -> int:
    out = ROOT / ".perfbench_work" / "probe"
    out.mkdir(parents=True, exist_ok=True)

    def figure(name):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([name, "--method=trace_oracle", f"--out={out}/{name}.csv"])
        if rc != 0:
            raise RuntimeError(f"{name} exited with {rc}")

    pair64 = fock.two_mode_coherent_density(1.0, 0.5j, 64)
    pair30 = fock.two_mode_coherent_density(1.0, 0.5j, 30)
    dense30 = fock.TwoModeState.from_density(pair30.density, 30)

    timed("figure1a --method trace_oracle (512 pts, dim 110)", "11-12 s",
          lambda: figure("figure1a"))
    timed("figure2d --method trace_oracle", "13 s", lambda: figure("figure2d"))
    for s in (-1.0, 0.0):
        timed(f"plane_grid_qpdf 64x64, dim 64, kets, s={s:g}", "3.6-4.2 s",
              lambda: qpdf.plane_grid_qpdf(pair64, s, 3.0, 64))
    timed("plane_grid_qpdf 16x16, dim 30, dense density, s=0", "1.3 s",
          lambda: qpdf.plane_grid_qpdf(dense30, 0.0, 1.0, 16))
    for s, roadmap in ((-1.0, "0.08 s"), (0.0, "2.0 s"), (-0.5, "5.2 s")):
        timed(f"normalization_check 200^2, dim 30, s={s:g}", roadmap,
              lambda: qpdf.normalization_check(pair30, s, PlaneQuadrature(200, 6.0)))
    timed("closed-form 512-point sweep", "0.1 ms",
          lambda: qpdf.sweep_phase(2j, 0.0049 * (1 + 1j), 0.0049 * (1 + 1j), 5.0, 0.0,
                                   method=Method.CLOSED_FORM))
    for path in out.iterdir():
        path.unlink()
    out.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
