import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polqpdf
from polqpdf import qpdf
from polqpdf.cli import FIGURE_PRESETS, main, read_csv, write_csv, write_svg
from polqpdf.errors import ValidationError
from polqpdf.qpdf import AxisKind, GridMeta, Method, QpdfGrid


def test_figure1a_csv_peak(tmp_path):
    out = tmp_path / "f1a.csv"
    assert main(["figure1a", "--out", str(out)]) == 0
    grid = read_csv(out)
    k = int(np.argmax(grid.values))
    assert abs(grid.axis_values[k] - math.pi / 2) <= math.pi / 512
    assert grid.values.size == 512


def test_figure_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["figure1b", "--out", str(a)]) == 0
    assert main(["figure1b", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_figure2c_shape(tmp_path):
    out = tmp_path / "f2c.csv"
    assert main(["figure2c", "--out", str(out)]) == 0
    grid = read_csv(out)
    assert grid.axis_values[0] == 0.0
    assert grid.axis_values[-1] == 8.0
    peak = int(np.argmax(grid.values))
    assert np.all(np.diff(grid.values[peak:]) < 0.0)


def test_csv_header_fields(tmp_path):
    out = tmp_path / "f1a.csv"
    main(["figure1a", "--out", str(out)])
    text = out.read_text()
    for key in ("# s=", "# p=", "# q=", "# beta=", "# dim=", "# method=",
                "# measure=", "# axis_kind="):
        assert key in text
    assert "axis,value" in text
    assert "# beta=2j" in text
    assert "timestamp" not in text.lower()


def test_csv_round_trip_exact(tmp_path):
    grid = qpdf.sweep_phase(0.3 - 0.7j, 0.2 + 0.1j, 1.1j, 2.0, -0.25,
                            n_points=64, method=Method.TRACE_ORACLE)
    path = tmp_path / "grid.csv"
    write_csv(grid, path)
    back = read_csv(path)
    assert back.axis_kind is grid.axis_kind
    assert np.array_equal(back.axis_values, grid.axis_values)
    assert np.array_equal(back.values, grid.values)
    assert back.meta == grid.meta


def test_plane_csv_round_trip(tmp_path):
    meta = GridMeta(-1.0, 0j, 0j, 0.5j, 48, Method.TRACE_ORACLE)
    grid = QpdfGrid(AxisKind.PLANE, np.linspace(-1, 1, 5),
                    np.linspace(0, 1, 25), meta)
    path = tmp_path / "plane.csv"
    write_csv(grid, path)
    back = read_csv(path)
    assert back.axis_kind is AxisKind.PLANE
    assert np.array_equal(back.axis_values, grid.axis_values)
    assert np.array_equal(back.values, grid.values)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False)


@st.composite
def _grids(draw):
    kind = draw(st.sampled_from(AxisKind))
    n = draw(st.integers(2, 5 if kind is AxisKind.PLANE else 12))
    axis = sorted(draw(st.lists(_FINITE, min_size=n, max_size=n, unique=True)))
    size = n * n if kind is AxisKind.PLANE else n
    values = draw(st.lists(_FINITE, min_size=size, max_size=size))
    meta = GridMeta(draw(st.floats(-1.0, 1.0, exclude_max=True)), draw(_COMPLEX),
                    draw(_COMPLEX), draw(_COMPLEX),
                    draw(st.none() | st.integers(1, 10**6)),
                    draw(st.sampled_from(Method)))
    return QpdfGrid(kind, np.array(axis), np.array(values), meta)


@settings(max_examples=50, deadline=None)
@given(_grids())
def test_csv_round_trip_property(tmp_path_factory, grid):
    path = tmp_path_factory.mktemp("csv") / "grid.csv"
    write_csv(grid, path)
    back = read_csv(path)
    assert back.axis_kind is grid.axis_kind
    assert np.array_equal(back.axis_values, grid.axis_values)
    assert np.array_equal(back.values, grid.values)
    assert back.meta == grid.meta
    again = path.with_name("again.csv")
    write_csv(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_read_csv_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    header = ("# s=0.0\n# p=0j\n# q=0j\n# beta=0j\n# dim=none\n"
              "# method=closed_form\n# measure=m\n# axis_kind=phase_sweep\n")
    for text in (
        "# s=0.0\nnot,a,header\n",
        header + "axis,value\nabc,1.0\n0,1\n",
        header.replace("# s=0.0", "# s=zz") + "axis,value\n0,1\n1,2\n",
        header.replace("closed_form", "foo") + "axis,value\n0,1\n1,2\n",
    ):
        bad.write_text(text)
        with pytest.raises(ValidationError):
            read_csv(bad)
    missing = tmp_path / "missing.csv"
    missing.write_text("axis,value\n0,1\n1,2\n")
    with pytest.raises(ValidationError, match="missing"):
        read_csv(missing)


def test_svg_output(tmp_path):
    out = tmp_path / "fig.csv"
    assert main(["figure1a", "--out", str(out), "--svg"]) == 0
    svg = (tmp_path / "fig.svg").read_text()
    assert svg.startswith("<svg")
    assert "<polyline" in svg
    assert "arg alpha_x" in svg
    # deterministic as well
    again = tmp_path / "fig2.csv"
    main(["figure1a", "--out", str(again), "--svg"])
    assert (tmp_path / "fig2.svg").read_text() == svg


def test_svg_rejects_plane_grids(tmp_path):
    meta = GridMeta(0.0, 0j, 0j, 0j, None, Method.CLOSED_FORM)
    grid = QpdfGrid(AxisKind.PLANE, np.array([0.0, 1.0]), np.zeros(4), meta)
    with pytest.raises(ValidationError):
        write_svg(grid, tmp_path / "x.svg", "t")


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("POLQPDF_OUT", str(tmp_path))
    assert main(["figure1b"]) == 0
    assert (tmp_path / "figure1b.csv").exists()


def test_unwritable_path_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    rc = main(["figure1a", "--out", str(blocker / "sub" / "out.csv")])
    assert rc == 1
    assert "i/o error" in capsys.readouterr().err


def test_sweep_command_phase(tmp_path):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--beta", "0.5,0.5", "--p", "0.3,-0.4", "--q", "0.2",
               "--s", "-0.5", "--modulus", "2", "--points", "64",
               "--out", str(out)])
    assert rc == 0
    grid = read_csv(out)
    assert grid.axis_kind is AxisKind.PHASE
    assert grid.values.size == 64
    assert grid.meta.p == 0.3 - 0.4j
    assert grid.meta.q == 0.2 + 0j


def test_sweep_command_modulus_trace(tmp_path):
    out = tmp_path / "m.csv"
    rc = main(["sweep", "--beta", "0.2,0.1", "--p", "0.5", "--q", "0.3",
               "--phase", "0.785", "--points", "32",
               "--method", "trace_oracle", "--out", str(out)])
    assert rc == 0
    grid = read_csv(out)
    assert grid.axis_kind is AxisKind.MODULUS
    assert grid.meta.method is Method.TRACE_ORACLE
    assert grid.meta.dim_used is not None


def test_large_trace_sweeps_are_refused_before_building(capsys):
    # near s = 1 the s-aware sizing asks for dim ~15900 (a 4 GB ket), and
    # beta = 60 for dim 4106 at any s: refused before anything that size exists
    tracemalloc.start()
    try:
        for argv in (
            ["sweep", "--beta", "0.5,0.5", "--p", "0.3,-0.4", "--q", "0.2",
             "--phase", "0", "--s", "0.99", "--method", "trace_oracle"],
            ["sweep", "--beta=60,0", "--p=0.1", "--q=0.1", "--modulus=1",
             "--method=trace_oracle"],
        ):
            assert main(argv) == 3
            assert "above the limit 3000" in capsys.readouterr().err
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def test_sweep_requires_exactly_one_axis():
    with pytest.raises(SystemExit):
        main(["sweep", "--beta", "1", "--p", "1", "--q", "1"])
    with pytest.raises(SystemExit):
        main(["sweep", "--beta", "1", "--p", "1", "--q", "1",
              "--modulus", "1", "--phase", "0"])


def test_oracle_defaults_pass(capsys):
    assert main(["oracle"]) == 0
    out = capsys.readouterr().out
    m = re.search(r"max_abs_err=([0-9.e+-]+)", out)
    assert m is not None
    assert float(m.group(1)) <= 1e-8
    assert "PASS" in out


def test_oracle_truncation_exit(capsys):
    # normcheck at s = 0.3 holds its states to 1e-4, at 40 nodes per axis
    assert main(["normcheck", "--s", "0.3", "--points", "40"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert all(float(d) <= 1e-4 for d in re.findall(r"max_dev=(\S+)", out))
    # a dim too small for a tuple's coherent tail, and no Fock dim holds
    # moduli or boxes whose squares overflow a float
    for argv in (
        ["oracle", "--dim", "10"],
        ["oracle", "--dim", "4"],
        ["oracle", "--dim", "11", "--tuples", "2"],
        ["sweep", "--beta=1e200,0", "--p=0.1", "--q=0.1", "--modulus=1",
         "--method=trace_oracle"],
        ["normcheck", "--points=2", "--half-width=1e200"],
        ["normcheck", "--half-width=1.2e154"],
        ["normcheck", "--points=2", "--half-width=1e20"],
        ["report", "--beta=1e200,0.5"],
    ):
        assert main(argv) == 3
        assert "truncation error" in capsys.readouterr().err


def test_oracle_singular_order_exit(capsys):
    for argv in (
        ["oracle", "--s", "1"],
        ["oracle", "--tuples", "0"],
        ["oracle", "--tuples", "-3"],
        ["report", "--beta=nan,0.5"],
        ["report", "--beta=inf,0.5"],
    ):
        assert main(argv) == 4
        assert "validation error" in capsys.readouterr().err


def test_module_invocation_runs_the_command():
    src = str(Path(polqpdf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-m", "polqpdf.cli", "oracle", "--tuples", "0"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=120,
    )
    assert res.returncode == 4
    assert "validation error" in res.stderr


def test_cli_import_skips_scipy_stats():
    # scipy.stats alone used to double the start-up time of every command
    src = str(Path(polqpdf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, polqpdf.cli; print('scipy.stats' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_commands_run_without_scipy(tmp_path):
    # scipy.special and scipy.linalg were most of the start-up time; every
    # command runs on numpy alone, and only from_density loads LAPACK
    src = str(Path(polqpdf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = f"""
import sys
from polqpdf.cli import main
from polqpdf.fock import TwoModeState, state_components, two_mode_coherent_density
out = {str(tmp_path)!r}
for argv in (["figure1a", "--out", out + "/a.csv"],
             ["figure2c", "--method", "trace_oracle", "--out", out + "/c.csv"],
             ["sweep", "--beta", "0.2,0.1", "--p", "0.5", "--q", "0.3", "--phase", "0.785",
              "--points", "32", "--method", "trace_oracle", "--out", out + "/s.csv"],
             ["oracle", "--tuples", "5"], ["normcheck", "--points", "40"], ["report"]):
    assert main(argv) == 0, argv
print("loaded", [m for m in ("scipy.special", "scipy.linalg") if m in sys.modules])
rho = two_mode_coherent_density(0.3, 0.2j, 8).density
(w, _), = state_components(TwoModeState.from_density(rho, 8))
print("weight", round(w, 12))
"""
    res = subprocess.run([sys.executable, "-c", script],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    assert lines[-2] == "loaded []"
    assert lines[-1] == "weight 1.0"


def test_normcheck_fails_on_nan_deviation(monkeypatch, capsys):
    # max() drops a NaN deviation, which printed PASS for all-NaN totals
    nan = qpdf.NormalizationResult(math.nan, 1.0, 1.0, 6.0, 6.0)
    monkeypatch.setattr(qpdf, "normalization_check", lambda *args: nan)
    assert main(["normcheck", "--points=2"]) == 2
    assert "FAIL" in capsys.readouterr().err


def test_normcheck_small_grid(capsys):
    rc = main(["normcheck", "--points", "80", "--s", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    assert "W at origin for |1>, s=0: -2.000000000000" in out
    assert "section integral (figure1a parameters)" in out


def test_report_table(capsys):
    assert main(["report"]) == 0
    out = capsys.readouterr().out
    m = re.search(r"worst factorization error: ([0-9.e+-]+) over 70 orders", out)
    assert m is not None
    assert float(m.group(1)) <= 1e-10
    assert re.search(r"residual of vacuum:\s+0\.000e\+00", out)


def test_report_on_unpolarized_state(capsys):
    assert main(["report", "--beta", "1,0", "--p", "0.5,0.5", "--q", "0.9,0"]) == 0
    out = capsys.readouterr().out
    res = float(re.search(r"residual of the state: ([0-9.e+-]+)", out).group(1))
    assert res > 1e-3


def test_figure_presets_table():
    assert set(FIGURE_PRESETS) == {"figure1a", "figure1b", "figure2c", "figure2d"}
    assert FIGURE_PRESETS["figure1a"]["beta"] == 2j
    assert FIGURE_PRESETS["figure1b"]["beta"] == 0.1 + 0.2j
    assert FIGURE_PRESETS["figure2d"]["fixed"] == math.pi / 2
