import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import pfwcl

from pfwcl.cli import COMMANDS, build_parser, run

PM_MEASURE = {"dimension": 3,
              "profile": {"type": "point_masses",
                          "atoms": [{"omega": 1.0, "weight": 3.0}]}}

#: kappa = 1e154 keeps kappa^2 = 1e308 finite, but not kappa^2 times this
#: measure's rates, which no JSON or CSV cell can hold
SHARP_100 = {"dimension": 3, "profile": {"type": "sharp", "lambda": 100.0}}

FOCK_ARGS = ["fock", "--modes", "1:3:0", "--kappa-list", "1", "--p-list", "0"]
#: a complete fock params object, which a test's params update and its flags override
FOCK_PARAMS = {"modes": [[1, 3, 0]], "ntot": 4, "kappa_list": [1], "p_list": [0]}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


#: pins BLAS and OpenMP to one thread; ``run_python`` without it drops both,
#: so the library picks its default thread count
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def child_env(threads=None) -> dict:
    """The environment of a fresh interpreter that imports this checkout's
    pfwcl, with the thread-count variables ``threads`` (default: none set)."""
    env = {key: value for key, value in os.environ.items() if key not in ONE_THREAD}
    env.update(threads or {})
    src = os.path.dirname(os.path.dirname(pfwcl.__file__))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_python(args, threads=None) -> bytes:
    """Stdout of a fresh interpreter in ``child_env(threads)``."""
    return subprocess.run([sys.executable, *args], env=child_env(threads), check=True,
                          capture_output=True).stdout


class TestValidate:
    def test_atom_measure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "pm.json", {"measure": PM_MEASURE})
        out = tmp_path / "report.csv"
        assert run(["validate", "--config", cfg, "--output", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("# config:")
        header, row = text.splitlines()[1:3]
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["m_eff"]) == 4.0
        assert cells["ir_regular"] == "true"
        assert "m_eff=4" in capsys.readouterr().err

    def test_small_cutoff_reports_exact_moments(self, tmp_path):
        # at lambda = 1e-60 every rule weight of the d = 3 sharp cutoff is a
        # normal double, so M_{-2} = 4 pi lambda to rounding
        cfg = write_config(tmp_path, "small.json", {"measure": {
            "dimension": 3, "profile": {"type": "sharp", "lambda": 1e-60}}})
        out = tmp_path / "report.csv"
        assert run(["validate", "--config", cfg, "--output", str(out)]) == 0
        header, row = out.read_text().splitlines()[1:3]
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["m_minus2"]) == pytest.approx(4 * math.pi * 1e-60, rel=1e-15)

    def test_missing_measure_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "empty.json", {})
        assert run(["validate", "--config", cfg]) == 2

    @pytest.mark.parametrize("profile", [
        {"type": "sharp", "lambda": 2.0},
        {"type": "gaussian", "sigma": 0.5},
        {"type": "point_masses", "atoms": [[1.0, 3.0], [2.0, 0.5]]},
        {"type": "tabulated", "points": [[0.0, 1.0], [1.0, 0.5], [2.0, 0.0]]},
    ], ids=lambda profile: profile["type"])
    def test_assumption_columns(self, tmp_path, capsys, profile):
        # every measure that constructs passes; bench/checks.py reads the column
        cfg = write_config(tmp_path, "m.json", {"measure": {"dimension": 3, "profile": profile}})
        assert run(["validate", "--config", cfg]) == 0
        out, err = capsys.readouterr()
        header, row = out.splitlines()[1:3]
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["assumptions_pass"] == "true" and cells["failures"] == ""
        assert err.endswith(" assumptions=pass\n")


class TestEnergy:
    def test_atom_energy_row(self, tmp_path):
        cfg = write_config(tmp_path, "pm.json", {"measure": PM_MEASURE})
        out = tmp_path / "energy.csv"
        assert run(["energy", "--config", cfg, "--kappa", "2", "--p", "2",
                    "--output", str(out)]) == 0
        header, row = out.read_text().splitlines()[1:3]
        cells = dict(zip(header.split(","), row.split(",")))
        assert float(cells["calE"]) == pytest.approx(0.5, rel=1e-10)
        assert float(cells["log_spectral"]) == pytest.approx(4.0, rel=1e-10)

    def test_one_ground_energy_per_run(self, tmp_path, capsys, monkeypatch):
        # two quadratures, calE and the kappa = 1 log-spectral value: the row's
        # log_spectral and the dispersion on stderr, 1/(2 m_eff) + kappa^2 calE,
        # read the measure's one energy result
        from pfwcl import energy
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        real = energy.adaptive_quad
        monkeypatch.setattr(energy, "adaptive_quad", spy)
        cfg = write_config(tmp_path, "pm.json", {"measure": PM_MEASURE})
        assert run(["energy", "--config", cfg, "--kappa", "2", "--p", "1"]) == 0
        assert len(calls) == 2
        assert "dispersion(p=1.0,kappa=2.0)=2.125 " in capsys.readouterr().err

    @pytest.mark.parametrize("measure", [PM_MEASURE, {"dimension": 3, "profile": {
        "type": "gaussian", "sigma": 1.0}}], ids=["atom", "gaussian"])
    def test_each_moment_summed_once_per_run(self, tmp_path, monkeypatch, measure):
        # construction's integrability check and the dispersion's moment report
        # read one report, so each standing moment is one pass over the rule
        from pfwcl import formfactor
        orders = []

        def spy(ff, s):
            orders.append(s)
            return real(ff, s)

        real = formfactor.moment
        monkeypatch.setattr(formfactor, "moment", spy)
        cfg = write_config(tmp_path, "m.json", {"measure": measure})
        assert run(["energy", "--config", cfg, "--p", "1", "--output", os.devnull]) == 0
        assert sorted(orders) == [-3, -2, -1, 1]

    def test_log_spectral_at_large_kappa(self, tmp_path):
        # kappa^2 times the kappa = 1 integral: at 1e150 the row read 0
        cfg = write_config(tmp_path, "pm.json", {"measure": PM_MEASURE})
        values = []
        for kappa in ("1", "1e150"):
            out = tmp_path / f"energy_{kappa}.csv"
            assert run(["energy", "--config", cfg, "--kappa", kappa, "--output", str(out)]) == 0
            header, row = out.read_text().splitlines()[1:3]
            values.append(float(dict(zip(header.split(","), row.split(",")))["log_spectral"]))
        assert values[1] == pytest.approx(1e300 * values[0], rel=1e-15, abs=0)

    def test_large_sharp_d4_measure_exits_zero(self, tmp_path, capsys):
        # integrated in t itself, not at its own scale, it exhausts the panel budget
        cfg = write_config(tmp_path, "big.json", {
            "measure": {"dimension": 4, "profile": {"type": "sharp", "lambda": 1e4}}})
        assert run(["energy", "--config", cfg]) == 0
        assert capsys.readouterr().err.startswith("energy: calE=384749436.958 ")

    def test_non_finite_column_exits_three(self, tmp_path, capsys):
        # the row read "log_spectral": Infinity, which is no JSON, and exited 0
        cfg = write_config(tmp_path, "sharp.json", {"measure": SHARP_100})
        assert run(["energy", "--config", cfg, "--kappa", "1e154", "--format", "json"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "energy: numerical failure: non-finite output: log_spectral = inf\n"

    @pytest.mark.parametrize("spoil, message", [
        ("MAX_PANELS", "panel budget 4 exhausted"),
        ("_g", "integrand returned non-finite values")], ids=["budget", "nan"])
    def test_quadrature_failure_exits_three(self, tmp_path, capsys, monkeypatch, spoil,
                                            message):
        # the sharp d = 4 lambda = 1e4 quadratures refine beyond 4 panels
        from pfwcl import energy, quadrature
        if spoil == "MAX_PANELS":
            monkeypatch.setattr(quadrature, "MAX_PANELS", 4)
        else:
            monkeypatch.setattr(energy, "_g", lambda r2, w, t2: math.nan)
        cfg = write_config(tmp_path, "big.json", {
            "measure": {"dimension": 4, "profile": {"type": "sharp", "lambda": 1e4}}})
        assert run(["energy", "--config", cfg]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"energy: numerical failure: {message}")

    def test_arithmetic_error_exits_three(self, tmp_path, capsys, monkeypatch):
        # OverflowError exited 3, but its sibling ZeroDivisionError ended in a traceback
        from pfwcl import energy
        monkeypatch.setattr(energy, "_g", lambda r2, w, t2: 1.0 / 0.0)
        cfg = write_config(tmp_path, "pm.json", {"measure": PM_MEASURE})
        assert run(["energy", "--config", cfg]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "energy: numerical failure: float division by zero\n"

    def test_divergent_measure_exits_two_naming_condition(self, tmp_path, capsys):
        bad = write_config(tmp_path, "bad.json", {
            "measure": {"dimension": 2, "profile": {"type": "sharp", "lambda": 1.0}}})
        assert run(["energy", "--config", bad]) == 2
        err = capsys.readouterr().err
        assert "phi/omega not square-integrable" in err

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "odd.json",
                           {"measure": PM_MEASURE, "bogus": 1})
        assert run(["energy", "--config", cfg]) == 2

    def test_output_config_key_rejected(self, tmp_path, capsys):
        # the data path is --output only; a config "output" used to be ignored
        cfg = write_config(tmp_path, "out.json",
                           {"measure": PM_MEASURE, "output": str(tmp_path / "o.csv")})
        assert run(["validate", "--config", cfg]) == 2
        assert "unknown config keys ['output']" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_unknown_param_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "odd2.json",
                           {"measure": PM_MEASURE, "params": {"kapa": 2.0}})
        assert run(["energy", "--config", cfg]) == 2


class TestCutoffScan:
    def test_columns_and_bracket(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert run(["cutoff-scan", "--lambda", "1e2,1e4,1e6",
                    "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "lambda,kappa,p,calE,E_over_lambda_1p5,I1,I2"
        final = lines[-1].split(",")
        ratio = float(final[4])
        assert 1.44720 <= ratio <= 2.50663

    def test_nonpositive_lambda_rejected(self, tmp_path):
        assert run(["cutoff-scan", "--lambda", "0,-3"]) == 2

    def test_non_finite_energy_exits_three(self, capsys):
        # 4 Lambda^2 overflows: the row read inf in two columns and exited 0
        assert run(["cutoff-scan", "--lambda", "1e154"]) == 3
        out, err = capsys.readouterr()
        assert out.splitlines()[1:] == ["lambda,kappa,p,calE,E_over_lambda_1p5,I1,I2"]
        assert err == ("cutoff-scan: numerical failure: non-finite output: "
                       "calE = inf, E_over_lambda_1p5 = inf\n")

    def test_integrand_division_by_zero_exits_three(self, capsys):
        # the integrand's denominator underflows to 0: a ZeroDivisionError
        # traceback and exit 1; the rows of smaller Lambda are already written
        assert run(["cutoff-scan", "--lambda", "1e2,1e250"]) == 3
        out, err = capsys.readouterr()
        assert out.splitlines()[2].startswith("100,1,0,")
        assert len(out.splitlines()) == 3
        assert err == ("cutoff-scan: numerical failure: cutoff quadrature at "
                       "Lambda = 1e+250: float division by zero\n")


class TestWienerHopf:
    def test_ladder_columns(self, tmp_path):
        cfg = write_config(tmp_path, "pm.json", {"measure": PM_MEASURE})
        out = tmp_path / "wh.csv"
        assert run(["wiener-hopf", "--config", cfg, "--T-ladder", "5,10",
                    "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == ("T,n,logdet_per_T,ak_target,ak_dev,ak_B,disc_err,"
                            "mass_fn,mass_target,mass_dev")
        assert len(lines) == 4

    def test_nodes_retired(self, tmp_path, capsys):
        # neither the flag nor the config param exists any more
        cfg = write_config(tmp_path, "pm.json", {"measure": PM_MEASURE,
                                                  "params": {"nodes": 80}})
        assert run(["wiener-hopf", "--config", cfg, "--T", "5"]) == 2
        assert "unknown params ['nodes'] for wiener-hopf" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            run(["wiener-hopf", "--T", "5", "--nodes", "80"])
        assert exc.value.code == 2

    def test_requires_horizon(self, tmp_path):
        cfg = write_config(tmp_path, "pm.json", {"measure": PM_MEASURE})
        assert run(["wiener-hopf", "--config", cfg]) == 2

    def test_non_finite_columns_exit_three(self, tmp_path, capsys):
        # the row read inf in three columns and nan in ak_dev, and exited 0
        cfg = write_config(tmp_path, "sharp.json", {"measure": SHARP_100})
        assert run(["wiener-hopf", "--config", cfg, "--kappa", "1e154", "--T", "1",
                    "--format", "json"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("wiener-hopf: numerical failure: ak_target * T = inf at T = 1.0, "
                       "kappa = 1e+154: the log-det overflows a double\n")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_horizon_refused_before_solving(self, tmp_path, capsys, monkeypatch):
        # the log-det and u_T solve ran, and warned of overflow, before the row check
        from pfwcl import wienerhopf
        monkeypatch.setattr(wienerhopf, "log_det", None)
        monkeypatch.setattr(wienerhopf, "mass_functional", None)
        cfg = write_config(tmp_path, "sharp.json", {"measure": SHARP_100})
        assert run(["wiener-hopf", "--config", cfg, "--kappa", "1e153", "--T", "1"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "the log-det overflows a double" in err

    @pytest.mark.filterwarnings("error")
    def test_horizon_past_the_doubles_exits_two_before_solving(self, tmp_path, capsys,
                                                               monkeypatch):
        # S = kappa^2 T = 1e309: four numpy warnings, then exit 3 on a NaN u_T residual
        from pfwcl import wienerhopf
        monkeypatch.setattr(wienerhopf, "log_det", None)
        monkeypatch.setattr(wienerhopf, "mass_functional", None)
        cfg = write_config(tmp_path, "weak.json", {"measure": {"dimension": 3, "profile": {
            "type": "point_masses", "atoms": [{"omega": 1000.0, "weight": 1e-3}]}}})
        assert run(["wiener-hopf", "--config", cfg, "--kappa", "1e154", "--T", "10"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("wiener-hopf: configuration error: kappa^2 T must be a finite double, "
                       "got kappa = 1e+154, T = 10.0\n")


class TestFock:
    def test_scan_columns(self, tmp_path):
        out = tmp_path / "fock.csv"
        assert run(["fock", "--modes", "1:3:0", "--ntot", "12",
                    "--kappa-list", "1", "--p-list", "0,0.2",
                    "--epsilon", "0", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == ("kappa,p,epsilon,E_p,E_0,gap,target,gap_dev,"
                            "E0_dev,semigroup_res,top_shell")
        first = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert float(first["gap"]) == 0.0
        assert first["semigroup_res"] == ""
        assert 0.0 < float(first["top_shell"]) < 1e-3

    def test_semigroup_column_with_horizon(self, tmp_path):
        out = tmp_path / "fock_T.csv"
        assert run(["fock", "--modes", "1:1:0.6,2:2:-0.6", "--ntot", "10",
                    "--kappa-list", "1,4", "--p-list", "0.2",
                    "--epsilon", "1", "--T", "1", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        rows = [dict(zip(lines[1].split(","), ln.split(","))) for ln in lines[2:]]
        residuals = [float(r["semigroup_res"]) for r in rows]
        assert residuals[0] > residuals[1] > 0.0

    def test_bad_mode_string(self):
        assert run(["fock", "--modes", "1:x", "--ntot", "4",
                    "--kappa-list", "1", "--p-list", "0"]) == 2

    def test_basis_guard_is_config_error(self):
        assert run(["fock", "--modes", "1:1:0,1:1:0,1:1:0,1:1:0,1:1:0",
                    "--ntot", "30", "--kappa-list", "1", "--p-list", "0"]) == 2

    def test_semigroup_above_old_dense_limit(self, tmp_path):
        # dim C(72,2) = 2556, past the 2000 states the dense semigroup
        # exponential refused: the matrix-free route runs
        out = tmp_path / "big.csv"
        assert run(["fock", "--modes", "1:1:0.6,2:2:-0.6", "--ntot", "70",
                    "--kappa-list", "1", "--p-list", "0", "--T", "1",
                    "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert 0.0 < float(row["semigroup_res"]) < 1.0

    @staticmethod
    def _count_solves(monkeypatch) -> list:
        from pfwcl import fockdesk
        solved = []
        real = fockdesk.ground_state

        def counted(H):
            solved.append((H.kappa, H.p, H.eps))
            return real(H)

        monkeypatch.setattr(fockdesk, "ground_state", counted)
        return solved

    def test_semigroup_reuses_scan_energy(self, monkeypatch, capsys):
        # the benchmark's semigroup job: dim 1953, two kappa, one p.  The scan
        # solves E_0 and E_p per kappa, basis.ground_vector is solved once, and
        # each semigroup row takes the bottom of its Chebyshev interval from
        # the row's E_p: 5 solves, where solving it again made 7
        from pfwcl import fockdesk
        from pfwcl.cli import fmt
        modes, kappas, p, T = [(1.0, 1.0, 0.6), (2.0, 2.0, -0.6)], [1.0, 2.0], 0.2, 1.0
        solved = self._count_solves(monkeypatch)
        assert run(["fock", "--modes", "1:1:0.6,2:2:-0.6", "--ntot", "61",
                    "--kappa-list", "1,2", "--p-list", "0.2", "--T", "1"]) == 0
        assert len(solved) == 5
        lines = capsys.readouterr().out.splitlines()
        rows = [dict(zip(lines[1].split(","), ln.split(","))) for ln in lines[2:]]
        # the library's own rows: the same bytes from the same 5 solves
        solved.clear()
        basis = fockdesk.build_basis(modes, 61)
        scan = fockdesk.wcl_scan(basis, kappas, [p], 1.0, T=T)
        assert len(solved) == 5
        assert [{c: fmt(v) for c, v in row.items()} for row in scan] == rows
        monkeypatch.undo()
        # and as a residual that solves its own ground state
        assert [r["semigroup_res"] for r in rows] == [
            fmt(fockdesk.semigroup_wcl_residual(basis, kappa, p, T)) for kappa in kappas]

    @pytest.mark.parametrize("T", ["nan", "-1", "inf"])
    def test_bad_horizon_exits_before_scan(self, T, monkeypatch, capsys):
        solved = self._count_solves(monkeypatch)
        assert run(["fock", "--modes", "1:1:0.6,2:2:-0.6", "--ntot", "30",
                    "--kappa-list", "1,2", "--p-list", "0,0.2", "--T", T]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "params.T" in err
        assert solved == []

    @pytest.mark.parametrize("flags, field", [
        (["--kappa-list", "1,nan", "--p-list", "0.2"], "params.kappa_list"),
        (["--kappa-list", "1", "--p-list", "inf"], "params.p_list"),
    ], ids=["kappa_nan", "p_inf"])
    def test_non_finite_lists_exit_before_basis(self, flags, field, monkeypatch, capsys):
        from pfwcl import fockdesk
        built = []
        monkeypatch.setattr(fockdesk, "build_basis", lambda *a: built.append(a))
        assert run(["fock", "--modes", "1:1:0.6,2:2:-0.6", "--ntot", "30", *flags]) == 2
        out, err = capsys.readouterr()
        assert out == "" and field in err
        assert built == []

    @pytest.mark.filterwarnings("error")
    def test_overflowing_hamiltonian_exits_two(self, capsys):
        # the basis is built, then H_kappa(p) at p = 1e200 is refused: no numpy
        # overflow warning, no eigensolver failure, one stderr line
        assert run(["fock", "--modes", "1:1:0.5", "--ntot", "2", "--kappa-list", "1",
                    "--p-list", "1e200", "--output", "-"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "p = 1e+200" in err

    @pytest.mark.parametrize("mode", ["1:1e300", "1:1e200"])
    def test_overflowing_squares_stop_the_eigensolver(self, mode, capsys):
        # g = 1e150 (1e100) puts H's entries near 1e300 (1e200), whose squares
        # overflow: ||r|| read inf at every step, so the solver ran 3,000 steps
        # to "no convergence"; now the norm is taken on a rescaled vector, the
        # solver stops and the residual check refuses
        assert run(["fock", "--modes", mode, "--ntot", "2", "--kappa-list", "1",
                    "--p-list", "0", "--output", "-"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "eigensolver residual" in err and "exceeds 1e-09" in err

    @pytest.mark.parametrize("p", ["1e100", "1e150"])
    def test_large_momentum_converges(self, p, capsys):
        # E_p = p^2 / 2 to the last bit (the rest is O(p) below it); the
        # residual's squares overflowed and the solver ran to "no convergence"
        assert run(["fock", "--modes", "1:1:0.5", "--ntot", "2", "--kappa-list", "1",
                    "--p-list", p, "--output", "-"]) == 0
        lines = capsys.readouterr().out.splitlines()
        row = dict(zip(lines[1].split(","), lines[2].split(",")))
        assert float(row["E_p"]) == float(p) ** 2 / 2

    def test_unreachable_horizon_exits_three(self, monkeypatch, capsys):
        # T = 1e300 hung in Miller's recurrence; now the semigroup refuses it
        # before any Bessel coefficient
        from pfwcl import fockdesk

        def refuse(z):
            raise AssertionError(f"Bessel coefficients summed at z = {z}")

        monkeypatch.setattr(fockdesk, "_bessel_coefficients", refuse)
        assert run(["fock", "--modes", "1:1:0.5", "--ntot", "2", "--kappa-list", "1",
                    "--p-list", "0.2", "--T", "1e300", "--output", "-"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "semigroup: at T = 1e+300" in err

    @pytest.mark.parametrize("eps", ["0", "0.5"])
    def test_horizon_needs_full_fiber(self, eps, capsys):
        # the semigroup residual is computed at epsilon = 1 only
        assert run(["fock", "--modes", "1:3:0.2", "--ntot", "6", "--kappa-list", "1",
                    "--p-list", "0.2", "--epsilon", eps, "--T", "1"]) == 2
        assert "params.epsilon" in capsys.readouterr().err


class TestHermiteCheck:
    def test_emits_json_report(self, tmp_path):
        out = tmp_path / "hermite.json"
        assert run(["hermite-check", "--seed", "7", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert names == {"generating_function_residual", "bound_grid",
                         "recurrence_vs_explicit", "generating_operator_residual"}

    def test_seeds_pass_and_repeat_across_processes(self):
        # S and phi are drawn by the standard library's Mersenne Twister, whose
        # sequence Python fixes; each seed's report repeats byte for byte
        code = ("import contextlib, io, json; from pfwcl.cli import run\n"
                "reports = []\n"
                "for seed in range(51):\n"
                "    out = io.StringIO()\n"
                "    with contextlib.redirect_stdout(out), "
                "contextlib.redirect_stderr(io.StringIO()):\n"
                "        reports.append([run(['hermite-check', '--seed', str(seed)]), "
                "out.getvalue()])\n"
                "print(json.dumps(reports))")
        first, second = (json.loads(run_python(["-c", code])) for _ in range(2))
        assert first == second
        assert [code for code, _ in first] == [0] * 51
        assert all(json.loads(report)["passed"] is True for _, report in first)

    @pytest.mark.parametrize("seed, operator_residual", [
        (0, 1.8479487364755596e-16), (3, 6.075000622166257e-16)])
    def test_report_bytes_pinned(self, capsys, seed, operator_residual):
        # the report's bytes; the two operator residuals are round-off of the
        # Jacobi eigensolver and of math.exp (x86-64), and no numpy loads
        def check(name, value, threshold):
            return {"name": name, "passed": True, "threshold": threshold, "value": value}

        report = {"checks": [
            check("generating_function_residual", 1.1102230246251565e-16, 1e-12),
            check("bound_grid", None, None),
            check("recurrence_vs_explicit", 0.0, 1e-12),
            check("generating_operator_residual", operator_residual, 1e-10)],
            "config": {"format": "json", "measure": None, "params": {}, "seed": seed,
                       "subcommand": "hermite-check"},
            "passed": True}
        assert run(["hermite-check", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == json.dumps(report, sort_keys=True, indent=1) + "\n"


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "pm.json", {"measure": PM_MEASURE})
        outs = []
        for name in ("r1.csv", "r2.csv"):
            path = tmp_path / name
            assert run(["wiener-hopf", "--config", cfg, "--T", "5",
                        "--output", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_config_echo_reproduces_run(self, tmp_path):
        # the echoed config, fed back in, must give identical output
        out1 = tmp_path / "one.csv"
        assert run(["cutoff-scan", "--lambda", "1,10", "--output", str(out1)]) == 0
        echoed = json.loads(out1.read_text().splitlines()[0][len("# config: "):])
        cfg = write_config(tmp_path, "echo.json", {
            "subcommand": echoed["subcommand"],
            "measure": echoed["measure"],
            "params": echoed["params"],
            "seed": echoed["seed"],
            "format": echoed["format"],
        })
        out2 = tmp_path / "two.csv"
        assert run(["cutoff-scan", "--config", cfg, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    ITERATIVE_SCAN = ["fock", "--modes", "1:1:0.6,2:2:-0.6", "--ntot", "90",
                    "--kappa-list", "1,2", "--p-list", "0,0.2"]
    SEMIGROUP = ["fock", "--modes", "1:1:0.6,2:2:-0.6", "--ntot", "30",
                 "--kappa-list", "1,2", "--p-list", "0.2", "--T", "1"]
    SMALL_SEMIGROUP = ["fock", "--modes", "1:1:0.6,2:2:-0.6", "--ntot", "8",
                       "--kappa-list", "1,2", "--p-list", "0,0.2", "--T", "1"]

    def test_iterative_fock_byte_identical_across_processes(self):
        # dim C(92, 2) = 4186 runs on the iterative path; its start vector is
        # seeded, so two fresh interpreters print the same bytes
        outs = [run_python(["-m", "pfwcl.cli", *self.ITERATIVE_SCAN]) for _ in range(2)]
        assert outs[0] == outs[1]

    def test_semigroup_fock_byte_identical_across_processes(self):
        # the Chebyshev series and the iterative norm are deterministic too
        outs = [run_python(["-m", "pfwcl.cli", *self.SEMIGROUP]) for _ in range(2)]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("argv", [ITERATIVE_SCAN, SEMIGROUP, SMALL_SEMIGROUP],
                             ids=["scan_4186", "T_1", "T_1_dim_45"])
    def test_fock_bytes_independent_of_blas_threads(self, argv):
        # the eigensolver reduces in numpy's own loops at every dimension and
        # solves its 3 x 3 projected problem in Python floats: it calls no
        # LAPACK or BLAS, so one thread and the default agree byte for byte
        one = run_python(["-m", "pfwcl.cli", *argv], threads=ONE_THREAD)
        assert one == run_python(["-m", "pfwcl.cli", *argv])
        assert one.count(b"\n") >= 3

    @pytest.mark.parametrize("profile", [{"type": "gaussian", "sigma": 1.0},
                                         {"type": "sharp", "lambda": 1.0}],
                             ids=["gaussian", "sharp"])
    def test_wiener_hopf_bytes_independent_of_blas_threads(self, tmp_path, profile):
        # the realization contracts over the rule's K nodes in numpy's own loops
        # (einsum), never in a threaded BLAS; LAPACK and BLAS see only the
        # r x r matrices of its states (r <= 85 here)
        cfg = write_config(tmp_path, "m.json", {"measure": {"dimension": 3, "profile": profile}})
        argv = ["-m", "pfwcl.cli", "wiener-hopf", "--config", cfg, "--T-ladder", "5,10,20"]
        one, two = (run_python(argv, threads={"OPENBLAS_NUM_THREADS": n}) for n in ("1", "2"))
        assert one == two
        assert one.count(b"\n") == 5

    def test_json_format_mirror(self, tmp_path):
        out = tmp_path / "scan.json"
        assert run(["cutoff-scan", "--lambda", "1,10", "--format", "json",
                    "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"config", "rows"}
        assert [row["lambda"] for row in doc["rows"]] == [1.0, 10.0]
        assert doc["rows"][0]["calE"] == pytest.approx(1.6774049184, rel=1e-9)


def test_cli_import_skips_scipy():
    # no module of the package imports scipy, and the driver alone loads no
    # numeric module: each subcommand imports its own
    code = ("import json, sys, pfwcl.cli; "
            "driver = sorted(m for m in sys.modules if m.startswith('pfwcl')); "
            "import pfwcl.wienerhopf, pfwcl.fockdesk, pfwcl.hermite; "
            "print(json.dumps([driver, sorted(m for m in sys.modules if m.startswith('scipy'))]))")
    driver, scipy = json.loads(run_python(["-c", code]))
    assert driver == ["pfwcl", "pfwcl.cli", "pfwcl.errors", "pfwcl.params"]
    assert scipy == []


def test_lapack_failure_exits_three(tmp_path, capsys, monkeypatch):
    # numpy's LinAlgError is a ValueError: it must not pass for a config error
    import numpy as np

    from pfwcl import wienerhopf

    def fail(matrix):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(wienerhopf, "cho_factor", fail)
    cfg = write_config(tmp_path, "pm.json", {"measure": PM_MEASURE})
    assert run(["wiener-hopf", "--config", cfg, "--T", "5"]) == 3
    err = capsys.readouterr().err
    assert "wiener-hopf: numerical failure: Matrix is not positive definite" in err


def test_non_finite_eigensolver_exits_three(capsys, monkeypatch):
    # H products turn NaN after the third: the solve stops at that step
    from pfwcl import fockdesk
    real, products = fockdesk.FiberHamiltonian.__matmul__, []

    def spoiled(H, v):
        products.append(None)
        return real(H, v) * (math.nan if len(products) > 3 else 1.0)

    monkeypatch.setattr(fockdesk.FiberHamiltonian, "__matmul__", spoiled)
    assert run(["fock", "--modes", "1:1:0.6,2:2:-0.6", "--ntot", "20",
                "--kappa-list", "1", "--p-list", "0.2"]) == 3
    err = capsys.readouterr().err
    assert "fock: numerical failure: eigensolver failed at step" in err
    assert len(products) <= 4


@pytest.mark.parametrize("argv", [
    ["fock", "--modes", "1:1:0.6,2:2:-0.6", "--ntot", "20", "--kappa-list", "1,2",
     "--p-list", "0,0.2"],
    ["fock", "--modes", "1:1:0.6,2:2:-0.6", "--ntot", "20", "--kappa-list", "1,2",
     "--p-list", "0.2", "--T", "1"]], ids=["fock_scan", "fock_T_1"])
def test_fock_calls_no_lapack(argv, monkeypatch, capsys):
    # the 3 x 3 Rayleigh-Ritz problems are solved by the Jacobi method in
    # Python floats
    import numpy as np

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg called")

    for name in ("eigh", "eigvalsh", "svd", "solve", "cholesky", "norm"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert run(argv) == 0


@pytest.mark.parametrize("module", ["fockdesk.py", "hermite.py", "jacobi.py"])
def test_no_linalg_or_array_matmul_in_source(module):
    # what the monkeypatched run cannot see: no numpy.linalg name at all, and
    # every @ in the Fock desk applies one of its operator objects (gather
    # tables and fiber Hamiltonians), never a BLAS product of arrays
    import ast
    tree = ast.parse((Path(pfwcl.__file__).parent / module).read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any("linalg" in str(name) for name in names)
    left = [node.left for node in ast.walk(tree)
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)]
    assert all(isinstance(x, ast.Name) and x.id in {"kA", "abs_kA", "twice_S"} for x in left)


def numpy_after(argv) -> list:
    """[exit code, numpy loaded, stdout, stderr] of a fresh interpreter after
    ``run(argv)``; ``argv`` None only imports the driver."""
    call = "None" if argv is None else f"run({argv!r})"
    code = ("import contextlib, io, json, sys; from pfwcl.cli import run\n"
            "out, err = io.StringIO(), io.StringIO()\n"
            "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            f"    try:\n        code = {call}\n"
            "    except SystemExit as exc:\n        code = exc.code\n"
            "print(json.dumps([code, 'numpy' in sys.modules, out.getvalue(), err.getvalue()]))")
    return json.loads(run_python(["-c", code]))


@pytest.mark.parametrize("argv", [None] + [[sub, "--help"] for sub in (
    "validate", "energy", "cutoff-scan", "wiener-hopf", "fock", "hermite-check")],
    ids=lambda argv: "import" if argv is None else argv[0])
def test_help_loads_no_numpy(argv):
    assert numpy_after(argv)[:2] == [None if argv is None else 0, False]


@pytest.mark.parametrize("argv, field", [
    (FOCK_ARGS + ["--ntot", "4", "--kappa-list", "nan"], "params.kappa_list"),
    (FOCK_ARGS + ["--config", "{ntot_frac}"], "params.ntot"),
    (["cutoff-scan", "--lambda", "inf"], "params.lambdas"),
    (["hermite-check", "--seed", "-1"], "seed must be"),
    (["validate", "--config", "{cfg}", "--seed", "abc"], "seed must be"),
    (["wiener-hopf", "--config", "{cfg}"], "needs --T or --T-ladder"),
    (["wiener-hopf", "--config", "{cfg}", "--T", "5", "--T-ladder", "10,20"],
     "needs --T or --T-ladder, not both"),
    (["wiener-hopf", "--config", "{both_horizons}"], "needs --T or --T-ladder, not both"),
    (["energy", "--config", "{cfg}", "--kappa", "nan"], "params.kappa"),
    (["wiener-hopf", "--config", "{cfg}", "--T", "inf"], "params.T"),
    (["wiener-hopf", "--config", "{cfg}", "--T-ladder", "10,5"], "params.T_ladder"),
    (["wiener-hopf", "--config", "{cfg}", "--T", "5", "--kappa", "-1"], "params.kappa"),
    (["energy", "--config", "{cfg}", "--kappa", "1e200"], "params.kappa"),
    (["wiener-hopf", "--config", "{cfg}", "--T", "5", "--kappa", "1e200"], "params.kappa"),
    (FOCK_ARGS + ["--ntot", "4", "--kappa-list", "1,1e200"], "params.kappa_list"),
    (["energy", "--config", "{cfg}", "--p", "1e200"], "params.p"),
    (["wiener-hopf", "--config", "{cfg}", "--T", "5", "--p", "1e200"], "params.p"),
    (["validate", "--config", "{tiny_lambda}"], "profile.lambda"),
    (["validate", "--config", "{tiny_first_radius}"], "profile.points"),
    (["fock", "--config", "{modes_one_field}"], "params.modes"),
    (["fock", "--config", "{modes_four_fields}"], "params.modes"),
    (["fock", "--config", "{modes_empty}"], "params.modes"),
    (["fock", "--config", "{kappa_list_empty}"], "params.kappa_list"),
    (["fock", "--config", "{kappa_list_scalar}"], "params.kappa_list"),
    (["validate", "--config", "{lambda_1e-100}"], "profile.lambda"),
    (["validate", "--config", "{lambda_1e-120}"], "profile.lambda"),
    (["validate", "--config", "{lambda_1e-280}"], "profile.lambda"),
    (["validate", "--config", "{sigma_1e-100}"], "profile.sigma"),
    (["energy", "--config", "{tiny_edge}"], "profile.points"),
    (["wiener-hopf", "--config", "{lambda_1e-100}", "--T", "5"], "profile.lambda"),
    (FOCK_ARGS + ["--ntot", "0"], "params.ntot"),
    (["fock", "--modes", "0:1", "--ntot", "4", "--kappa-list", "1", "--p-list", "0"],
     "params.modes"),
    (["fock", "--modes", "1e-200:1", "--ntot", "4", "--kappa-list", "1", "--p-list", "0"],
     "params.modes"),
    (FOCK_ARGS + ["--ntot", "4", "--epsilon", "0.5", "--T", "1"], "params.epsilon"),
], ids=["fock_kappa_nan", "fock_ntot_3.7", "cutoff_inf", "hermite_seed",
        "validate_seed_flag_abc", "wh_no_horizon", "wh_T_and_ladder_flags",
        "wh_T_and_ladder_config", "energy_kappa_nan", "wh_T_inf", "wh_ladder_decreasing", "wh_kappa_negative",
        "energy_kappa_squared_inf", "wh_kappa_squared_inf", "fock_kappa_squared_inf",
        "energy_p_squared_inf", "wh_p_squared_inf",
        "validate_tiny_lambda", "validate_tiny_first_radius", "fock_modes_one_field",
        "fock_modes_four_fields", "fock_modes_empty", "fock_kappa_list_empty",
        "fock_kappa_list_scalar", "validate_lambda_1e-100", "validate_lambda_1e-120",
        "validate_lambda_1e-280", "validate_sigma_1e-100", "energy_tiny_edge",
        "wh_lambda_1e-100", "fock_ntot_0", "fock_omega_0",
        "fock_omega_squared_underflows", "fock_T_needs_full_fiber"])
def test_params_error_loads_no_numpy(tmp_path, argv, field):
    # the driver checks its params, and the measure its edges and scale, on the
    # standard library, before a handler imports a numeric module, and writes no row
    fock = {key: {"params": {**FOCK_PARAMS, **params}} for key, params in (
        ("modes_one_field", {"modes": [[1]]}), ("modes_four_fields", {"modes": [[1, 1, 0.5, 7]]}),
        ("modes_empty", {"modes": []}), ("kappa_list_empty", {"kappa_list": []}),
        ("kappa_list_scalar", {"kappa_list": 3}))}
    paths = {"cfg": write_config(tmp_path, "pm.json", {"measure": PM_MEASURE}),
             "ntot_frac": write_config(tmp_path, "ntot.json", {"params": {"ntot": 3.7}}),
             "both_horizons": write_config(tmp_path, "both.json", {
                 "measure": PM_MEASURE, "params": {"T": 5, "T_ladder": [10, 20]}}),
             **{key: write_config(tmp_path, f"{key}.json", cfg) for key, cfg in fock.items()},
             **non_finite_configs(tmp_path)}
    code, numpy, out, err = numpy_after([arg.format(**paths) for arg in argv])
    assert [code, numpy, out] == [2, False, ""]
    assert field in err


@pytest.mark.parametrize("argv, config, message", [
    (["wiener-hopf", "--T", "5"], None, "cannot read config"),
    (["wiener-hopf", "--T", "5"], "{", "is not valid JSON"),
    (["wiener-hopf", "--T", "5"], "[]", "config must be a JSON object"),
    (["wiener-hopf", "--T", "5"], '{"params": []}', "config 'params' must be an object"),
    (["wiener-hopf", "--T", "5"], '{"subcommand": "energy"}',
     "config is for subcommand 'energy', not 'wiener-hopf'"),
    (["wiener-hopf", "--T", "5"], '{"format": "xml"}', "format must be csv or json, got 'xml'"),
    (["fock"], '{"params": {}}', "fock needs --modes or params.modes"),
    (["validate"], '{"seed": "abc"}', "seed must be a nonnegative integer, got 'abc'"),
    (["hermite-check", "--format", "csv"], "{}", "format must be json, got 'csv'"),
    (["hermite-check"], '{"format": "csv"}', "format must be json, got 'csv'"),
], ids=["unreadable", "invalid_json", "not_an_object", "params_not_an_object",
        "other_subcommand", "format_xml", "missing_required_param", "validate_seed_abc",
        "hermite_format_csv_flag", "hermite_format_csv_config"])
def test_config_refusal_loads_no_numpy(tmp_path, argv, config, message):
    # a config the driver cannot use exits 2 naming the problem, before a
    # handler imports a numeric module; a directory stands for an unreadable file
    path = tmp_path / "config.json"
    if config is None:
        path.mkdir()
    else:
        path.write_text(config)
    code, numpy, out, err = numpy_after([*argv, "--config", str(path)])
    assert [code, numpy, out] == [2, False, ""]
    assert message in err


def loaded_modules(argv) -> set:
    """The modules a fresh interpreter holds after ``pfwcl.cli.run(argv)``
    exits 0 (a ``--help`` by ``SystemExit``), its data written to the null
    device."""
    code = ("import contextlib, io, json, os, sys; from pfwcl.cli import run\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    try:\n        code = run({[*argv, '--output', os.devnull]!r})\n"
            "    except SystemExit as exc:\n        code = exc.code\n"
            "print(json.dumps([code, sorted(sys.modules)]))")
    code, modules = json.loads(run_python(["-c", code]))
    assert code == 0
    return set(modules)


SPECTRAL_MODULES = {"pfwcl.cutoff", "pfwcl.energy", "pfwcl.formfactor", "pfwcl.quadrature"}
#: dataclasses and the modules its import loads that nothing else here needs
DATACLASS_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


@pytest.mark.parametrize("horizon", [[], ["--T", "1"]], ids=["scan", "T_1"])
def test_fock_loads_only_the_fock_desk(horizon):
    # the start vector comes from the standard library, not numpy.random, and
    # the semigroup's Bessel coefficients run in doubles, without decimal
    loaded = loaded_modules(["fock", "--modes", "1:1:0.6,2:2:-0.6", "--ntot", "20",
                             "--kappa-list", "1", "--p-list", "0.2", *horizon])
    assert {"pfwcl.fockdesk", "pfwcl.normalmodes"} <= loaded
    assert not loaded & {"numpy.random", "pfwcl.hermite", *SPECTRAL_MODULES}
    assert "decimal" not in loaded


def test_hermite_check_loads_no_spectral_module():
    # its --seed draws come from the standard library, not numpy.random
    loaded = loaded_modules(["hermite-check", "--seed", "3"])
    assert "pfwcl.hermite" in loaded and "numpy.random" not in loaded
    assert not loaded & SPECTRAL_MODULES
    assert "dataclasses" not in loaded


def test_hermite_check_loads_no_numpy():
    assert numpy_after(["hermite-check", "--seed", "3"])[:2] == [0, False]


def test_energy_loads_no_numpy(tmp_path):
    # the t-integrands sum the radial rule's floats
    cfg = write_config(tmp_path, "gauss.json", {"measure": GAUSSIAN_MEASURE})
    assert numpy_after(["energy", "--config", cfg, "--kappa", "2", "--p", "0.5"])[:2] == [0, False]


@pytest.mark.parametrize("argv", [["--help"]] + [[sub, "--help"] for sub in (
    "validate", "energy", "cutoff-scan", "wiener-hopf", "fock", "hermite-check")],
    ids=lambda argv: argv[0])
def test_help_loads_no_dataclasses(argv):
    # dataclasses loads inspect, ast, dis and tokenize; among the subcommands
    # only wiener-hopf and fock, whose numeric modules declare dataclasses, need it
    assert "dataclasses" not in loaded_modules(argv)


def parse_outcome(parse, argv, capsys) -> tuple:
    """(exit code, stdout, stderr) of a parse that ends in ``SystemExit``."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


@pytest.mark.parametrize("argv", [["--help"], [], ["bogus"], ["-h", "energy"]]
                         + [[sub, "--help"] for sub in COMMANDS]
                         + [[sub, "--bogus"] for sub in COMMANDS]
                         + [["energy", "--format", "xml"], ["fock", "--ntot"]],
                         ids=lambda argv: " ".join(argv) or "no-subcommand")
def test_one_subparser_prints_what_the_full_parser_prints(argv, capsys):
    # run builds only the named subcommand's subparser: its help, usage and
    # errors are the full parser's bytes and exit codes
    full = parse_outcome(lambda a: build_parser().parse_args(a), argv, capsys)
    assert parse_outcome(run, argv, capsys) == full


def test_run_builds_only_its_subparser(monkeypatch):
    from pfwcl import cli
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda only=None: built.append(only) or real(only))
    assert run(["cutoff-scan", "--lambda", "1", "--output", os.devnull]) == 0
    with pytest.raises(SystemExit):
        run(["bogus"])
    assert built == ["cutoff-scan", None]


GAUSSIAN_MEASURE = {"dimension": 3, "profile": {"type": "gaussian", "sigma": 1.0}}


@pytest.mark.parametrize("argv", [
    ["validate", "--config", "{gaussian}"],
    ["energy", "--config", "{gaussian}", "--kappa", "1", "--p", "0.5"],
    ["cutoff-scan", "--lambda", "1,10"],
    ["hermite-check", "--seed", "3"],
    ["wiener-hopf", "--config", "{gaussian}", "--T-ladder", "5,10", "--p", "0.3"],
    ["fock", "--modes", "1:1:0.6,2:2:-0.6", "--ntot", "8", "--kappa-list", "1",
     "--p-list", "0.2", "--T", "1"],
], ids=lambda argv: argv[0])
def test_no_subcommand_loads_numpy_random_or_polynomial(tmp_path, argv):
    # Gauss-Legendre rules come from quadrature's own Newton iteration and
    # every seeded draw from the standard library
    cfg = write_config(tmp_path, "gauss.json", {"measure": GAUSSIAN_MEASURE})
    loaded = loaded_modules([arg.format(gaussian=cfg) for arg in argv])
    assert not loaded & {"numpy.random", "numpy.polynomial"}
    # both pipelines read their normal modes from one solver
    assert ("pfwcl.normalmodes" in loaded) == (argv[0] in ("wiener-hopf", "fock"))
    # the small symmetric eigenproblems of fock and hermite-check
    assert ("pfwcl.jacobi" in loaded) == (argv[0] in ("hermite-check", "fock"))
    # wiener-hopf reads its targets from the realization: no t-quadrature
    assert ("pfwcl.energy" in loaded) == (argv[0] == "energy")


def test_validate_loads_neither_energy_nor_hermite(tmp_path):
    cfg = write_config(tmp_path, "pm.json", {"measure": PM_MEASURE})
    loaded = loaded_modules(["validate", "--config", cfg])
    assert "pfwcl.formfactor" in loaded
    assert not loaded & {"pfwcl.energy", "pfwcl.hermite"}


STDLIB_PROFILES = {
    "sharp": {"type": "sharp", "lambda": 1.5},
    "gaussian": {"type": "gaussian", "sigma": 0.8},
    "tabulated": {"type": "tabulated",
                  "points": [[0.25, 0.0], [0.7, 0.9], [1.3, 0.4], [1.8, 0.0]]},
    "point_masses": {"type": "point_masses", "atoms": [[1.0, 3.0], [2.5, 0.7]]},
}
#: runs of the subcommands on the standard library: validate, energy, cutoff-scan
#: and hermite-check
STDLIB_RUNS = [[sub, "--config", kind] for sub in ("validate", "energy")
               for kind in STDLIB_PROFILES] + [
    ["cutoff-scan", "--lambda", "0.5,1,10,1e4"],
    ["hermite-check", "--seed", "0"], ["hermite-check", "--seed", "3"]]


def stdlib_argv(tmp_path, argv) -> list:
    """``argv`` with a profile name after ``--config`` replaced by its config file."""
    return [write_config(tmp_path, f"{arg}.json", {"measure": {"dimension": 3,
                                                               "profile": STDLIB_PROFILES[arg]}})
            if arg in STDLIB_PROFILES else arg for arg in argv]


@pytest.mark.parametrize("argv", STDLIB_RUNS, ids=lambda argv: argv[0] + "-" + argv[-1])
def test_validate_and_cutoff_scan_load_no_numpy(tmp_path, argv):
    # the radial rule, its moments, the quadrature, the t- and E(Lambda)
    # integrands and the Hermite suite run on the standard library
    loaded = loaded_modules(stdlib_argv(tmp_path, argv))
    assert "numpy" not in loaded
    assert ("pfwcl.quadrature" in loaded) == (argv[0] != "hermite-check")
    # the measures, moment reports and energy results are plain classes and
    # named tuples: nothing loads dataclasses or the modules it imports
    assert not loaded & DATACLASS_MODULES


@pytest.mark.parametrize("argv", STDLIB_RUNS, ids=lambda argv: argv[0] + "-" + argv[-1])
def test_validate_and_cutoff_scan_run_without_numpy(tmp_path, argv):
    # with every numpy import blocked, the run exits 0 (run_python raises
    # otherwise) and prints the bytes of an unblocked run
    argv = stdlib_argv(tmp_path, argv) + ["--output", "-"]
    blocked = run_python(["-c", "import sys; sys.modules['numpy'] = None; "
                          "from pfwcl.cli import main; sys.argv[1:] = " + repr(argv) + "; main()"])
    assert blocked == run_python(["-m", "pfwcl.cli", *argv])
    assert blocked.count(b"\n") >= 3


def test_early_closed_stdout_exits_0_quietly():
    # a reader that stops after one line (``| head -1``) leaves a good run
    # good: exit 0, and no BrokenPipeError traceback on stderr
    lambdas = ",".join(str(1 + k) for k in range(200))
    proc = subprocess.Popen([sys.executable, "-m", "pfwcl.cli", "cutoff-scan",
                             "--lambda", lambdas], env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"# config: ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert [proc.wait(), err] == [0, b""]


def test_wiener_hopf_runs_without_scipy(tmp_path):
    # sys.modules["scipy"] = None makes every scipy import fail; run_python
    # raises unless the process exits 0
    cfg = write_config(tmp_path, "pm.json", {"measure": PM_MEASURE})
    argv = ["wiener-hopf", "--config", cfg, "--T-ladder", "10,20", "--p", "0.3",
            "--output", "-"]
    blocked = run_python(["-c", "import sys; sys.modules['scipy'] = None; "
                          "from pfwcl.cli import main; sys.argv[1:] = " + repr(argv) + "; main()"])
    assert blocked == run_python(["-m", "pfwcl.cli", *argv])
    assert blocked.count(b"\n") >= 4


def test_fock_runs_without_scipy():
    # with every scipy import blocked, fock exits 0 (run_python raises
    # otherwise) and prints the bytes of an unblocked run, iterative solves and
    # semigroup column included
    argv = ["fock", "--modes", "1:1:0.6,2:2:-0.6", "--ntot", "30", "--kappa-list", "1,2",
            "--p-list", "0,0.2", "--T", "1", "--output", "-"]
    blocked = run_python(["-c", "import sys; sys.modules['scipy'] = None; "
                          "from pfwcl.cli import main; sys.argv[1:] = " + repr(argv) + "; main()"])
    assert blocked == run_python(["-m", "pfwcl.cli", *argv])
    assert blocked.count(b"\n") >= 5


@pytest.mark.parametrize("argv, params, key, expected", [
    (["energy", "--kappa", "2"], {"kappa": 0.5}, "kappa", 2.0),
    (["cutoff-scan", "--lambda", "3,4"], {"lambdas": [1.0]}, "lambdas", [3.0, 4.0]),
    (["fock", "--modes", "1:3", "--ntot", "4", "--kappa-list", "1", "--p-list", "0"],
     {"modes": [[2.0, 1.0, 0.0]]}, "modes", [[1.0, 3.0, 0.0]]),
])
def test_flag_overrides_config_param(tmp_path, argv, params, key, expected):
    cfg = write_config(tmp_path, "cfg.json", {"measure": PM_MEASURE, "params": params})
    out = tmp_path / "out.json"
    assert run([*argv, "--config", cfg, "--format", "json", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["params"][key] == expected


@pytest.mark.parametrize("argv, params", [
    (["energy", "--kappa", "1", "--p", "0.5"], {"kappa": 1, "p": 0.5}),
    (["cutoff-scan", "--lambda", "1,10"], {"lambdas": [1, 10]}),
    (["wiener-hopf", "--T-ladder", "5,10", "--kappa", "1", "--p", "0.3"],
     {"T_ladder": [5, 10], "kappa": 1, "p": 0.3}),
    (["fock", "--modes", "1:1:0.6,2:2", "--ntot", "8", "--kappa-list", "1,2",
      "--p-list", "0,0.2", "--T", "1"],
     {"modes": [[1, 1, 0.6], [2, 2]], "ntot": 8, "kappa_list": [1, 2], "p_list": [0, 0.2],
      "T": 1}),
], ids=["energy", "cutoff-scan", "wiener-hopf", "fock"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_flags_and_config_print_identical_bytes(tmp_path, capsys, argv, params, fmt):
    # one converter per param: integer config values and flag text resolve to
    # the same typed values, so the echoed config and every row agree
    bare = write_config(tmp_path, "bare.json", {"measure": PM_MEASURE})
    full = write_config(tmp_path, "full.json", {"measure": PM_MEASURE, "params": params})
    outs = []
    for args in ([*argv, "--config", bare], [argv[0], "--config", full]):
        assert run([*args, "--format", fmt, "--output", "-"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) >= 3


def non_finite_configs(tmp_path) -> dict:
    """Configs whose measure holds NaN or Infinity, which json.load accepts,
    finite points whose moments overflow a double, a first edge at the
    origin whose innermost panel edge underflows, radii whose ratio overflows,
    or a sharp or gaussian scale whose moments underflow on the rule."""
    def measure(points, dimension=3):
        return {"measure": {"dimension": dimension,
                            "profile": {"type": "tabulated", "points": points}}}

    def profile(**fields):
        return {"measure": {"dimension": 3, "profile": fields}}

    good = [[0.0, 1.0], [1.0, 0.5], [2.0, 0.0]]
    configs = {"nan_value": measure([[0.0, 1.0], [1.0, math.nan], [2.0, 0.0]]),
               "inf_value": measure([[0.0, 1.0], [1.0, math.inf], [2.0, 0.0]]),
               "nan_radius": measure([[0.0, 1.0], [math.nan, 0.5], [2.0, 0.0]]),
               "inf_radius": measure([[0.0, 1.0], [1.0, 0.5], [math.inf, 0.0]]),
               "nan_dimension": measure(good, math.nan),
               "inf_dimension": measure(good, math.inf),
               "overflow_value": measure([[0.0, 1e200], [1.0, 0.0]]),
               "overflow_radius": measure([[0.0, 1.0], [1e200, 1.0]]),
               "tiny_lambda": profile(type="sharp", **{"lambda": 1e-300}),
               "tiny_sigma": profile(type="gaussian", sigma=1e-300),
               "tiny_edge": measure([[0.0, 1.0], [1e-300, 1.0], [1.0, 0.0]]),
               "tiny_first_radius": measure([[1e-320, 1.0], [1.0, 0.0]]),
               **{f"lambda_{lam!r}": profile(type="sharp", **{"lambda": lam})
                  for lam in (1e-100, 1e-120, 1e-280)},
               "sigma_1e-100": profile(type="gaussian", sigma=1e-100)}
    return {key: write_config(tmp_path, f"{key}.json", cfg) for key, cfg in configs.items()}


@pytest.mark.parametrize("argv", [
    FOCK_ARGS + ["--ntot", "0"],
    FOCK_ARGS + ["--ntot", "4", "--epsilon", "2"],
    FOCK_ARGS + ["--ntot", "4", "--kappa-list", ","],
    FOCK_ARGS + ["--ntot", "4", "--kappa-list", "a"],
    ["wiener-hopf", "--config", "{cfg}", "--T", "-1"],
    ["wiener-hopf", "--config", "{cfg}", "--T-ladder", "10,5"],
    ["wiener-hopf", "--config", "{cfg}", "--T-ladder", "5,x"],
    ["wiener-hopf", "--config", "{cfg}", "--T-ladder", ",", "--p", "1"],
    ["energy", "--config", "{bad_cfg}"],
    ["validate", "--config", "{cfg}", "--output", "{missing}"],
    ["cutoff-scan", "--lambda", "inf"],
    ["cutoff-scan", "--lambda", "2,nan"],
    ["validate", "--config", "{nan_value}"],
    ["validate", "--config", "{inf_value}"],
    ["energy", "--config", "{nan_value}"],
    ["validate", "--config", "{nan_radius}"],
    ["energy", "--config", "{inf_radius}"],
    ["validate", "--config", "{nan_dimension}"],
    ["energy", "--config", "{inf_dimension}"],
    ["validate", "--config", "{overflow_value}"],
    ["validate", "--config", "{overflow_radius}"],
    ["wiener-hopf", "--config", "{overflow_value}", "--T", "5"],
    ["energy", "--config", "{cfg}", "--kappa", "nan"],
    ["energy", "--config", "{cfg}", "--kappa", "-1"],
    ["wiener-hopf", "--config", "{cfg}", "--T", "inf"],
    ["wiener-hopf", "--config", "{cfg}", "--T", "0"],
    ["wiener-hopf", "--config", "{cfg}", "--T", "5", "--kappa", "inf"],
    ["wiener-hopf", "--config", "{cfg}", "--T-ladder", "5,inf"],
    ["wiener-hopf", "--config", "{cfg}", "--T-ladder", "0,5"],
    ["energy", "--config", "{cfg}", "--kappa", "1e200"],
    ["wiener-hopf", "--config", "{cfg}", "--T", "5", "--kappa", "1e200"],
    FOCK_ARGS + ["--ntot", "4", "--kappa-list", "1e200"],
    ["validate", "--config", "{tiny_lambda}"],
    ["validate", "--config", "{tiny_sigma}"],
    ["energy", "--config", "{tiny_edge}"],
    ["validate", "--config", "{tiny_first_radius}"],
], ids=" ".join)
def test_bad_input_exits_two(tmp_path, capsys, argv):
    paths = {"cfg": write_config(tmp_path, "pm.json", {"measure": PM_MEASURE}),
             "bad_cfg": write_config(tmp_path, "bad.json",
                                     {"measure": PM_MEASURE, "params": {"kappa": "abc"}}),
             "missing": str(tmp_path / "no_such_dir" / "x.csv"),
             **non_finite_configs(tmp_path)}
    assert run([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    if "{missing}" in argv:
        assert paths["missing"] in err


@pytest.mark.parametrize("ntot", ["16", "24", "30"])     # dim 153, 325, 496
@pytest.mark.parametrize("flags, field", [
    (["--modes", "1:1:nan,2:2:0", "--kappa-list", "1", "--p-list", "0.2"], "params.modes"),
    (["--modes", "1:1:0.6,2:2:-0.6", "--kappa-list", "nan", "--p-list", "0.2"],
     "params.kappa_list"),
    (["--modes", "1:1:0.6,2:2:-0.6", "--kappa-list", "1", "--p-list", "inf"], "params.p_list"),
], ids=["flags0-mode momentum", "flags1-kappa", "flags2-p"])
def test_non_finite_fock_input_names_its_field(capsys, ntot, flags, field):
    # at every size: refused as input, not a numerical failure of the solver
    assert run(["fock", "--ntot", ntot, *flags]) == 2
    assert f"configuration error: {field}: must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("params, flags, field", [
    ({"ntot": 3.7}, [], "params.ntot: must be an integer"),
    ({"ntot": True}, [], "params.ntot: must be an integer"),
    ({}, ["--kappa-list", "1,-1"], "params.kappa_list: must be >= 0"),
    ({}, ["--kappa-list", "1e200"], "params.kappa_list: kappa^2 must be finite"),
    ({}, ["--epsilon", "nan"], "params.epsilon: must lie in [0, 1]"),
    ({}, ["--epsilon", "2"], "params.epsilon: must lie in [0, 1]"),
    ({"modes": [[1]]}, [], "params.modes: a mode is omega:W[:q]"),
    ({"modes": [[1, 1, 0.5, 7]]}, [], "params.modes: a mode is omega:W[:q]"),
    ({"modes": []}, [], "params.modes: must not be empty"),
    ({"kappa_list": []}, [], "params.kappa_list: must not be empty"),
    ({"kappa_list": 3}, [], "params.kappa_list: must be a list"),
    ({}, ["--ntot", "0"], "params.ntot: must be >= 1"),
    ({}, ["--modes", "0:1"], "params.modes: a mode needs omega > 0"),
    ({}, ["--modes", "1:-1"], "params.modes: a mode needs omega > 0, W >= 0"),
    ({}, ["--modes", "1e-200:1"], "params.modes: a mode needs omega > 0, W >= 0 and "
                                  "W/omega^2 finite, got '1e-200:1'"),
], ids=["ntot_3.7", "ntot_true", "kappa_negative", "kappa_squared_inf", "epsilon_nan",
        "epsilon_2", "modes_one_field", "modes_four_fields", "modes_empty",
        "kappa_list_empty", "kappa_list_scalar", "ntot_0", "omega_0", "weight_negative",
        "omega_squared_underflows"])
def test_bad_fock_param_names_its_field(tmp_path, capsys, monkeypatch, params, flags, field):
    # refused before the basis is built: A -> -A maps kappa to -kappa, so a
    # negative kappa would print the numbers of |kappa|
    from pfwcl import fockdesk
    built = []
    monkeypatch.setattr(fockdesk, "build_basis", lambda *a: built.append(a))
    cfg = write_config(tmp_path, "fock.json", {"params": {**FOCK_PARAMS, **params}})
    assert run(["fock", "--config", cfg, *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"configuration error: {field}" in err
    assert built == []


def test_negative_seed_names_its_field(capsys):
    assert run(["hermite-check", "--seed", "-1"]) == 2
    assert "configuration error: seed must be a nonnegative integer" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [3.7, True])
def test_config_seed_must_be_an_integer(tmp_path, capsys, seed):
    # int() would run 3.7 as seed 3 while the report echoes 3.7
    cfg = write_config(tmp_path, "seed.json", {"seed": seed})
    assert run(["hermite-check", "--config", cfg]) == 2
    assert "configuration error: seed must be a nonnegative integer" in capsys.readouterr().err


def test_config_seed_echoes_as_an_integer(tmp_path, capsys):
    # every subcommand converts its seed once: a config seed of 3.0 echoes 3
    cfg = write_config(tmp_path, "seed.json", {"measure": PM_MEASURE, "seed": 3.0})
    assert run(["validate", "--config", cfg]) == 0
    assert '"seed":3,' in capsys.readouterr().out.splitlines()[0]


@pytest.mark.parametrize("argv, field", [
    (["cutoff-scan", "--lambda", "inf"], "params.lambdas"),
    (["validate", "--config", "{nan_value}"], "tabulated values"),
    (["validate", "--config", "{inf_radius}"], "tabulated radii"),
    (["energy", "--config", "{nan_dimension}"], "dimension"),
    (["energy", "--config", "{overflow_radius}"], "profile moments"),
    (["energy", "--config", "{cfg}", "--p", "nan"], "params.p"),
    (["energy", "--config", "{cfg}", "--p", "inf"], "params.p"),
    (["wiener-hopf", "--config", "{cfg}", "--T", "5", "--p", "nan"], "params.p"),
    (["energy", "--config", "{cfg}", "--kappa", "nan"], "params.kappa"),
    (["wiener-hopf", "--config", "{cfg}", "--T", "5", "--kappa", "-1"], "params.kappa"),
    (["wiener-hopf", "--config", "{cfg}", "--T", "inf"], "params.T"),
    (["wiener-hopf", "--config", "{cfg}", "--T-ladder", "5,inf"], "params.T_ladder"),
    (["wiener-hopf", "--config", "{cfg}", "--T-ladder", "10,5"], "params.T_ladder"),
    (["energy", "--config", "{cfg}", "--kappa", "1e200"], "params.kappa"),
    (["wiener-hopf", "--config", "{cfg}", "--T", "5", "--kappa", "1e200"], "params.kappa"),
    (["validate", "--config", "{tiny_lambda}"], "profile.lambda"),
    (["validate", "--config", "{tiny_sigma}"], "profile.sigma"),
    (["validate", "--config", "{tiny_edge}"], "profile.points[1]"),
])
def test_non_finite_input_names_its_field(tmp_path, capsys, argv, field):
    paths = {"cfg": write_config(tmp_path, "pm.json", {"measure": PM_MEASURE}),
             **non_finite_configs(tmp_path)}
    assert run([arg.format(**paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert f"configuration error: {field}" in err and "must be" in err
    assert out == ""          # refused before any row is written


@pytest.mark.parametrize("profile, field", [
    ({"type": "tabulated", "points": [[0, 1], [1, "x"], [2, 0]]}, "profile.points[1]"),
    ({"type": "tabulated", "points": [[0, 1], [1]]}, "profile.points[1]"),
    ({"type": "point_masses", "atoms": [[1, "y"]]}, "profile.atoms[0]"),
    ({"type": "point_masses", "atoms": [[1]]}, "profile.atoms[0]"),
    ({"type": "point_masses", "atoms": {"a": 1}}, "profile.atoms"),
    ({"type": "point_masses", "atoms": [{"omega": 1, "weight": 2}, {"omega": "z", "weight": 1}]},
     "profile.atoms[1]"),
    ({"type": "sharp", "lambda": "abc"}, "profile.lambda"),
    ({"type": "gaussian", "sigma": None}, "profile.sigma"),
])
def test_malformed_measure_names_its_field(tmp_path, capsys, profile, field):
    cfg = write_config(tmp_path, "m.json", {"measure": {"dimension": 3, "profile": profile}})
    assert run(["validate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {field} must be" in err


@pytest.mark.parametrize("argv, key", [
    (["energy"], "kappa"),
    (["wiener-hopf", "--T", "5"], "p"),
    (FOCK_ARGS, "ntot"),
    (FOCK_ARGS + ["--ntot", "4"], "epsilon"),
])
def test_bad_param_names_its_field(tmp_path, capsys, argv, key):
    cfg = write_config(tmp_path, "cfg.json", {"measure": PM_MEASURE, "params": {key: "abc"}})
    assert run([*argv, "--config", cfg]) == 2
    assert f"configuration error: params.{key}: " in capsys.readouterr().err


def test_wiener_hopf_vacuum_rate_from_ladder_row(tmp_path, capsys):
    # the amplitude itself underflows to 0 here; the rate comes from the row
    cfg = write_config(tmp_path, "pm.json", {"measure": PM_MEASURE})
    out = tmp_path / "wh.csv"
    assert run(["wiener-hopf", "--config", cfg, "--T", "20", "--p", "20",
                "--output", str(out)]) == 0
    header, row = out.read_text().splitlines()[1:3]
    cells = {k: float(v) for k, v in zip(header.split(","), row.split(","))}
    err = capsys.readouterr().err
    rate = float(err.split("vacuum_amplitude = ")[1].split()[0])
    expected = 0.5 * cells["logdet_per_T"] + 0.5 * 20.0**2 * cells["mass_fn"]
    assert rate == pytest.approx(expected, rel=1e-12)


def test_readme_command_examples_run(tmp_path, monkeypatch):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("pfwcl ")]
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(
        section.split("```json", 1)[1].split("```", 1)[0])
    for argv in commands:
        assert run(argv) == 0, argv
