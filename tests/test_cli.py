"""Report contract of the command-line front end.

Schema, determinism, exit codes, and the tabulation format; the
mathematical content of each suite is covered by the module tests, so
the suites exercised here are the cheap ones.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypverify
from hypverify import cli
from hypverify.cli import RunConfig, main, run_suite, tabulate_kernel

HEADER = ["check_id", "anchor", "lhs", "rhs", "tol", "rel_err", "pass"]


def read_report(path):
    with open(path) as fh:
        comment = fh.readline()
        rows = list(csv.reader(fh))
    return comment, rows[0], rows[1:]


class TestVerifyReports:
    def test_constants_csv_schema(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["verify", "--suite", "constants", "--out", str(out)])
        assert code == 0
        comment, header, rows = read_report(out)
        assert comment == "# suite=constants seed=0\n"
        assert header == HEADER
        assert len(rows) == 5
        ids = [r[0] for r in rows]
        assert ids == sorted(ids)
        for r in rows:
            assert r[6] == "true"
            assert float(r[5]) <= float(r[4])

    def test_json_schema(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["verify", "--suite", "constants", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["suite"] == "constants"
        assert doc["seed"] == 0
        assert len(doc["rows"]) == 5
        for row in doc["rows"]:
            assert sorted(row) == sorted(HEADER)
            assert row["pass"] is True
        ids = [r["check_id"] for r in doc["rows"]]
        assert ids == sorted(ids)

    def test_reports_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["verify", "--suite", "constants", "--out", str(a)])
        main(["verify", "--suite", "constants", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_recorded_in_header(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["verify", "--suite", "constants", "--seed", "7",
              "--out", str(out)])
        assert out.read_text().startswith("# suite=constants seed=7\n")

    def test_geometry_passes_any_seed(self, tmp_path):
        out = tmp_path / "g.csv"
        code = main(["verify", "--suite", "geometry", "--seed", "12345",
                     "--out", str(out)])
        assert code == 0
        _, _, rows = read_report(out)
        assert all(r[6] == "true" for r in rows)

    def test_exact_suite_kmax(self, tmp_path):
        out = tmp_path / "e.csv"
        code = main(["verify", "--suite", "exact", "--kmax", "3",
                     "--out", str(out)])
        assert code == 0
        _, _, rows = read_report(out)
        assert any("k <= 3" in r[1] for r in rows)

    def test_summary_line(self, tmp_path, capsys):
        main(["verify", "--suite", "constants",
              "--out", str(tmp_path / "r.csv")])
        assert "5/5 checks passed" in capsys.readouterr().out

    # both commands write to --outdir, else $HYPVERIFY_OUTDIR, else .
    OUTDIR_COMMANDS = {
        "verify": (["verify", "--suite", "constants"], "report_constants.csv"),
        "tabulate": (["tabulate", "--kernel", "green", "--rho", "1.0"], "kernel_green.csv"),
    }

    @pytest.mark.parametrize("command", OUTDIR_COMMANDS)
    def test_outdir_env_var(self, tmp_path, monkeypatch, command):
        argv, name = self.OUTDIR_COMMANDS[command]
        monkeypatch.setenv("HYPVERIFY_OUTDIR", str(tmp_path))
        code = main(argv)
        assert code == 0
        assert (tmp_path / name).exists()

    @pytest.mark.parametrize("command", OUTDIR_COMMANDS)
    def test_outdir_flag_beats_env(self, tmp_path, monkeypatch, command):
        argv, name = self.OUTDIR_COMMANDS[command]
        monkeypatch.setenv("HYPVERIFY_OUTDIR", str(tmp_path / "env"))
        code = main([*argv, "--outdir", str(tmp_path / "flag")])
        assert code == 0
        assert (tmp_path / "flag" / name).exists()
        assert not (tmp_path / "env" / name).exists()

    def test_failing_rows_exit_nonzero_but_report_written(
        self, tmp_path, monkeypatch, capsys
    ):
        def broken(cfg):
            return [
                cli.Check(
                    "constants",
                    lambda cfg, rng: (2.0, 1.0, 1.0, 1.0),
                    cli.Row("zz_bad", "cmp", 1e-6, "a check that fails"),
                    cli.Row("aa_good", "cmp", 1e-6, "a check that passes"),
                )
            ]

        monkeypatch.setattr(cli, "_check_table", broken)
        out = tmp_path / "r.csv"
        code = main(["verify", "--suite", "constants", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAIL zz_bad" in captured.err
        assert "1/2 checks passed" in captured.out
        _, _, rows = read_report(out)
        assert [r[0] for r in rows] == ["aa_good", "zz_bad"]
        assert [r[5:] for r in rows] == [["0", "true"], ["1", "false"]]

    def test_crashed_check_becomes_nan_row(self, tmp_path, monkeypatch, capsys):
        def crashing(cfg):
            return [
                cli.Check("constants", lambda cfg, rng: 1 / 0,
                          cli.Row("zz_crash", "cmp", 1e-6, "explodes"))
            ]

        monkeypatch.setattr(cli, "_check_table", crashing)
        out = tmp_path / "r.json"
        code = main(["verify", "--suite", "constants", "--format", "json",
                     "--out", str(out)])
        assert code == 1
        row = json.loads(out.read_text())["rows"][0]
        assert row["pass"] is False
        assert row["lhs"] is None and row["rel_err"] is None
        err = capsys.readouterr().err
        assert "FAIL zz_crash" in err
        assert "ZeroDivisionError" in err

    def test_crash_rows_carry_the_declared_anchor_and_tol(
        self, tmp_path, monkeypatch, capsys
    ):
        table = cli._check_table

        def boom(cfg, rng):
            raise RuntimeError("forced")

        def all_crash(cfg):
            return [cli.Check(c.suite, boom, *c.rows) for c in table(cfg)]

        monkeypatch.setattr(cli, "_check_table", all_crash)
        out = tmp_path / "r.json"
        code = main(["verify", "--suite", "all", "--format", "json",
                     "--out", str(out)])
        assert code == 1
        assert "0/48 checks passed" in capsys.readouterr().out
        declared = {row.check_id: row for c in table(RunConfig()) for row in c.rows}
        rows = json.loads(out.read_text())["rows"]
        ids = [r["check_id"] for r in rows]
        assert len(set(ids)) == len(ids) == 48
        assert ids == sorted(declared)
        for r in rows:
            want = declared[r["check_id"]]
            assert want.kind in ("cmp", "bound")
            assert r["pass"] is False
            assert r["lhs"] is None and r["rhs"] is None and r["rel_err"] is None
            assert (r["anchor"], r["tol"]) == (want.anchor, want.tol)
        # the passing rows of these two state their parameters in the anchor
        assert declared["exact_ladder_recursion"].anchor.endswith("k <= 6")
        assert "on 210 monomial cases" in declared["exact_conjugation_monomials"].anchor

    def test_hls_rows_at_lam_2_name_not_implemented(
        self, tmp_path, monkeypatch, capsys
    ):
        table = cli._check_table

        def hls_only(cfg):
            return [c for c in table(cfg) if c.rows[0].check_id.startswith("ineq_hls")]

        monkeypatch.setattr(cli, "_check_table", hls_only)
        out = tmp_path / "r.csv"
        code = main(["verify", "--suite", "inequalities", "--lam", "2",
                     "--out", str(out)])
        assert code == 1
        _, _, rows = read_report(out)
        assert [r[0] for r in rows] == [
            "ineq_hls_battery", "ineq_hls_concentration", "ineq_hls_strictly_below"
        ]
        for r in rows:
            assert math.isnan(float(r[2])) and r[6] == "false"
        fails = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("FAIL")]
        assert len(fails) == 3
        assert all("NotImplementedError" in ln for ln in fails)

    def test_invalid_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nosuch"])
        assert exc.value.code == 2

    def test_bad_eps_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--eps", "0.1,oops"])
        assert exc.value.code == 2

    def test_negative_eps_rejected(self, capsys):
        assert main(["verify", "--suite", "constants", "--eps", "-0.1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_suite_api(self, tmp_path):
        cfg = RunConfig(suite="constants", out_path=str(tmp_path / "r.csv"))
        status, path = run_suite(cfg)
        assert status == 0
        assert path == str(tmp_path / "r.csv")

    def test_runconfig_validation(self):
        with pytest.raises(ValueError):
            RunConfig(suite="bogus")
        with pytest.raises(ValueError):
            RunConfig(fmt="yaml")
        with pytest.raises(ValueError):
            RunConfig(eps_grid=())


class TestTabulate:
    def test_heat_reference_is_closed_form(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(["tabulate", "--kernel", "heat", "--n", "3",
                     "--rho", "0.5,1,2", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for r in rows:
            assert float(r["rel_err"]) < 1e-12

    def test_empty_rho_gives_header_only(self, tmp_path):
        out = tmp_path / "t.csv"
        code = main(["tabulate", "--kernel", "heat", "--rho", "",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text() == "rho,value,reference,rel_err\n"

    def test_green_matches_library(self, tmp_path):
        from hypverify.kernels import limiting_green_kernel

        rho = [0.3, 1.0, 4.0]
        path = tabulate_kernel("green", rho, 3, out_path=str(tmp_path / "g.csv"))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        want = limiting_green_kernel(np.array(rho), 3)
        got = np.array([float(r["value"]) for r in rows])
        assert np.max(np.abs(got / want - 1.0)) < 1e-15

    def test_no_reference_leaves_columns_empty(self, tmp_path):
        # dimension 4 heat kernel has no closed form to cite
        path = tabulate_kernel("heat", [1.0], 4, out_path=str(tmp_path / "h.csv"))
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["reference"] == "" and rows[0]["rel_err"] == ""
        assert math.isfinite(float(rows[0]["value"]))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_resolvent_runs_with_its_default_shift(self, tmp_path, n):
        # the default lam0 = 0 lies above the spectral bottom -(n-1)^2/4
        # of every n; odd n have a closed form to compare with
        out = tmp_path / "r.csv"
        code = main(["tabulate", "--kernel", "resolvent", "--n", str(n),
                     "--rho", "0.1,1,5", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for r in rows:
            assert float(r["value"]) > 0.0
            if n % 2:
                assert float(r["rel_err"]) < 1e-8
            else:
                assert r["reference"] == ""

    def test_product_requires_dimension_five(self, tmp_path, capsys):
        code = main(["tabulate", "--kernel", "product-resolvent", "--n", "3",
                     "--rho", "1.0", "--out", str(tmp_path / "p.csv")])
        assert code == 2
        assert "dimension 5" in capsys.readouterr().err

    def test_product_reference_does_not_cancel(self, tmp_path):
        # the closed form (cosh rho - 1) / (8 pi^2 sinh^3 rho) ~ 1/(16 pi^2 rho)
        # must be evaluated without the cancellation of cosh rho - 1
        path = tabulate_kernel("product-resolvent", [1e-7], 5, out_path=str(tmp_path / "p.csv"))
        with open(path) as fh:
            (row,) = list(csv.DictReader(fh))
        assert abs(float(row["reference"]) * 16.0 * math.pi**2 * 1e-7 - 1.0) < 1e-12
        # and so must the kernel, whose two resolvents cancel there
        assert float(row["rel_err"]) < 1e-13

    def test_qk_inverse_grid_reaches_past_the_largest_rho(self, tmp_path):
        # the convolution route truncates the kernel at the grid's end,
        # which must lie far enough beyond the largest rho
        out = tmp_path / "q.csv"
        code = main(["tabulate", "--kernel", "qk-inverse", "--n", "5",
                     "--rho", "0.5,1,2,4", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert max(float(r["rel_err"]) for r in rows) < 3e-3

    @pytest.mark.parametrize("n,rho,tol", [
        (3, "0.5,1,2", 1e-8), (7, "1,3,6", 2e-3), (7, "0.2,8", 2e-3),
    ])
    def test_qk_inverse_reference_is_exact(self, tmp_path, n, rho, tol):
        # the reference is the closed partial fractions of the symbol, so
        # rel_err reads the convolution route's own error
        out = tmp_path / "q.csv"
        code = main(["tabulate", "--kernel", "qk-inverse", "--n", str(n),
                     "--rho", rho, "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert max(float(r["rel_err"]) for r in rows) < tol

    def test_negative_rho_rejected(self, tmp_path, capsys):
        code = main(["tabulate", "--kernel", "heat", "--rho", "-1.0",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 2

    def test_unknown_kernel_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["tabulate", "--kernel", "warp", "--rho", "1.0"])
        assert exc.value.code == 2

    def test_bad_rho_list_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["tabulate", "--kernel", "heat", "--rho", "1.0,zap"])
        assert exc.value.code == 2


class TestConstantsCommand:
    def test_prints_constants_and_consistency(self, capsys):
        assert main(["constants", "--n", "5", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "S(5,2)" in out and "102.3832734405829" in out
        assert "C(5,1)" in out
        assert "gamma(4) on R^5" in out
        assert "3(pi/2)^(4/3)" in out

    def test_rejects_supercritical_order(self, capsys):
        assert main(["constants", "--n", "3", "--k", "2"]) == 2
        assert "error" in capsys.readouterr().err

    def test_runs_as_a_module(self):
        # `python -m hypverify` reaches the same main()
        src = str(Path(hypverify.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "hypverify", "constants", "--n", "5", "--k", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "102.3832734405829" in done.stdout


class TestFreshProcess:
    def test_never_loads_scipy_interpolate_or_integrate(self, tmp_path):
        # scipy.interpolate pulls in scipy's linalg, optimize, sparse,
        # spatial and fft, and a first scipy.integrate import costs 0.17 s;
        # neither may load in a fresh process, on import or through a
        # whole battery and an inverse-kernel table
        script = (
            "import json, sys\n"
            "import hypverify\n"
            "from hypverify.cli import main\n"
            "out = sys.argv[1]\n"
            "status = [main(['verify', '--suite', 'all', '--seed', '0', '--outdir', out]),\n"
            "          main(['tabulate', '--kernel', 'qk-inverse', '--n', '5',\n"
            "                '--rho', '0.5,1,2', '--outdir', out])]\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.split('.')[:2] in (['scipy', 'interpolate'], ['scipy', 'integrate']))\n"
            "print(json.dumps([status, loaded]))\n"
        )
        src = str(Path(hypverify.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        status, loaded = json.loads(done.stdout.splitlines()[-1])
        assert status == [0, 0]
        assert loaded == []
