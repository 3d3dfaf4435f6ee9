import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polylab
from polylab import checks, cli, simulator


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "2", "--l", "2", "--d", "2")
        assert code == 0
        assert json.loads(out) == {"count": "2"}

    def test_large_count_stays_exact_string(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "10", "--l", "60", "--d", "10")
        assert code == 0
        value = json.loads(out)["count"]
        assert isinstance(value, str)
        assert int(value) > 2**64  # would silently truncate as a JSON number

    def test_unknown_flag_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["count", "--n", "2", "--l", "2", "--d", "2", "--bogus", "1"])
        assert err.value.code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "3", "--l", "3", "--d", "1", "--format", "csv")
        assert code == 0
        assert out == "n,l,d,count\n3,3,1,7\n"

    def test_engine_fault_exits_1(self, capsys, monkeypatch):
        def stanley_count(n, l, d):
            raise ArithmeticError("boom")

        monkeypatch.setattr(cli.pathcount, "stanley_count", stanley_count)
        assert run_cli(capsys, "count", "--n", "2", "--l", "2", "--d", "2") == (
            1, "", "polylab: ArithmeticError: boom\n"
        )


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "2", "--l", "2", "--d", "2"],
        ["simulate", "--n", "5", "--trials", "2", "--seed", "9", "--format", "csv"],
    ],
    ids=["json", "csv"],
)
def test_out_writes_the_stdout_bytes(argv, capsys, tmp_path):
    _, out, _ = run_cli(capsys, *argv)
    out_file = tmp_path / "out"
    assert run_cli(capsys, *argv, "--out", str(out_file)) == (0, "", "")
    assert out_file.read_bytes() == out.encode()


class TestIdentity:
    def test_residual_within_tolerance(self, capsys):
        code, out, _ = run_cli(
            capsys, "identity", "--n", "3", "--d", "3", "--x", "0.8813735870195430", "--lmax", "60"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["within_tolerance"] is True
        assert payload["residual"] < 1e-10

    def test_tolerance_scales_with_target(self, capsys):
        # the target is 2^16 here; a residual of a few 1e-10 is float rounding
        code, out, _ = run_cli(
            capsys, "identity", "--n", "64", "--d", "32", "--x", "0.881373587019543", "--lmax", "220"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] > 1e-10
        assert payload["within_tolerance"] is True


class TestGeometry:
    def test_csv_rows_and_product(self, capsys):
        code, out, _ = run_cli(capsys, "geometry", "--K", "8", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "i,a_i,abar_i,d_i,ef_i,eb_i"
        assert len(lines) == 10  # header + 8 slabs + product row
        product_row = lines[-1].split(",")
        assert product_row[0] == "full_product"
        assert abs(float(product_row[1]) - 1.0) < 1e-9

    def test_json_with_profile(self, capsys):
        code, out, _ = run_cli(capsys, "geometry", "--K", "8", "--m", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["L_opt"] == pytest.approx(sum(payload["d_opt"]), rel=1e-12)
        assert payload["d_opt"][0] == pytest.approx(1 / 8)


class TestAnalyze:
    def test_all_items_pass_coarse_grid(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--grid-step", "1e-3")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert len(payload["items"]) == 5

    def test_lopt_override(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--grid-step", "1e-3", "--lopt", "1.24")
        assert code == 0
        payload = json.loads(out)
        assert payload["theta_hat_sup"] <= 1.0 + 1e-9


class TestOverlap:
    def test_exact_and_leading(self, capsys):
        code, out, _ = run_cli(capsys, "overlap", "--l", "4", "--k", "2", "--x", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == pytest.approx(payload["leading"] * payload["exact_over_leading"])

    def test_underflowing_leading_term(self, capsys):
        code, out, _ = run_cli(capsys, "overlap", "--l", "150", "--k", "75", "--x", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["leading"] == 0.0
        assert payload["exact_over_leading"] is None

    def test_with_mc(self, capsys):
        code, out, _ = run_cli(
            capsys, "overlap", "--l", "3", "--k", "1", "--x", "1.0", "--mc-trials", "10000", "--seed", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["mc_estimate"] - payload["exact"]) <= 5 * payload["mc_stderr"] + 1e-3


class TestSimulate:
    def test_json_deterministic(self, capsys):
        args = ["simulate", "--n", "6", "--trials", "3", "--seed", "42"]
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2  # byte-identical
        payload = json.loads(out1)
        assert len(payload["trials"]) == 3
        assert payload["aggregate"]["mean_m_n"] > 0

    def test_parallelism_flag_same_bytes(self, capsys):
        base = ["simulate", "--n", "6", "--trials", "4", "--seed", "1"]
        _, out1, _ = run_cli(capsys, *base)
        _, out2, _ = run_cli(capsys, *base, "--parallelism", "3")
        assert out1 == out2

    def test_csv_output_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "trials.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--n", "5", "--trials", "2", "--seed", "9",
            "--format", "csv", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0].split(",")[:7] == ["n", "seed", "trial", "m_n", "length", "backsteps", "e_first_half"]
        assert len(lines) == 3

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "x.json"
        with pytest.raises(SystemExit) as err:
            cli.main(["simulate", "--n", "4", "--trials", "1", "--seed", "0", "--out", str(out_file)])
        assert err.value.code == 2
        out, stderr = capsys.readouterr()
        assert out == "" and stderr.count("\n") == 1 and "Traceback" not in stderr

    def test_csv_round_trip_floats(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--n", "5", "--trials", "3", "--seed", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("n,seed,trial,m_n,length,backsteps,e_first_half,bin_00")
        assert len(lines) == 4
        m_back = float(lines[1].split(",")[3])
        assert m_back == simulator.run_trial(5, 3, 0).m_n  # 17 significant digits round-trip

    def test_seed_whose_uniform_rounds_to_one(self, capsys):
        # the only edge of n = 1 draws mix64 = 2^64 - 1 at this seed
        seed = "2175043581997826243"
        code, out, _ = run_cli(capsys, "simulate", "--n", "1", "--trials", "1", "--seed", seed)
        assert code == 0
        assert json.loads(out)["trials"][0]["m_n"] > 0.0

    def test_n24_peak_memory(self):
        # a fresh process peaked at 129 MiB, numpy and scipy imports included,
        # on a 2-vCPU x86 host; the bound is 1.5x that
        src = str(Path(polylab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = (
            "import resource, sys; from polylab.cli import main; status = main(sys.argv[1:]); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr); sys.exit(status)"
        )
        argv = [sys.executable, "-c", code, "simulate", "--n", "24", "--trials", "1", "--seed", "0"]
        proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=300)
        assert proc.returncode == 0
        assert int(proc.stderr.split()[-1]) / 1024 < 1.5 * 129  # ru_maxrss is in KiB on Linux


@pytest.mark.parametrize(
    "argv",
    [
        ["overlap", "--l", "3", "--k", "1", "--x", "1.0", "--seed", "-3"],
        ["overlap", "--l", "3", "--k", "1", "--x", "1.0", "--seed", str(2**64)],
        ["overlap", "--l", "3", "--k", "1", "--x", "1.0", "--mc-trials", "9999"],
        ["simulate", "--n", "6", "--trials", "1", "--seed", "-1"],
        ["simulate", "--n", "6", "--trials", "3", "--seed", str(2**64 - 2)],
        ["simulate", "--n", "6", "--trials", "1", "--seed", "0", "--parallelism", "0"],
        ["simulate", "--n", "0", "--trials", "1", "--seed", "0"],
        ["simulate", "--n", str(simulator.MAX_DIMENSION + 1), "--trials", "1", "--seed", "0"],
        ["identity", "--n", "3", "--d", "3", "--x", "nan", "--lmax", "60"],
        ["identity", "--n", "3", "--d", "3", "--x", "inf", "--lmax", "60"],
        ["identity", "--n", "3", "--d", "3", "--x", "-1", "--lmax", "60"],
        ["identity", "--n", "3", "--d", "3", "--x", "0", "--lmax", "60"],
        ["identity", "--n", "0", "--d", "0", "--x", "1.0", "--lmax", "60"],
        ["identity", "--n", "3", "--d", "3", "--x", "1.0", "--lmax", "-5"],
        ["overlap", "--l", "3", "--k", "1", "--x", "inf"],
        ["overlap", "--l", "3", "--k", "1", "--x", "nan"],
        ["overlap", "--l", "0", "--k", "0", "--x", "1.0"],
        ["analyze", "--grid-step", "0"],
        ["analyze", "--grid-step", "-1e-4"],
        ["analyze", "--grid-step", "0.01"],
        ["analyze", "--grid-step", "nan"],
        ["analyze", "--grid-step", "1e-3", "--lopt", "2"],
        ["analyze", "--grid-step", "1e-3", "--lopt", "1"],
        ["analyze", "--grid-step", "1e-3", "--lopt", "nan"],
        ["geometry", "--K", "8", "--m", "-1"],
        ["count", "--n", "0", "--l", "2", "--d", "0"],
        ["count", "--n", "2", "--l", "-1", "--d", "2"],
        ["count", "--n", "2", "--l", "2", "--d", "3"],
        ["identity", "--n", "3", "--d", "4", "--x", "1.0", "--lmax", "60"],
        # l_max leaves a truncation remainder above 1e-12
        ["identity", "--n", "3", "--d", "3", "--x", "1.0", "--lmax", "5"],
        ["geometry", "--K", "0"],
        ["geometry", "--K", "4", "--m", "2"],
        ["overlap", "--l", "3", "--k", "4", "--x", "1.0"],
        ["simulate", "--n", "6", "--trials", "0", "--seed", "0"],
    ],
)
def test_usage_error_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    assert capsys.readouterr().out == ""


class TestVerify:
    def test_fast_battery_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--fast")
        assert code == 0, out
        assert "overall: PASS" in out
        assert out.count("PASS") == len(checks.CHECKS) + 1  # one per check plus the overall line
        assert "FAIL" not in out

    def test_crashed_check_fails(self, capsys, monkeypatch):
        def crash():
            raise RuntimeError("boom")

        monkeypatch.setattr(checks, "CHECKS", (checks.Check("crash", crash, (), ()),))
        assert run_cli(capsys, "verify", "--fast") == (1, "crash  FAIL  error: boom\noverall: FAIL\n", "")
