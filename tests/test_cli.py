import json
import math
from pathlib import Path

import pytest

from polylab import checks, cli, simulator

from conftest import run_python


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh_process(*argv):
    """(exit code, stdout, peak RSS in MiB) of `main(argv)` in a new interpreter.

    The peak is the new interpreter's own VmHWM: its ru_maxrss would also
    count the resident set of this process, which the child inherits at
    spawn, so a bound below the test runner's own size could never fail.
    """
    proc = run_python(
        "import sys; from polylab.cli import main; status = main(sys.argv[1:]); "
        "print(*(line for line in open('/proc/self/status') if line.startswith('VmHWM:')), file=sys.stderr); "
        "sys.exit(status)",
        *argv,
    )
    return proc.returncode, proc.stdout, int(proc.stderr.split()[-2]) / 1024  # "VmHWM: <n> kB"


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
        # the target sinh(1.5)^64 is about 1e21; a residual of one ulp there,
        # 131072, is float rounding of the series terms
        code, out, _ = run_cli(capsys, "identity", "--n", "64", "--d", "64", "--x", "1.5", "--lmax", "320")
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] > 1e-10
        assert payload["within_tolerance"] is True

    def test_large_n_small_x(self, capsys):
        # in floats cosh(1e-6) ** 2500 is 1.1e-13 off the target 1.0000000012500000008
        for n in ("2500", "5000"):
            code, out, _ = run_cli(capsys, "identity", "--n", n, "--d", "0", "--x", "1e-6", "--lmax", "5")
            assert code == 0
            assert json.loads(out)["within_tolerance"] is True, n


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
        # both probabilities underflow to 0.0; their logs and their ratio stay defined
        code, out, _ = run_cli(capsys, "overlap", "--l", "150", "--k", "75", "--x", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == payload["leading"] == 0.0
        assert -1100.0 < payload["log_exact"] < payload["log_leading"] < -1000.0
        assert 0.0 < payload["exact_over_leading"] < 1.0
        assert payload["exact_over_leading"] == math.exp(payload["log_exact"] - payload["log_leading"])

    def test_overflowing_leading_term(self, capsys):
        # x^(2l-k) overflows the leading form, which is written as null; the exact kernel is near 1
        code, out, _ = run_cli(capsys, "overlap", "--l", "300", "--k", "1", "--x", "400")
        assert code == 0
        payload = json.loads(out)
        assert payload["leading"] is None
        assert payload["log_leading"] > 709.8
        assert 0.99 < payload["exact"] < 1.0
        assert payload["exact_over_leading"] == 0.0

    @pytest.mark.parametrize("fmt", ("json", "csv"))
    def test_largest_threshold_saturates(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "overlap", "--l", "3", "--k", "1", "--x", "1e308", "--format", fmt)
        assert code == 0
        if fmt == "csv":
            header, row = (line.split(",") for line in out.splitlines())
            payload = dict(zip(header, row))
            assert payload["leading"] == ""
            assert float(payload["exact"]) == 1.0
        else:
            payload = json.loads(out)
            assert payload["leading"] is None
            assert payload["exact"] == 1.0
            assert payload["log_exact"] == 0.0

    def test_smallest_threshold_keeps_finite_logs(self, capsys):
        code, out, _ = run_cli(capsys, "overlap", "--l", "3", "--k", "1", "--x", "5e-324")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == payload["leading"] == 0.0
        assert all(math.isfinite(payload[key]) for key in ("log_exact", "log_leading", "exact_over_leading"))

    def test_large_cell_peak_memory(self):
        # a fresh process peaked at 32 MiB, numpy import included, on a 2-vCPU
        # x86 host (30 MiB for l = 8); the series keeps about 1,600 terms here,
        # so a terms x terms table (about 19 MiB) would exceed the bound, and so
        # would importing scipy's sparse-graph modules (64 MiB in all)
        code, out, peak_mib = run_fresh_process("overlap", "--l", "2000", "--k", "1000", "--x", "2000")
        assert code == 0
        assert 0.0 < json.loads(out)["exact"] < 1.0
        assert peak_mib < 32 + 15

    def test_with_mc(self, capsys):
        code, out, _ = run_cli(
            capsys, "overlap", "--l", "3", "--k", "1", "--x", "1.0", "--mc-trials", "10000", "--seed", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["mc_estimate"] - payload["exact"]) <= 5 * payload["mc_stderr"] + 1e-3

    def test_ten_million_trials_peak_memory(self):
        # a fresh process peaked at 31 MiB, numpy import included, on a 2-vCPU
        # x86 host (31 MiB with no trials); the bound is 1.5x that, below the
        # 63 MiB of a process that imports scipy's sparse-graph modules.
        # Drawing every trial at once had peaked at 539 MiB.
        argv = ("overlap", "--l", "4", "--k", "2", "--x", "1.0", "--mc-trials", "10000000", "--seed", "3")
        code, out, peak_mib = run_fresh_process(*argv)
        assert code == 0
        assert json.loads(out)["mc_estimate"] == 0.0024838
        assert peak_mib < 1.5 * 31


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
        # a fresh process peaked at 79 MiB, numpy import included, on a 2-vCPU
        # x86 host; the bound is 1.5x that
        code, _, peak_mib = run_fresh_process("simulate", "--n", "24", "--trials", "1", "--seed", "0")
        assert code == 0
        assert peak_mib < 1.5 * 79

    def test_first_scipy_import_races_on_two_threads(self, capsys):
        # n = 12 runs the CSR engine, which imports scipy on its first call, so
        # in a new interpreter both worker threads race for that import
        argv = ("simulate", "--n", "12", "--trials", "8", "--seed", "5")
        code, out, _ = run_fresh_process(*argv, "--parallelism", "2")
        assert code == 0
        assert out == run_cli(capsys, *argv)[1]


class TestSerialization:
    def test_json_fields(self):
        records, _ = simulator.run_trials(5, 2, base_seed=3)
        payload = cli.trial_record_json_dict(records[0])
        assert set(payload) == {
            "n", "seed", "trial", "m_n", "length", "backsteps", "e_first_half",
            *(f"bin_{i:02d}" for i in range(20)),
        }
        # empty bins stay NaN here; the CLI writer turns them into null or an empty cell
        assert any(math.isnan(payload[f"bin_{i:02d}"]) for i in range(20))


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


def test_parser_keeps_no_state_between_calls(capsys, monkeypatch, tmp_path):
    # main builds its parser once per process: each call must parse as if it were the first
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text at the terminal width
    golden = Path(__file__).with_name("golden")
    out_file = tmp_path / "overlap_mc.csv"
    mc = ["overlap", "--l", "3", "--k", "1", "--x", "1.0", "--mc-trials", "10000", "--seed", "5"]
    assert run_cli(capsys, *mc, "--format", "csv", "--out", str(out_file)) == (0, "", "")
    assert out_file.read_text() == (golden / "overlap_mc.csv").read_text()
    overlap = ["overlap", "--l", "4", "--k", "2", "--x", "0.5"]
    assert run_cli(capsys, *overlap) == (0, (golden / "overlap.json").read_text(), "")
    code, fresh, _ = run_fresh_process("geometry", "--K", "2")
    assert code == 0
    assert run_cli(capsys, "geometry", "--K", "2") == (0, fresh, "")

    count = ["count", "--n", "10", "--l", "14", "--d", "4"]
    with pytest.raises(SystemExit) as err:
        cli.main([*count, "--format", "xml"])
    assert err.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, *count) == (0, (golden / "count.json").read_text(), "")

    for _ in range(2):
        with pytest.raises(SystemExit) as err:
            cli.main(["--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out == (golden / "help.txt").read_text()


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


def scipy_modules_loaded(*commands):
    """The scipy modules a new interpreter holds after `from polylab import cli`, then after each `main(argv)`."""
    proc = run_python(
        "import json, sys\n"
        "from polylab import cli\n"
        "def report():\n"
        "    print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'), file=sys.stderr)\n"
        "report()\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    report()\n",
        json.dumps(commands),
    )
    assert proc.returncode == 0, proc.stderr
    return [line.split() for line in proc.stderr.splitlines()[-1 - len(commands) :]]


def test_import_loads_no_heavy_scipy_subpackage():
    # only the CSR engine (n <= CSR_MAX_DIMENSION) uses scipy, whose
    # sparse-graph modules doubled every other command's start-up time and
    # peak memory; one interpreter runs every command that must not load it
    commands = (
        ["overlap", "--l", "3", "--k", "1", "--x", "1.0", "--mc-trials", "10000"],
        ["count", "--n", "10", "--l", "60", "--d", "10"],
        ["identity", "--n", "3", "--d", "3", "--x", "0.88", "--lmax", "60"],
        ["geometry", "--K", "8"],
        ["analyze"],
        ["simulate", "--n", "20", "--trials", "1", "--seed", "0"],
    )
    loaded = scipy_modules_loaded(*commands)
    assert loaded == [[]] * (1 + len(commands)), list(zip([["import"], *commands], loaded))
    # the guard is not vacuous: a search at n <= 14 does load it
    [after_search] = scipy_modules_loaded(["simulate", "--n", "12", "--trials", "1", "--seed", "0"])[1:]
    assert "scipy.sparse.csgraph" in after_search
