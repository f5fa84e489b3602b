import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import time

import pytest

CLI = [sys.executable, "-m", "symprop"]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(CLI + list(args), capture_output=True, text=True, timeout=300)


def test_prop_anchor():
    out = run("prop", "--n", "4", "--m", "3")
    assert out.returncode == 0
    assert out.stdout.strip() == "3/8 (0.375)"


def test_prop_formats():
    out = run("prop", "--n", "4", "--m", "3", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out.stdout)))
    assert rows[0]["numerator"] == "3" and rows[0]["denominator"] == "8"
    out = run("prop", "--n", "4", "--m", "3", "--format", "json")
    data = json.loads(out.stdout)
    assert data["numerator"] == "3" and data["decimal"] == "0.375"


def test_signed_flag():
    out = run("prop", "--n", "4", "--m", "2", "--signed")
    assert out.stdout.strip() == "-1/12 (-0.0833333)"


def test_split_total_matches_prop():
    out = run("split", "--n", "11", "--m", "8", "--format", "json")
    data = json.loads(out.stdout)["components"]
    total = sum(
        int(data[k]["numerator"]) / int(data[k]["denominator"])
        for k in ("one_cycle", "two_cycles", "three_cycles")
    )
    want = int(data["total"]["numerator"]) / int(data["total"]["denominator"])
    assert abs(total - want) < 1e-12


def test_verify_shat_expected_set_is_success():
    out = run("verify-shat", "--m-max", "200", "--no-candidates")
    assert out.returncode == 0
    assert "72" in out.stdout and "120" in out.stdout


def test_verify_shat_small_range_counts_candidates():
    # the divisor-rich candidates above m-max include 72 and 120, so both
    # belong to the expected failure set even though m-max is below them
    for m_max in ("50", "100"):
        out = run("verify-shat", "--m-max", m_max)
        assert out.returncode == 0, out.stdout
        assert "failing m = [72, 120] (expected [72, 120])" in out.stdout


def test_verify_thm1_window():
    out = run("verify-thm1", "--n-lo", "5", "--n-hi", "40")
    assert out.returncode == 0
    assert "0 failures" in out.stdout


def test_verify_thm2_clean_case_exits_zero():
    out = run("verify-thm2", "--case", "1", "--n-hi", "80")
    assert out.returncode == 0


def test_verify_thm2_family10_reports_shortfalls():
    out = run("verify-thm2", "--case", "10", "--n-hi", "100")
    assert out.returncode == 1
    assert "n=37" in out.stdout and "n=85" in out.stdout


def test_table2_lists_exceptions_and_flags_the_low_row():
    out = run("table2")
    assert out.returncode == 1
    lines = [l for l in out.stdout.splitlines() if l.startswith("case")]
    assert len(lines) == 4
    assert sum("FAIL" in l for l in lines) == 1
    assert "n=85" in "".join(l for l in lines if "FAIL" in l)


def test_csv_byte_stability():
    a = run("verify-thm2", "--case", "10", "--n-hi", "60", "--format", "csv")
    b = run("verify-thm2", "--case", "10", "--n-hi", "60", "--format", "csv")
    assert a.stdout == b.stdout
    assert a.stdout.count("\r") == 0


def test_progress_stays_on_stderr():
    out = run("lemma-check", "--limit", "200000", "--pairs-max", "200")
    assert out.returncode == 0
    # the chatty per-step lines live on stderr; stdout carries one verdict
    assert "sieving" in out.stderr
    assert len(out.stdout.splitlines()) == 1
    assert out.stdout.startswith("divisor lemmas") and "0 failures" in out.stdout


def test_usage_errors_exit_two():
    assert run("prop", "--n", "4").returncode == 2
    assert run("nosuch").returncode == 2
    assert run("sample", "--n", "9").returncode == 2
    assert run("verify-shat", "--m-max", "1").returncode == 2


def test_sample_deterministic_with_seed():
    a = run("sample", "--n", "10", "--m", "10", "--trials", "20000", "--seed", "5",
            "--format", "csv")
    b = run("sample", "--n", "10", "--m", "10", "--trials", "20000", "--seed", "5",
            "--format", "csv")
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_search_sim_smoke():
    out = run("search-sim", "--case", "1", "--n", "10", "--episodes", "2000",
              "--seed", "3", "--format", "json")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["mean_within_4sigma"] == "1"


def test_large_modulus_lists_only_small_divisors():
    # only the divisors d <= n matter; listing every divisor of 10^14 by
    # trial division took over a second
    from symprop import cli

    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        status = cli.main(["prop", "--n", "4", "--m", "100000000000000"])
    assert time.perf_counter() - t0 < 1.0
    assert status == 0
    assert out.getvalue() == "2/3 (0.666667)\n"


def test_divisors_of_two_to_the_64_finish_quickly():
    # divisor_list factors n before listing; trial division up to sqrt(2**64)
    # did not finish
    from symprop import cli

    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        status = cli.main(["divisors", "--n", str(2**64)])
    assert time.perf_counter() - t0 < 1.0
    assert status == 0
    assert out.getvalue().startswith(f"n={2**64} d(n)=65 ")


def test_divisors_of_a_large_prime_finish_quickly():
    # trial division up to sqrt(2**61 - 1) did not finish; the cofactor is
    # now tested for primality once the trials pass 2**16
    from symprop import cli

    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        status = cli.main(["divisors", "--n", str(2**61 - 1)])
    assert time.perf_counter() - t0 < 1.0
    assert status == 0
    assert out.getvalue().startswith(f"n={2**61 - 1} d(n)=2 divisors=1,{2**61 - 1} ")


def test_divisors_of_a_product_of_two_large_primes_finish_quickly():
    # trial division up to 2**31 - 1 did not finish; a cofactor that fails
    # the primality test is now split by Pollard's rho
    from symprop import cli

    n = (2**31 - 1) * (2**61 - 1)
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        status = cli.main(["divisors", "--n", str(n)])
    assert time.perf_counter() - t0 < 1.0
    assert status == 0
    assert out.getvalue().startswith(f"n={n} d(n)=4 divisors=1,{2**31 - 1},{2**61 - 1},{n} ")


@pytest.mark.parametrize("n, count", [((2**61 - 1) ** 2, 3), (2**89 - 1, 2)],
                         ids=["square-of-a-large-prime", "prime-above-3.3e24"])
def test_divisors_past_rho_and_miller_rabin_finish_quickly(n, count):
    # rho needs about 2**30 steps to split (2**61 - 1)**2, which an exact
    # square root splits at once; 2**89 - 1 lies above the range where
    # Miller-Rabin on 13 bases is exact, and trial division to its square
    # root did not finish, where a Pocklington proof on the factored n - 1 does
    from symprop import cli

    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        status = cli.main(["divisors", "--n", str(n)])
    assert time.perf_counter() - t0 < 1.0
    assert status == 0
    assert out.getvalue().startswith(f"n={n} d(n)={count} ")


def test_sample_with_a_modulus_beyond_int64():
    out = subprocess.run(CLI + ["sample", "--n", "12", "--m", str(2**64), "--trials", "100",
                                "--seed", "1"], capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("argv", [
    ["divisors", "--n", "0"],
    ["bound", "--n", "1", "--m", "0"],
    ["lemma-check", "--limit", "0"],
    ["verify-thm1", "--n-lo", "40", "--n-hi", "30"],
    ["verify-thm2", "--n-lo", "500", "--n-hi", "400"],
    ["verify-thm2", "--case", "2", "--n-lo", "500"],
    ["verify-thm2", "--n-lo", "500"],
    ["verify-thm2", "--case", "1", "--n-hi", "0"],
    ["lemma-check", "--pairs-max", "-3"],
    ["sample", "--n", "1", "--m", "2", "--group", "A"],
    ["sample", "--case", "2", "--n", "10"],
    ["search-sim", "--case", "3", "--n", "9"],
    ["search-sim", "--case", "1", "--n", "9", "--episodes", "0"],
    ["sample", "--n", "5", "--m", "2", "--seed", "-1"],
    ["search-sim", "--case", "1", "--n", "6", "--episodes", "5", "--seed", "-3"],
    ["prop", "--n", "4", "--m", "x"],
    ["prop", "--n", "-3", "--m", "3"],
    ["verify-thm2", "--case", "10", "--n-lo", "86", "--n-hi", "86"],
    ["verify-thm2", "--case", "2", "--n-hi", "7"],
    ["verify-thm2", "--n-lo", "8", "--n-hi", "8"],
    ["sample", "--case", "1", "--n", "9", "--group", "A"],
    ["sample", "--n", "9", "--m", "9", "--event", "A"],
    ["verify-shat", "--m-max", "50", "--full"],
], ids=" ".join)
def test_bad_arguments_are_usage_errors(argv):
    out = run(*argv)
    assert out.returncode == 2
    assert out.stdout == "" and "error:" in out.stderr and "Traceback" not in out.stderr


def test_empty_thm2_window_names_the_case():
    # each family's default top applies before the check: cases 2, 3 and
    # 6-10 stop at 300, cases 1, 4 and 5 at 1000
    from symprop import cli

    def problem(*argv):
        args = cli.build_parser().parse_args(["verify-thm2", *argv])
        return cli._check_verify_thm2(args)

    assert problem("--n-lo", "500") == "need --n-lo <= --n-hi: case 2 ends at n = 300"
    assert problem("--case", "1", "--n-lo", "500") is None
    assert problem("--case", "5", "--n-lo", "1001").endswith("case 5 ends at n = 1000")
    # a window that holds degrees but none of the family's would check nothing
    assert problem("--case", "10", "--n-lo", "86", "--n-hi", "86") == (
        "case 10 has no admissible degree in 86..86")
    assert problem("--case", "2", "--n-hi", "7") == "case 2 has no admissible degree in 1..7"
    assert problem("--n-lo", "8", "--n-hi", "8") == "case 2 has no admissible degree in 8..8"
    assert problem("--case", "10", "--n-lo", "85", "--n-hi", "86") is None


def test_internal_fault_is_not_a_usage_error():
    # a ValueError raised while computing is a fault: a traceback and exit 3,
    # told apart from a usage error (2) and a failed check (1)
    code = ("import sys\n"
            "from symprop import cli\n"
            "def boom(*args, **kwargs):\n"
            "    raise ValueError('injected fault')\n"
            "cli.prop_alternating = boom\n"
            "sys.exit(cli.main(['alt-prop', '--n', '9', '--m', '12']))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 3
    assert out.stdout == ""
    assert "Traceback" in out.stderr and "injected fault" in out.stderr


@pytest.mark.parametrize("argv", [
    ["prop", "--n", "4", "--m", "3"],  # fits the buffer: fails at the final flush
    ["verify-shat", "--m-max", "100"],
])
def test_reader_closing_stdout_early_is_not_a_fault(argv):
    # the read end is closed before the command writes a byte, so every
    # write meets a broken pipe, whatever the timing
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(CLI + argv, stdout=write_end, stderr=subprocess.PIPE,
                             text=True, timeout=300)
    finally:
        os.close(write_end)
    assert out.returncode == 141
    assert out.stderr == ""
