"""Golden outputs of the command line: exit status and stdout bytes.

Every case in ``golden_cli.json`` is one argv list with the exit status
and the sha256 of the stdout it produced when the data was captured.  The
test replays each case in-process through ``symprop.cli.main`` at the
interpreter's default int->str digit limit and requires the same status
and byte-identical stdout.

The data was captured once, before the output code of ``cli.py`` was
rewritten, by

    PYTHONPATH=src python3 tests/test_cli_golden.py --capture

which lifts the digit limit in its own process only, so the large-n
``prop`` cases recorded their full digits.  Never regenerate the data
after editing ``cli.py``: that would turn whatever the edited code prints
into the expectation.  ``--capture`` therefore only adds: it runs the
cases missing from the file, keeps every recorded entry, hand-edited
ones included, as it is, and prints the keys it kept.  Add a case only
by capturing it at a commit whose output is already trusted.

One deliberate edit since: the three ``verify-shat --m-max 50`` entries
(with the default candidates) were rewritten by hand when the expected
failure set learned to count the candidates above m-max.  They had
recorded exit 1 and "UNEXPECTED failure set"; they now record exit 0 with
the direct checks of m = 72 and m = 120.

A second deliberate edit: the six ``--jobs 2`` entries (``verify-thm1
--n-lo 8 --n-hi 16 --m-mult 2 --jobs 2`` and ``verify-shat --m-max 130
--no-candidates --jobs 2``, three formats each) were rewritten by hand
when the process pools and the ``--jobs`` flag were deleted.  They had
recorded exit 0 with the same bytes as the single-process runs; they now
record exit 2 (argparse rejects the unknown flag) with empty stdout.  The
``verify-shat --full --format json`` entry was captured before that
change, from the single-process run.

A third deliberate edit: the 27 seeded ``sample`` and ``search-sim``
entries (nine argv lists, three formats each) were rewritten by hand when
the sampler began to read each shuffled word as its Foata image and to
even the odd words of A_n instead of rejecting them.  Every draw is still
exactly uniform, but a seed now yields other permutations.  Old and new
stdout differ only in sampled fields (successes, the estimate, its std
error, draws, power-test hits, the mean and the observed acceptance);
every status, target and 4-sigma verdict is unchanged.

The last four ``_SINGLE`` entries (a signed ``prop``, an ``alt-prop``, a
``split`` and the family-10 ``verify-thm2`` csv that holds the exact FAILs
at n = 37 and n = 85) were captured before the exact row kernel of
``proportions.py`` moved to rows scaled by N!, from the code it replaced.

The ``verify-thm2 --n-lo 100 --n-hi 130`` entries, a window where the
families read one modulus at several degrees, were captured before the
exact theorem-2 path began to build each modulus's row once for all
families, from the per-degree code it replaced.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from symprop import cli

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_cli.json")
FORMATS = ("table", "csv", "json")

# Every subcommand on small fixed arguments, each run in all three formats.
_PER_FORMAT = [
    ["prop", "--n", "4", "--m", "3"],
    ["prop", "--n", "4", "--m", "2", "--signed"],
    ["prop", "--n", "2000", "--m", "2"],
    ["split", "--n", "11", "--m", "8"],
    ["alt-prop", "--n", "9", "--m", "12"],
    ["bound", "--n", "30", "--m", "60"],
    ["bound", "--n", "12", "--m", "11"],
    ["bound", "--n", "12", "--m", "12"],
    ["verify-thm1", "--n-hi", "20"],
    ["verify-thm1", "--n-lo", "8", "--n-hi", "16", "--m-mult", "2", "--jobs", "2"],
    ["verify-shat", "--m-max", "200", "--no-candidates"],
    ["verify-shat", "--m-max", "50"],
    ["verify-shat", "--m-max", "50", "--no-candidates"],
    ["verify-shat", "--m-max", "130", "--no-candidates", "--jobs", "2"],
    ["verify-thm2", "--case", "10", "--n-hi", "40"],
    ["verify-thm2", "--case", "1", "--n-hi", "30"],
    ["verify-thm2", "--n-hi", "26"],
    ["verify-thm2", "--case", "6", "--n-lo", "10", "--n-hi", "40"],
    ["table2"],
    ["divisors", "--n", "360"],
    ["divisors", "--n", "720720"],
    ["divisors", "--n", "1"],
    ["lemma-check", "--limit", "3000", "--pairs-max", "100"],
    ["sample", "--n", "10", "--m", "10", "--trials", "3000", "--seed", "5"],
    ["sample", "--n", "8", "--m", "6", "--group", "A", "--trials", "2000", "--seed", "2"],
    ["sample", "--case", "4", "--n", "9", "--event", "B", "--trials", "2000", "--seed", "7"],
    ["sample", "--case", "10", "--n", "13", "--event", "A", "--trials", "2000", "--seed", "4"],
    ["search-sim", "--case", "1", "--n", "10", "--episodes", "200", "--seed", "3"],
    ["search-sim", "--case", "2", "--n", "13", "--episodes", "50", "--seed", "9"],
    ["search-sim", "--case", "4", "--n", "9", "--episodes", "200", "--seed", "5"],
    ["search-sim", "--case", "10", "--n", "13", "--episodes", "100", "--seed", "8"],
    ["sample", "--case", "10", "--n", "13", "--event", "B", "--trials", "3000", "--seed", "6"],
    ["verify-thm2", "--n-lo", "100", "--n-hi", "130"],
]

# Single invocations in one format only.
_SINGLE = [
    ["verify-shat", "--full", "--format", "json"],
    ["prop", "--n", "300", "--m", "60", "--signed", "--format", "csv"],
    ["alt-prop", "--n", "400", "--m", "360", "--format", "json"],
    ["split", "--n", "120", "--m", "720", "--format", "csv"],
    ["verify-thm2", "--case", "10", "--n-hi", "120", "--format", "csv"],
]

# Usage errors: argparse rejections and argument-validation failures.
_ERRORS = [
    [],
    ["nosuch"],
    ["prop", "--n", "4"],
    ["prop", "--n", "4", "--m", "3", "--format", "xml"],
    ["prop", "--n", "4", "--m", "0"],
    ["split", "--n", "2", "--m", "3"],
    ["alt-prop", "--n", "1", "--m", "3"],
    ["bound", "--n", "10", "--m", "5"],
    ["verify-thm1", "--n-lo", "3"],
    ["verify-shat", "--m-max", "1"],
    ["verify-thm2", "--case", "11"],
    ["sample", "--n", "9"],
    ["sample", "--n", "9", "--m", "3", "--case", "4"],
    ["sample", "--n", "9", "--m", "3", "--trials", "0"],
]

CASES = [argv + ["--format", fmt] for argv in _PER_FORMAT for fmt in FORMATS] + _SINGLE + _ERRORS


def run_case(argv: list[str]) -> tuple[int, bytes]:
    """Run one invocation in-process; return (exit status, stdout bytes)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            status = exc.code if isinstance(exc.code, int) else 1
    return status, out.getvalue().encode()


def _key(argv: list[str]) -> str:
    return " ".join(argv) or "(no arguments)"


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)["cases"]


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_golden_output(argv, golden):
    key = _key(argv)
    want = golden[key]
    status, out = run_case(argv)
    assert status == want["status"], f"{key}: exit {status}, expected {want['status']}"
    assert len(out) == want["bytes"], f"{key}: {len(out)} stdout bytes, expected {want['bytes']}"
    assert hashlib.sha256(out).hexdigest() == want["sha256"], f"{key}: stdout differs"


def capture() -> dict:
    """The recorded cases, plus a fresh capture of each case not yet in DATA."""
    sys.set_int_max_str_digits(0)
    with open(DATA, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    for argv in CASES:
        key = _key(argv)
        if key in cases:
            print(f"kept {key}", file=sys.stderr)
            continue
        status, out = run_case(argv)
        cases[key] = {"status": status, "bytes": len(out),
                      "sha256": hashlib.sha256(out).hexdigest()}
        print(f"added {key} (exit {status})", file=sys.stderr)
    return cases


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        raise SystemExit("usage: test_cli_golden.py --capture")
    captured = capture()  # read DATA before opening it for writing
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump({"cases": captured}, fh, indent=1, sort_keys=True)
        fh.write("\n")
