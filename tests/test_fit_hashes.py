"""Smoke test of ``tools/fit_hashes.py`` on one small set and one small
record set.

The hashes themselves depend on the BLAS kernels, so only the report's
format, the exit code of ``--check`` and the agreement of two runs are
checked here; the sets of the table are checked by running the tool.
"""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location("fit_hashes", ROOT / "tools" / "fit_hashes.py")
fit_hashes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fit_hashes)

SMALL = (("cwls", "dataset2", 5.0, 0, 2, "0" * 16),)
LINE = re.compile(r"cwls dataset2 snr=5 seed=0 voxels=2 ([0-9a-f]{16}) (ok|MISMATCH \(expected 0{16}\))")
RECORDS = (("wls", "dataset3", 15.0, 0, 5, "0" * 16),)
RECORD_LINE = re.compile(r"fit --workers 2 wls dataset3 snr=15 seed=0 voxels=5 ([0-9a-f]{16}) "
                         r"(ok|MISMATCH \(expected 0{16}\))")


def report(capsys, argv, sets=SMALL, record_sets=()):
    code = fit_hashes.main(argv, sets=sets, record_sets=record_sets)
    return code, capsys.readouterr().out


def test_two_runs_print_the_same_hash(capsys):
    code, out = report(capsys, [])
    assert code == 0
    match = LINE.fullmatch(out.rstrip("\n"))
    assert match and match.group(2).startswith("MISMATCH")
    assert report(capsys, []) == (0, out)


def test_check_exits_1_on_a_mismatch_and_0_on_a_match(capsys):
    code, out = report(capsys, ["--check"])
    assert code == 1
    got = LINE.fullmatch(out.rstrip("\n")).group(1)
    assert fit_hashes.main(["--check"], sets=(SMALL[0][:5] + (got,),), record_sets=()) == 0
    assert capsys.readouterr().out.rstrip("\n").endswith(f"{got} ok")



def test_record_set_line(capsys):
    """The record set's line has its own prefix, and two runs, whose
    records hold different wall times, print the same hash."""
    code, out = report(capsys, ["--check"], sets=(), record_sets=RECORDS)
    match = RECORD_LINE.fullmatch(out.rstrip("\n"))
    assert code == 1 and match and match.group(2).startswith("MISMATCH")
    assert report(capsys, ["--check"], sets=(), record_sets=RECORDS) == (1, out)
