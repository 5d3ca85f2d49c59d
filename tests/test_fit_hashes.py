"""Smoke test of ``tools/fit_hashes.py`` on one small set.

The hashes themselves depend on the BLAS kernels, so only the report's
format, the exit code of ``--check`` and the agreement of two runs are
checked here; the six sets of the table are checked by running the tool.
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


def report(capsys, argv):
    code = fit_hashes.main(argv, sets=SMALL)
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
    assert fit_hashes.main(["--check"], sets=(SMALL[0][:5] + (got,),)) == 0
    assert capsys.readouterr().out.rstrip("\n").endswith(f"{got} ok")

