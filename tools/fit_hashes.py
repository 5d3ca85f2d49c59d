"""Fit hashes of the six check sets of ROADMAP item 1, and a record hash.

Each set is fitted voxel by voxel with ``dkimle.estimators.fit_voxel``,
and its hash is the first 16 hex digits of the sha256 over the
concatenated ``bench/workloads.fit_signature`` bytes of the results (a
voxel whose fit raises contributes no bytes).  A change that keeps every
fit bit-identical keeps every hash.  The record set is simulated and
fitted by ``dkimle simulate`` and ``dkimle fit --workers 2``, and its hash
is taken the same way over its JSON lines with each record's
``diagnostics.wall_time`` removed, so it also pins the violation flags,
the scalar maps and the record format.  The values depend on the BLAS
kernels: the table was taken with the kernels OpenBLAS picks on an
AVX-512 CPU, which match ``OPENBLAS_CORETYPE=SkylakeX``.

    python3 tools/fit_hashes.py            # print one line per set
    python3 tools/fit_hashes.py --check    # and exit 1 if one differs

Each line reads ``<estimator> <scenario> snr=<snr> seed=<seed>
voxels=<n> <hash> ok|MISMATCH (expected <hash>)``, and the record set's
line starts with ``fit --workers 2``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (estimator, scenario, snr, seed, voxels, expected hash); dataset3 sets
# its SNR per voxel and ignores the snr given
SETS = (
    ("mle", "dataset2", 15.0, 0, 18, "3aea8005f119e505"),
    ("cwls", "dataset2", 5.0, 0, 18, "fa9b01fd6e7fdfa6"),
    ("wls", "dataset3", 15.0, 0, 180, "fd28f4440555f877"),
    ("mle", "dataset2", 15.0, 1, 40, "0f8cef31eade7564"),
    ("cwls", "dataset2", 5.0, 1, 40, "8620a192c526dfc7"),
    ("mle", "dataset3", 15.0, 41, 50, "6947c70f2debc4aa"),
)
# the same fields for the JSON lines of `dkimle fit --workers 2`
RECORD_SETS = (
    ("wls", "dataset3", 15.0, 0, 180, "d777d445124ef587"),
)


def fit_hash(estimator, name, snr, seed, n_voxels) -> str:
    """The hash of one set."""
    from dkimle import estimators
    from dkimle.simulate import scenario
    from workloads import fit_signature

    protocol, rows, _ = scenario(name, snr=snr, seed=seed, n_voxels=n_voxels)
    digest = hashlib.sha256()
    for row in rows:
        try:
            fit = estimators.fit_voxel(row, protocol, estimator)
        except ValueError:
            fit = None
        digest.update(fit_signature(fit))
    return digest.hexdigest()[:16]


def record_hash(estimator, name, snr, seed, n_voxels) -> str:
    """The hash of one record set."""
    from dkimle import cli

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        prefix, out = str(Path(tmp) / "set"), str(Path(tmp) / "fit.jsonl")
        cli.main(["simulate", "--scenario", name, "--snr", repr(snr), "--seed", str(seed),
                  "--voxels", str(n_voxels), "--out", prefix])
        cli.main(["fit", "--protocol", prefix + ".protocol.txt", "--data",
                  prefix + ".voxels.csv", "--estimator", estimator, "--workers", "2",
                  "--out", out])
        for line in Path(out).read_text().splitlines():
            record = json.loads(line)
            record.get("diagnostics", {}).pop("wall_time", None)
            digest.update(json.dumps(record).encode() + b"\n")
    return digest.hexdigest()[:16]


def main(argv=None, sets=SETS, record_sets=RECORD_SETS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if a hash differs from the table")
    args = parser.parse_args(argv)
    for path in (ROOT / "src", ROOT / "bench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

    mismatches = 0
    for label, hasher, table in (("", fit_hash, sets),
                                 ("fit --workers 2 ", record_hash, record_sets)):
        for estimator, name, snr, seed, n_voxels, expected in table:
            got = hasher(estimator, name, snr, seed, n_voxels)
            verdict = "ok" if got == expected else f"MISMATCH (expected {expected})"
            mismatches += got != expected
            print(f"{label}{estimator} {name} snr={snr:g} seed={seed} voxels={n_voxels} "
                  f"{got} {verdict}", flush=True)
    return 1 if args.check and mismatches else 0


if __name__ == "__main__":
    # BLAS reads its thread count when numpy is first imported, as in bench/run.py
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
