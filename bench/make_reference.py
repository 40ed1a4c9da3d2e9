"""Write reference.json: a digest of every sweep at every ``--bx`` a seed can pick.

Run from the root of a checkout, at the commit whose outputs are the reference:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

from checks import REFERENCE_PATH, digest, parse_csv
from run import BLAS_ENV, BLAS_THREADS, SRC, WORK
from workloads import BX_CHOICES, WORKLOADS


def main() -> int:
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    from isingcrit import cli, dynamics

    WORK.mkdir(exist_ok=True)
    out = WORK / "reference.csv"
    reference = {}
    for make in WORKLOADS.values():
        for bx in BX_CHOICES:
            for sweep in make(lambda: bx):
                if sweep.key in reference:
                    continue
                dynamics.spectral_for.cache_clear()
                if cli.main([*sweep.argv, "--out", str(out)]) != 0:
                    print(f"error: {sweep.key} failed", file=sys.stderr)
                    return 1
                reference[sweep.key] = digest(*parse_csv(out.read_text(encoding="utf-8")))
                print(sweep.key, flush=True)
    out.unlink()
    lines = [f"{json.dumps(k)}: {json.dumps(reference[k])}" for k in sorted(reference)]
    REFERENCE_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
