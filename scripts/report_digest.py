"""The sha256 over the oracle reports of every datum with n <= 8.

    PYTHONPATH=src python3 scripts/report_digest.py [--expect HEX]

Hashes, in order, the report of each of the 3,150 data that
induction_data(n, {0, 1/2, ..., 4}) gives for n = 1..8, each serialized as
`bhecke rgroup --oracle --json` prints it:
json.dumps(rep, indent=2, sort_keys=True) + "\\n". Prints the hex digest.
With --expect it exits 1 when the digest differs. Takes about 12 s on a
2-CPU Linux VM; the rank-8 scans build the 83 MB W(B_8) image table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from bhecke.report import build_report
from bhecke.rgroup import InductionDatum, induction_data

MAX_RANK = 8
MS = [Fraction(k, 2) for k in range(9)]


def report_digest() -> tuple[str, int]:
    """The hex digest and the number of reports hashed."""
    digest = hashlib.sha256()
    count = 0
    for n in range(1, MAX_RANK + 1):
        for case in induction_data(n, MS):
            rep = build_report(InductionDatum(*case), oracle=True)
            digest.update((json.dumps(rep, indent=2, sort_keys=True) + "\n").encode())
            count += 1
    return digest.hexdigest(), count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", metavar="HEX",
                        help="exit 1 unless the digest equals HEX")
    args = parser.parse_args(argv)
    hexdigest, count = report_digest()
    print(f"{hexdigest}  ({count} reports, n <= {MAX_RANK})")
    if args.expect is not None and hexdigest != args.expect.lower():
        print(f"expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
