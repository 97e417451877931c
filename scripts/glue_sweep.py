"""glue_strip_geometric against a scan of the partitions of |mu| + p.

    PYTHONPATH=src python3 scripts/glue_sweep.py

For every partition mu with |mu| <= MAX_MU = 12, every strip length
p <= MAX_P = 16 and every m in {0, 1/2, ..., 6, 1/3, 5/4, -1/2, -3/2}, the
scan keeps the partitions of |mu| + p that contain mu and whose m-tableau
entry multiset is mu's plus the strip's, in descending lexicographic order,
and compares them with glue_strip_geometric(mu, p, m). It shares no code
with the library beyond that function: partitions, contents and entries
are computed here. Prints the number of cases compared, and exits 1 at the
first mismatch. Wider than the tier-1 comparison (|mu| <= 8, p <= 12);
the sweep takes about a minute on a 2-CPU Linux VM.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from fractions import Fraction

from bhecke.rgroup import glue_strip_geometric

MAX_MU = 12
MAX_P = 16
MS = ([Fraction(k, 2) for k in range(13)]
      + [Fraction(1, 3), Fraction(5, 4), Fraction(-1, 2), Fraction(-3, 2)])


def partitions(n: int, most: int | None = None):
    """The partitions of n with parts at most most, descending."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if most is None else most), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def contents(lam) -> Counter:
    return Counter(c - r for r, row in enumerate(lam, 1) for c in range(1, row + 1))


def entries(by_content: Counter, m: Fraction) -> Counter:
    """The m-tableau entry multiset |content + m| of a content histogram."""
    out = Counter()
    for x, k in by_content.items():
        out[abs(x + m)] += k
    return out


def strip_entries(p: int) -> Counter:
    return Counter(abs(Fraction(2 * k - p + 1, 2)) for k in range(p))


def contains(lam, mu) -> bool:
    return len(lam) >= len(mu) and all(a >= b for a, b in zip(lam, mu))


def sweep():
    """Yield (mu, p, m, glued, scanned) for every case in the range."""
    by_weight = {n: [(lam, contents(lam)) for lam in partitions(n)]
                 for n in range(MAX_MU + MAX_P + 1)}
    for m in MS:
        scan = defaultdict(list)
        for n, lams in by_weight.items():
            for lam, cs in lams:
                scan[n, frozenset(entries(cs, m).items())].append(lam)
        for l in range(MAX_MU + 1):
            for mu, cs in by_weight[l]:
                mu_entries = entries(cs, m)
                for p in range(1, MAX_P + 1):
                    want = frozenset((mu_entries + strip_entries(p)).items())
                    scanned = [lam for lam in scan.get((l + p, want), ()) if contains(lam, mu)]
                    yield mu, p, m, glue_strip_geometric(mu, p, m), scanned


def main() -> int:
    cases = 0
    for mu, p, m, glued, scanned in sweep():
        if glued != scanned:
            print(f"mismatch at mu={mu}, p={p}, m={m}: glue_strip_geometric gives "
                  f"{glued}, the scan {scanned}", file=sys.stderr)
            return 1
        cases += 1
    print(f"{cases} cases match (|mu| <= {MAX_MU}, p <= {MAX_P}, "
          f"{len(MS)} values of m)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
