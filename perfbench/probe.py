"""Host-speed probe: fixed stdlib-only work of the kind flagclass does.

The benchmark runs this as a child process before and after every pass.
It starts an interpreter, does exact Fraction arithmetic, builds a heap of
a few megabytes of tuples and dicts, sorts and serializes, as the CLI
does.  Its code never changes with the program under test, so the ratio
of a pass to the probes around it cancels the host's speed at that moment.
"""
import json
from fractions import Fraction

acc = {}
for i in range(1, 8000):
    x = Fraction(i % 97 - 48, i % 13 + 1) * Fraction(3, i % 5 + 2) + Fraction(1, 7)
    key = (i % 101, x.numerator % 17)
    acc[key] = acc.get(key, 0) + x.denominator

rows = [tuple(Fraction((i * 7 + j) % 31 - 15, j % 5 + 1) for j in range(12)) for i in range(4000)]
table = {}
for r in rows:
    table.setdefault(sum(r), []).append(r)

print(len(json.dumps(sorted(acc.items()))), len(json.dumps(sorted((str(k), len(v)) for k, v in table.items()))))
