#!/usr/bin/env python3
"""Builds README.md's RQ3 table from two `ids-verify suite --json` runs and
checks the README against them.

Usage: python3 ci/rq3_table.py DECIDABLE.json QUANTIFIED.json [README.md]

DECIDABLE.json is the output of `ids-verify suite --jobs 1 --json`, and
QUANTIFIED.json that of the same command with `--quantified`. The script
prints the table as Markdown, with this run's times. It exits 1 if a row's
structure, method, VC count, decision count under either encoding or "same
query" mark, or the totals row, differs from the README's table (times are
not compared), or if the README's example summary line of `ids-verify suite
--jobs 1` differs from the decidable run's, wall time aside.

"Same query" marks a method without a call: only call frames and the growth
of Alloc differ between the encodings, so its VCs are the same under both.
Standard library only.
"""

import json
import re
import sys

HEADER = ("| structure | method | VCs | decidable s | decidable decisions "
          "| quantified s | quantified decisions | same query |")
COMPARED = (0, 1, 2, 4, 6, 7)  # every column but the two times
WALL = re.compile(r"\| wall [0-9.]+s ")


def table(decidable, quantified):
    """The table's rows, totals last, as lists of cell strings."""
    quant = {(r["structure"], r["method"]): r for r in quantified["rows"]}
    rows, same = [], 0
    for r in decidable["rows"]:
        q = quant[(r["structure"], r["method"])]
        call_free = not any("::call " in v["description"] for v in r["vc_reports"])
        same += call_free
        rows.append([r["structure"], f"`{r['method']}`", f"{r['vcs']:,}",
                     f"{r['time_s']:.3f}", f"{r['solver']['decisions']:,}",
                     f"{q['time_s']:.3f}", f"{q['solver']['decisions']:,}",
                     "yes" if call_free else ""])

    def total(run, field):
        return sum(r[field] for r in run["rows"])

    rows.append(["**total**", "", f"{total(decidable, 'vcs'):,}",
                 f"{total(decidable, 'time_s'):.2f}",
                 f"{decidable['stats']['solver']['decisions']:,}",
                 f"{total(quantified, 'time_s'):.2f}",
                 f"{quantified['stats']['solver']['decisions']:,}",
                 f"{same} of {len(decidable['rows'])}"])
    return rows


def readme_table(lines):
    """The README's RQ3 rows, totals last, as lists of cell strings."""
    start = lines.index(HEADER) + 2  # past the header and its separator
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def summary(decidable):
    """The summary line `ids-verify suite` prints, wall time blanked."""
    s = decidable["stats"]
    verified = sum(r["verified"] for r in decidable["rows"])
    return (f"{s['methods']} methods ({verified} verified, "
            f"{s['methods'] - verified} failed), {s['vcs']} VCs | "
            f"cache hits {s['cache_hits']}, SMT queries {s['smt_queries']}, "
            f"skipped {s['skipped_vcs']} ({s['cancellations']} cancelled in "
            f"flight) | prelude reused {s['solver']['prelude_reused']}, "
            f"lowered {s['solver']['prelude_lowered']} | "
            f"(jobs={decidable['jobs']})")


def main(argv):
    if len(argv) not in (3, 4):
        sys.exit(__doc__)
    decidable, quantified = (json.load(open(path)) for path in argv[1:3])
    with open(argv[3] if len(argv) == 4 else "README.md", encoding="utf-8") as f:
        lines = f.read().splitlines()

    rows = table(decidable, quantified)
    print(HEADER)
    print("|---|---|---:|---:|---:|---:|---:|:---:|")
    for row in rows:
        print("| " + " | ".join(row) + " |")

    failures = []
    documented = readme_table(lines)
    if len(documented) != len(rows):
        failures.append(f"README has {len(documented)} rows, the runs {len(rows)}")
    for doc, run in zip(documented, rows):
        if [doc[i] for i in COMPARED] != [run[i] for i in COMPARED]:
            failures.append(f"README row {doc} differs from the runs' {run}")
    example = [WALL.sub("| ", l) for l in lines if WALL.search(l) and " methods (" in l]
    if example != [summary(decidable)]:
        failures.append(f"README summary line {example} differs from the run's "
                        f"{summary(decidable)!r} (wall time aside)")
    for failure in failures:
        print("error:", failure, file=sys.stderr)
    if failures:
        return 1
    print(f"README's RQ3 table ({len(rows) - 1} rows and totals) and summary line match the runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
