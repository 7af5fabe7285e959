"""Compare two lpverify reports, suite by suite.

    python scripts/report_diff.py A B

A and B are each a ``report.json``, a report directory (``--out`` of
``lpverify run``), or a directory of report directories; single reports are
matched by their suite name, and directories of them by report directory.  Per suite this prints:

- whether the two reports are byte-identical once ``timings`` is left out;
- each check whose pass/fail changed, and each change of the support
  audit's violation count;
- the largest relative move |a - b| / max(|a|, |b|) over the numbers of
  the two reports, counting only pairs with a value above 1e-12.

Exit code 1 if any check's pass/fail changed, or a suite is in one side
only; 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

_FLOOR = 1e-12


def _reports(path: Path) -> dict[str, dict]:
    """{label: report} found at ``path``: the suite name for one report, the
    report directory's name and the suite name for a directory of them."""
    if path.is_dir() and (path / "report.json").exists():
        path = path / "report.json"
    if path.is_file():
        report = json.loads(path.read_text())
        return {report["config"]["suite"]: report}
    out = {}
    for f in sorted(path.glob("*/report.json")):
        report = json.loads(f.read_text())
        out[f"{f.parent.name} ({report['config']['suite']})"] = report
    return out


def _numbers(node, where: str = ""):
    """(path, value) of every number in a JSON tree, in a fixed order."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _numbers(node[key], f"{where}/{key}")
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _numbers(item, f"{where}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield where, float(node)


def _largest_move(a: dict, b: dict) -> tuple[float, str]:
    worst, at = 0.0, ""
    for (pa, va), (pb, vb) in zip(_numbers(a), _numbers(b)):
        if pa != pb or not (math.isfinite(va) and math.isfinite(vb)):
            continue
        top = max(abs(va), abs(vb))
        if top > _FLOOR and va != vb and abs(va - vb) / top > worst:
            worst, at = abs(va - vb) / top, pa
    return worst, at


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """(lines to print, whether any pass/fail changed) for one suite."""
    a = {k: v for k, v in a.items() if k != "timings"}
    b = {k: v for k, v in b.items() if k != "timings"}
    same = json.dumps(a, indent=2, sort_keys=True) == json.dumps(b, indent=2, sort_keys=True)
    lines = [f"  byte-identical without timings: {'yes' if same else 'no'}"]
    flipped = a.get("passed") != b.get("passed")
    if flipped:
        lines.append(f"  suite passed: {a.get('passed')} -> {b.get('passed')}")
    checks_b = {(c["name"], c["anchor"]): c for c in b.get("checks", [])}
    for c in a.get("checks", []):
        other = checks_b.get((c["name"], c["anchor"]))
        if other is None:
            lines.append(f"  check {c['name']}: missing in B")
            flipped = True
            continue
        if c["passed"] != other["passed"]:
            lines.append(f"  check {c['name']}: passed {c['passed']} -> {other['passed']}")
            flipped = True
        if c["name"] == "support-audit" and c["value"] != other["value"]:
            lines.append(f"  check {c['name']}: violations {c['value']:g} -> {other['value']:g}")
    move, at = _largest_move(a, b)
    lines.append(f"  largest relative move: {move:.3g}" + (f" at {at}" if at else ""))
    return lines, flipped


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = p.parse_args(argv)
    ra, rb = _reports(args.a), _reports(args.b)
    failed = False
    for suite in sorted(set(ra) | set(rb)):
        print(suite)
        if suite not in ra or suite not in rb:
            print(f"  only in {'A' if suite in ra else 'B'}")
            failed = True
            continue
        lines, flipped = compare(ra[suite], rb[suite])
        print("\n".join(lines))
        failed |= flipped
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
