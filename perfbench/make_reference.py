"""Regenerate reference.json, the reproduce workload's expected curves.

    python3 perfbench/make_reference.py

Runs ``ordstat reproduce 1..4`` on the default grid and keeps every tenth
CSV row (and the last) of the survival and hazard columns, plus the st/hr
verdicts.  The checked-in file was made from the seed program; regenerate
it only when a change to the curves is intended.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ordstat.cli  # noqa: E402  (cli loads every module the workloads call)

from run import OUT, git_commit  # noqa: E402
from workloads import report_verdicts  # noqa: E402

ROW_STEP = 10


def _cell(text: str):
    return float(text) if text else None


def main() -> int:
    work = OUT / "reference-work"
    examples = {}
    try:
        for k in (1, 2, 3, 4):
            with contextlib.redirect_stdout(io.StringIO()):
                ordstat.cli.main(["reproduce", str(k), "--out-dir", str(work)])
            rows = [line.split(",") for line in
                    (work / f"example{k}_curves.csv").read_text().splitlines()[1:]]
            keep = sorted(set(range(0, len(rows), ROW_STEP)) | {len(rows) - 1})
            examples[str(k)] = {
                "rows": [[i] + [_cell(rows[i][c]) for c in (2, 3, 4, 5)] for i in keep],
                "verdicts": report_verdicts((work / f"example{k}_report.txt").read_text())}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {"commit": git_commit(), "row_fields": ["row", "sf_X", "sf_Y", "hr_X", "hr_Y"],
           "examples": examples}
    # one row per line keeps the file small and its diffs readable
    rows = {}
    for k, ex in examples.items():
        rows[k] = "[\n" + ",\n".join("    " + json.dumps(r) for r in ex["rows"]) + "]"
        ex["rows"] = f"@rows{k}@"
    text = json.dumps(doc, indent=1)
    for k, block in rows.items():
        text = text.replace(f'"@rows{k}@"', block)
    Path(__file__).with_name("reference.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
