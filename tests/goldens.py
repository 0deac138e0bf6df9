"""Byte-for-byte goldens of CLI standard output.

A golden file is a gzip-compressed JSON list with one entry per command
line: its argv, relative to the repository root, and the exact standard
output of `cosetchar` run with it.  `record` writes one from the current
sources; the tests compare each entry's output byte for byte.
"""

import contextlib
import gzip
import io
import json
from pathlib import Path

from cosetchar.cli import main

ROOT = Path(__file__).resolve().parent.parent


def resolved(argv):
    """argv with repository-relative file names made absolute."""
    return [str(ROOT / a) if (ROOT / a).is_file() else a for a in argv]


def load(golden: Path):
    with gzip.open(golden, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def record(golden: Path, command_lines):
    entries = []
    for argv in command_lines:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(resolved(argv))
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        entries.append({"argv": argv, "stdout": out.getvalue()})
    golden.parent.mkdir(exist_ok=True)
    with gzip.GzipFile(golden, "wb", mtime=0) as fh:
        fh.write(json.dumps(entries, indent=1).encode("utf-8"))
    print(f"{len(entries)} command lines recorded in {golden.relative_to(ROOT)}")
