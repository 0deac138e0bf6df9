"""Record the golden CLI outputs that run.py compares against.

    python3 perfbench/golden.py

Runs every CLI call of every workload once and writes its normalized JSON
output, gzip-compressed, to perfbench/golden/.  Record them only from a
commit whose outputs are known to be right; a later change that alters an
output must explain why in its own review, not re-record silently.
"""

from __future__ import annotations

import gzip
import json
import sys

from run import GOLDEN, SRC, WORKLOADS, golden_path, normalize, run_cli


def main() -> int:
    sys.path.insert(0, str(SRC))
    from cosetchar.cosets import UNITARITY_TOLERANCE

    calls = {(sub, spec, "--json") for wl in WORKLOADS.values()
             for sub, spec in wl.cli + wl.trace_extra}
    calls.add(("selftest", "--json"))
    GOLDEN.mkdir(exist_ok=True)
    for argv in sorted(calls):
        code, stdout, wall = run_cli(argv)
        if code != 0:
            print(f"{' '.join(argv)} exited with {code}", file=sys.stderr)
            return 1
        payload = normalize(argv, json.loads(stdout), UNITARITY_TOLERANCE)
        with open(golden_path(argv), "wb") as raw:
            with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":"))
                         .encode("utf-8"))
        print(f"{golden_path(argv).name}: {wall:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
