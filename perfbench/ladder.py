"""Write the benchmark's ladder of group specs from their generators.

    python3 perfbench/ladder.py    # (re)write perfbench/specs/, then check |G|/|N|

S_n is generated by (0 1) and the n-cycle; A_n by (0 1 2) and an even
n-cycle (n odd) or (n-1)-cycle (n even).  GL2(p) is generated by the
matrices [1 1; 0 1], [1 0; 1 1] and [g 0; 0 1] with g a primitive root mod
p; SL2(p) by the first two.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPECS = HERE / "specs"

# file name -> (|G|, |N|)
EXPECTED = {
    "s5_a5.group": (120, 60),
    "s6_a6.group": (720, 360),
    "s7_a7.group": (5040, 2520),
    "gl2_5.matgroup": (480, 120),
    "gl2_7.matgroup": (2016, 336),
}


def _cycle(n: int, points: list[int]) -> list[int]:
    images = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    return images


def _symmetric_spec(n: int) -> str:
    even_cycle = list(range(n)) if n % 2 else list(range(1, n))
    lines = [f"# S{n} and its alternating subgroup, written by perfbench/ladder.py",
             f"label S{n}/A{n}", f"degree {n}"]
    lines += ["gen " + " ".join(map(str, g))
              for g in (_cycle(n, [0, 1]), _cycle(n, list(range(n))))]
    lines += ["normal " + " ".join(map(str, g))
              for g in (_cycle(n, [0, 1, 2]), _cycle(n, even_cycle))]
    return "\n".join(lines) + "\n"


def _gl2_spec(p: int, primitive_root: int) -> str:
    lines = [f"# GL2({p}) and SL2({p}), written by perfbench/ladder.py",
             f"label GL2({p})/SL2({p})", f"prime {p}",
             "matgen 1 1 0 1", "matgen 1 0 1 1", f"matgen {primitive_root} 0 0 1",
             "matnormal 1 1 0 1", "matnormal 1 0 1 1"]
    return "\n".join(lines) + "\n"


def ladder_texts() -> dict[str, str]:
    return {
        "s5_a5.group": _symmetric_spec(5),
        "s6_a6.group": _symmetric_spec(6),
        "s7_a7.group": _symmetric_spec(7),
        "gl2_5.matgroup": _gl2_spec(5, 2),
        "gl2_7.matgroup": _gl2_spec(7, 3),
    }


def check() -> bool:
    sys.path.insert(0, str(HERE.parent / "src"))
    from cosetchar.groupio import build_group, parse_group_spec

    ok = True
    for name, (g_order, n_order) in EXPECTED.items():
        start = time.perf_counter()
        G, N = build_group(parse_group_spec((SPECS / name).read_text()))
        good = (G.order, N.order) == (g_order, n_order)
        ok &= good
        print(f"{name}: |G| = {G.order}, |N| = {N.order}, expected "
              f"{g_order}/{n_order}, {'ok' if good else 'MISMATCH'} "
              f"({time.perf_counter() - start:.2f} s)")
    return ok


def main() -> int:
    SPECS.mkdir(exist_ok=True)
    for name, text in ladder_texts().items():
        (SPECS / name).write_text(text)
    return 0 if check() else 1


if __name__ == "__main__":
    sys.exit(main())
