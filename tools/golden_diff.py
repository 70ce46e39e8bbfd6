"""Explain how two digests of hardykit's outputs differ.

Compare the digest of a parent checkout with that of a child (both made by
tools/digest_outputs.py, e.g. the golden tests/golden/digest.txt and a
fresh run):

    python tools/golden_diff.py PARENT CHILD

It prints every moved line (parent as '-', child as '+') with its largest
relative numeric move, then the largest relative move per numeric field,
then a summary per line kind (the line's first word, or "(other)" where
that is not a plain word, as on expression lines): lines, moved lines,
lines whose only moves are numbers, lines with a moved 16-digit hash,
lines whose text moved beside the numbers, and lines that changed outcome
class, from a value to an error ("...Error") or back.  A numeric field is a
line kind with the name a number carries in the line ('kappa=', or a
('name', 'value') pair) or else its position among the line's numbers.
Lines are paired by position; where the two digests differ in length,
difflib pairs them, and lines present on one side only are listed apart.
"""

from __future__ import annotations

import difflib
import math
import re
import sys
from collections import defaultdict

_HASH = r"\b[0-9a-f]{16}\b"
_NUMBER = (r"(?<![\w.])[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?(?![\w.])"
           r"|(?<![\w.])-?inf\b|(?<![\w.])nan\b")
_TOKEN = re.compile(f"(?P<hash>{_HASH})|(?P<num>{_NUMBER})")
_NAME = re.compile(r"(?:(\w+)=|\('(\w+)', ')$")
_ERROR = re.compile(r"\b\w+Error\b")
_KIND = re.compile(r"[A-Za-z_][\w-]*$")


def kind_of(line: str) -> str:
    """The line's first word where it is a plain word, else '(other)'."""
    words = line.split()
    return words[0] if words and _KIND.match(words[0]) else "(other)"


def tokens(line: str) -> tuple[str, list[tuple[str, float]], list[str]]:
    """(skeleton, [(field name, value)], hashes) of a digest line: the
    skeleton is the line with each number and hash replaced by a mark."""
    numbers, hashes, parts, last = [], [], [], 0
    for m in _TOKEN.finditer(line):
        parts.append(line[last:m.start()])
        last = m.end()
        if m.group("hash"):
            hashes.append(m.group())
            parts.append("<hash>")
            continue
        named = _NAME.search(line, 0, m.start())
        name = (named.group(1) or named.group(2)) if named else f"#{len(numbers)}"
        numbers.append((name, float(m.group())))
        parts.append("<num>")
    parts.append(line[last:])
    return "".join(parts), numbers, hashes


def relative_move(old: float, new: float) -> float:
    """|new - old| / |old|; 0 for equal values (NaN with NaN included), inf
    for a move from 0 or into or out of a non-finite value."""
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if old == 0.0 or not (math.isfinite(old) and math.isfinite(new)):
        return math.inf
    return abs(new - old) / abs(old)


def pair_lines(parent: list[str], child: list[str]):
    """Yield (parent index, child index) pairs, an index None for a line
    on one side only."""
    if len(parent) == len(child):
        yield from ((i, i) for i in range(len(parent)))
        return
    matcher = difflib.SequenceMatcher(None, parent, child, autojunk=False)
    for _, i1, i2, j1, j2 in matcher.get_opcodes():
        for k in range(max(i2 - i1, j2 - j1)):
            i = i1 + k if k < i2 - i1 else None
            j = j1 + k if k < j2 - j1 else None
            yield i, j


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    with open(argv[0]) as f:
        parent = f.read().splitlines()
    with open(argv[1]) as f:
        child = f.read().splitlines()

    kinds: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    fields: dict[tuple[str, str], tuple[float, int]] = {}
    moved = 0
    for i, j in pair_lines(parent, child):
        line = parent[i] if i is not None else child[j]
        kind = kind_of(line)
        stats = kinds[kind]
        stats["lines"] += 1
        if i is None or j is None:
            stats["one side"] += 1
            where = f"child line {j + 1}" if i is None else f"parent line {i + 1}"
            print(f"@@ {where} {kind}: on one side only\n{'+' if i is None else '-'} {line}\n")
            continue
        if parent[i] == child[j]:
            continue
        moved += 1
        stats["moved"] += 1
        old_skel, old_nums, old_hashes = tokens(parent[i])
        new_skel, new_nums, new_hashes = tokens(child[j])
        notes = []
        worst, worst_name = 0.0, None
        if len(old_nums) == len(new_nums):
            for (name, old), (_, new) in zip(old_nums, new_nums):
                rel = relative_move(old, new)
                if rel > 0.0:
                    stats["max rel"] = max(stats["max rel"], rel)
                    if rel > fields.get((kind, name), (0.0, 0))[0]:
                        fields[kind, name] = (rel, j + 1)
                    if rel > worst:
                        worst, worst_name = rel, name
        if old_hashes != new_hashes:
            stats["hash"] += 1
            notes.append("hash moved")
        if old_skel != new_skel or len(old_nums) != len(new_nums):
            stats["text"] += 1
            notes.append("text moved")
        elif old_hashes == new_hashes:
            stats["numbers only"] += 1
        if bool(_ERROR.search(parent[i])) != bool(_ERROR.search(child[j])):
            stats["outcome"] += 1
            notes.append("OUTCOME CLASS CHANGED")
        if worst_name is not None:
            notes.insert(0, f"largest relative move {worst:.3g} ({worst_name})")
        where = f"line {j + 1}" if i == j else f"parent line {i + 1}, child line {j + 1}"
        print(f"@@ {where} {kind}: {'; '.join(notes)}\n- {parent[i]}\n+ {child[j]}\n")

    print(f"{moved} moved lines (parent {len(parent)} lines, child {len(child)})\n")
    print("largest relative move per numeric field (kind, field, move, child line):")
    for (kind, name), (rel, line_no) in sorted(fields.items(), key=lambda kv: -kv[1][0]):
        print(f"  {kind:24s} {name:20s} {rel:10.3g}  {line_no}")
    columns = ("lines", "moved", "numbers only", "hash", "text", "outcome", "one side")
    print("\nsummary per line kind:")
    print(f"  {'kind':24s}" + "".join(f"{c:>14s}" for c in columns) + f"{'max rel':>12s}")
    for kind in sorted(kinds, key=lambda k: (-kinds[k]["moved"], k)):
        stats = kinds[kind]
        print(f"  {kind:24s}" + "".join(f"{int(stats[c]):14d}" for c in columns)
              + f"{stats['max rel']:12.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
