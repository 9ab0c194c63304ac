"""``HomPoly._trusted`` builds a polynomial without checking its terms; it
is for results that ``polycore`` computes from already valid polynomials.
Every other module, the input parsers included, must build through the
validating ``HomPoly`` constructor, so no file but ``polycore.py`` may name
the trusted constructor or the slot filler behind it."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
POLYCORE = ROOT / "src" / "lorentzlab" / "polycore.py"
PRIVATE = re.compile(r"\b_trusted\b|\b_fill\b")


def test_only_polycore_builds_unchecked_polynomials():
    assert PRIVATE.search(POLYCORE.read_text())
    offenders = []
    for path in sorted(ROOT.glob("**/*.py")):
        if path == POLYCORE or path == Path(__file__).resolve():
            continue
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if PRIVATE.search(line):
                offenders.append(f"{path.relative_to(ROOT)}:{n}: {line.strip()}")
    assert not offenders, offenders
