"""The order and the text of labels are decided in one place,
``simplicial.label_key``, ``face_key`` and ``label_str``: a set of labels
(a matroid flat) has a repr and a str that follow the hash seed, and those
functions list its members in a fixed order.  So no file under ``src`` but
``simplicial.py`` may sort labels by ``repr`` or turn them into text by
``map(repr, ...)`` or ``map(str, ...)``, and no file at all may print a
face as ``{set(...)}``, whose members follow the hash seed:
``simplicial.face_str`` prints it."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SIMPLICIAL = SRC / "lorentzlab" / "simplicial.py"
HASH_ORDER = re.compile(r"key=repr\b|map\(repr,|map\(str,")
SET_TEXT = re.compile(r"\{set\(")


def test_only_simplicial_orders_labels():
    assert "def label_key" in SIMPLICIAL.read_text()
    offenders = []
    for path in sorted(SRC.glob("**/*.py")):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if SET_TEXT.search(line) or (path != SIMPLICIAL and HASH_ORDER.search(line)):
                offenders.append(f"{path.relative_to(SRC)}:{n}: {line.strip()}")
    assert not offenders, offenders
