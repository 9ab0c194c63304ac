"""Report checks behind ``fail_rate``.

A request fails when it raised (a traceback), exited with code 2, printed a
report that is not JSON, exited with a code that does not match its verdict,
reported ``witness_verified: false``, contradicted one of its expectations,
or disagreed with the verdict of the request it is paired with.
"""

from __future__ import annotations

import json

EXIT_CODES = {"yes": 0, "success": 0, "no": 1}


def _observed(key: str, rep: dict):
    if key == "polynomial":
        return sorted([list(t["exps"]), t["coeff"]] for t in rep["polynomial"]["terms"])
    if key == "cones":
        return len(rep["fan"]["cones"])
    if key == "rays":
        return len(rep["fan"]["rays"])
    if key == "fan_cones":
        return sorted(sorted(c) for c in rep["fan"]["cones"])
    if key == "weights_all":
        values = {e["w"] for e in rep["weights"]}
        return values.pop() if len(values) == 1 else sorted(values)
    return rep.get(key)


def check(req: dict, code, out: str, error: str | None, verdicts: dict) -> tuple[str | None, str | None]:
    """Returns (verdict, problem); problem is None when the request passed."""
    if error is not None:
        return None, "traceback: " + error.strip().splitlines()[-1]
    if code == 2:
        return None, "exit code 2"
    try:
        rep = json.loads(out)
    except ValueError:
        return None, "report is not JSON"
    verdict = rep.get("verdict")
    if EXIT_CODES.get(verdict) != code:
        return verdict, f"exit code {code} does not match verdict {verdict!r}"
    if rep.get("witness_verified") is False:
        return verdict, "witness_verified is false"
    for key, want in req.get("expect", {}).items():
        try:
            got = _observed(key, rep)
        except (KeyError, TypeError) as e:
            return verdict, f"{key}: report lacks {e}"
        if got != want:
            return verdict, f"{key}: expected {want!r}, got {got!r}"
    pair = req.get("same_verdict_as")
    if pair is not None and verdicts.get(pair) != verdict:
        return verdict, f"verdict {verdict!r} differs from {verdicts.get(pair)!r} of {pair}"
    return verdict, None
