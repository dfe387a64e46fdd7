"""Check pinned metrics of one perfbench result line.

    tail -n 1 RESULT | python3 .github/check_pins.py PIN...

The result line is the JSON object that ``perfbench/run.py`` prints last.
Each PIN names a metric under its "metrics" and is either ``KEY=VALUE``
(the metric's value equals VALUE, read as JSON) or ``KEY>0`` (the metric
is present and its value is above zero).  Exits 1 naming every pin that
fails, or the first malformed one.
"""

import json
import sys


def parse(pin: str) -> tuple:
    """(key, wanted value) of a pin; the value is None for KEY>0."""
    if pin.endswith(">0"):
        return pin[:-2], None
    key, sep, want = pin.partition("=")
    try:
        if sep:
            return key, json.loads(want)
    except ValueError:
        pass
    sys.exit(f"malformed pin {pin!r}: expected KEY=VALUE or KEY>0")


def failures(metrics: dict, pins: list[str]) -> list[str]:
    bad = []
    for key, want in map(parse, pins):
        value = metrics.get(key, {}).get("value")
        if want is None and not (isinstance(value, (int, float)) and value > 0):
            bad.append(f"{key} is {value}, expected > 0")
        elif want is not None and value != want:
            bad.append(f"{key} is {value}, expected {want}")
    return bad


if __name__ == "__main__":
    bad = failures(json.load(sys.stdin)["metrics"], sys.argv[1:])
    sys.exit("; ".join(bad) if bad else 0)
