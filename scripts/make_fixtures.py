#!/usr/bin/env python3
"""Regenerate the bundled strategy and dilation fixtures."""

from pathlib import Path

from selftest_lab import lab, serialize

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"


def main():
    FIXTURES.mkdir(exist_ok=True)
    out = {
        "chsh.json": serialize.strategy_to_jsonable(lab.canonical_chsh()),
        "trine.json": serialize.strategy_to_jsonable(lab.trine_strategy()),
        "trine_minimal_naimark.json": serialize.dilation_to_jsonable(
            lab.minimal_trine_dilation()
        ),
    }
    for name, payload in out.items():
        path = FIXTURES / name
        path.write_text(serialize.dumps_json(payload))
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
