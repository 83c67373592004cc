#!/usr/bin/env python3
"""Print the failing lines of the `suite` battery over a range of seeds.

Each seed's lines are the ones `suite` writes for it (`battery.seed_battery`);
the failing ones are printed in seed order, in the report format, and a count
goes to stderr. Comparing the output before and after a change shows whether
the battery's failure set moved.

    PYTHONPATH=src python scripts/battery_failures.py --seeds 0-1499
"""

import argparse
import sys

from reduction_lab.battery import seed_battery


def seed_range(text: str) -> range:
    """The seeds `first-last` (both included) or the one seed `first`."""
    first, _, last = text.partition("-")
    first, last = int(first), int(last or first)
    if not 0 <= first <= last:
        raise ValueError(text)
    return range(first, last + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="first-last, both included")
    args = parser.parse_args()
    failed = 0
    for seed in args.seeds:
        for line in seed_battery(seed):
            if not line.passed:
                print(line.format(), flush=True)
                failed += 1
    seeds = args.seeds
    print(f"{failed} failing lines over seeds {seeds.start}-{seeds.stop - 1}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
