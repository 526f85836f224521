#!/usr/bin/env python3
"""Full randomized certification of the divergence risk bounds: prints one
line per inequality with its minimum slack over the random instance suite."""
import argparse
import sys

from edglab import bounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=1000)
    parser.add_argument("--decomposition-pairs", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1, help="accepted and ignored: certification starts no threads")
    args = parser.parse_args()

    results = bounds.run_certification(
        instances=args.instances,
        decomposition_pairs=args.decomposition_pairs,
        seed=args.seed,
        workers=args.workers,
    )
    for r in results:
        extra = f" attainment {r.max_abs_attainment:.2e}" if r.max_abs_attainment is not None else ""
        print(f"{r.name:22s} n={r.instances:6d} min slack {r.min_slack: .3e}{extra}  {'ok' if r.passed else 'VIOLATED'}")
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
