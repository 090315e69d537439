#!/usr/bin/env python3
"""Check the T^{1/6} spike-growth law under the scheduled
interpolation weight: for each horizon T the per-seed final spike is
compared against the high-probability growth bound.

Defaults: T in {1e3, 1e4, 1e5}, 20 seeds each, delta = 0.1. Any
`metasep growth` flag passes through.
"""

import sys

from metasep.cli import main

if __name__ == "__main__":
    sys.exit(main(["growth", *sys.argv[1:]]))
