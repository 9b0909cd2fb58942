#!/usr/bin/env python3
"""Check a perfbench run's ledger digest against the pinned one.

    python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0 \\
        | python3 tools/check_perfbench_digest.py W

Reads the run's output from stdin and passes it through. Finds its
"ledger" line and compares the digest with W's line in
tools/perfbench_digests.txt. Exits non-zero when W is not pinned, the run
printed no ledger line, or the digests differ.
"""
import json
import os
import sys

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "perfbench_digests.txt")


def pinned_digests():
    digests = {}
    with open(PINNED) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                workload, digest = line.split()
                digests[workload] = digest
    return digests


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    workload = sys.argv[1]
    want = pinned_digests().get(workload)
    if want is None:
        sys.exit(f"check_perfbench_digest: {workload} has no pinned digest")
    got = None
    for line in sys.stdin:
        sys.stdout.write(line)
        if line.startswith("ledger "):
            got = json.loads(line[len("ledger "):])["digest"]
    if got is None:
        sys.exit("check_perfbench_digest: the run printed no ledger line")
    if got != want:
        sys.exit(f"check_perfbench_digest: {workload} ledger digest {got} "
                 f"!= pinned {want} (a deliberate re-baseline updates "
                 f"tools/perfbench_digests.txt)")
    print(f"check_perfbench_digest: {workload} digest {got} matches")


if __name__ == "__main__":
    main()
