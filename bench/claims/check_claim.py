#!/usr/bin/env python3
"""Runs one claim bench and checks its exit status and its stdout digest.

usage: check_claim.py BENCH DIGEST_FILE

A claim bench exits 1 when one of its headline claims fails. This check
also holds its printed tables still: stdout, less any wall-time line (a
line naming `wall`, as host-time reports do), must hash to the 64-bit
FNV-1a value in DIGEST_FILE. Every number these benches print is simulated,
so the digest moves only when a result does. With DAOS_UPDATE_GOLDEN=1 the
check writes the digest instead, as the golden tests do.
"""
import os
import re
import subprocess
import sys

WALL_LINE = re.compile(r"\bwall", re.IGNORECASE)


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench, digest_file = sys.argv[1:]
    run = subprocess.run([bench], stdout=subprocess.PIPE, check=False)
    kept = b"".join(line for line in run.stdout.splitlines(keepends=True)
                    if not WALL_LINE.search(line.decode(errors="replace")))
    digest = f"{fnv1a64(kept):016x}"
    if run.returncode != 0:
        sys.stdout.buffer.write(run.stdout)
        print(f"{bench} exited {run.returncode}: a claim failed",
              file=sys.stderr)
        return 1
    if os.environ.get("DAOS_UPDATE_GOLDEN") == "1":
        with open(digest_file, "w") as f:
            f.write(digest + "\n")
        print(f"recorded {digest} in {digest_file}")
        return 0
    with open(digest_file) as f:
        want = f.read().strip()
    if digest != want:
        sys.stdout.buffer.write(run.stdout)
        print(f"{bench}: stdout digest {digest}, recorded {want}",
              file=sys.stderr)
        return 1
    print(f"{bench}: claims hold, stdout digest {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
