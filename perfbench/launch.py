"""Start `skelgrow` the way its console script does, and stamp set-up time.

Usage: python3 launch.py STAMP_FILE [skelgrow arguments...]

Writes `time.monotonic()` to STAMP_FILE once `skelgrow.cli` is imported,
then runs `skelgrow.cli.main` on the remaining arguments and exits with
its code. The parent reads the stamp against its own monotonic clock
(system-wide on Linux) to split each process's wall time into interpreter
set-up and work. With no skelgrow arguments it only imports and exits.
"""

import sys
import time

import skelgrow.cli

stamp = time.monotonic()
with open(sys.argv[1], "w") as fh:
    fh.write(repr(stamp))
if len(sys.argv) > 2:
    sys.exit(skelgrow.cli.main(sys.argv[2:]))
