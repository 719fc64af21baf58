"""Write pinned.json: result digests of the first rounds under the pinned seed.

Run at a commit whose outputs are trusted, for every workload and size:

    python3 bench/pin.py

The benchmark compares later outputs of the same jobs against these
digests, so re-pin only when a change to the results is intended.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run
import workloads


def main() -> int:
    cli = run.load_program()
    pinned = {}
    for size in workloads.SIZES:
        pinned[size] = {}
        for workload in workloads.WORKLOADS:
            run.OUT.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
                stream = run.run_stream(cli.main, workload, run.PINNED_SEED, 0, run.Path(tmp),
                                        size=size, rounds=run.PINNED_ROUNDS, keep_digests=True)
            if stream.failed:
                print("\n".join(stream.problems), file=sys.stderr)
                return 1
            pinned[size][workload] = stream.digests
            print(f"{size} {workload}: {stream.attempted} jobs pinned")
    run.PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
