"""Record the reference outputs that the benchmark's gates compare against.

    python3 perfbench/make_reference.py

Run it only on a commit whose verdicts are trusted: it overwrites
``perfbench/reference/``.  It stores the ``classify --format json``
report of every classify degree, and for every workload the status of
each panel map (decided with the default seed), with a digest of that
list.
"""

from __future__ import annotations

import json
import os
import resource
import sys

import run
from workloads import (
    CLASSIFY_DEGREES, DEFAULT_SEED, REFERENCE_DIR, WORKLOADS, Observations, classify_output,
    decide_panel, load_package, reference_path, status_digest,
)

def main() -> int:
    resource.setrlimit(resource.RLIMIT_AS, (run.AS_LIMIT_BYTES, run.AS_LIMIT_BYTES))
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    ng = load_package()
    for n in CLASSIFY_DEGREES:
        rc, text = classify_output(ng, n)
        if rc != 0:
            print(f"classify --degree {n} exited {rc}", file=sys.stderr)
            return 1
        with open(os.path.join(REFERENCE_DIR, f"classify-{n}.json"), "w", encoding="utf-8") as fh:
            fh.write(text)
    for name, w in WORKLOADS.items():
        obs = Observations()
        decide_panel(ng, obs, w, DEFAULT_SEED, 0, False)
        if obs.wrong:
            print("\n".join(obs.wrong), file=sys.stderr)
            return 1
        rows = [[i, s] for _, i, s in obs.statuses]
        with open(reference_path(name), "w", encoding="utf-8") as fh:
            json.dump({"seed": DEFAULT_SEED, "digest": status_digest(rows), "statuses": rows},
                      fh, indent=0)
            fh.write("\n")
        print(f"{name}: {len(rows)} panel maps, {obs.failed} failed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
