"""Record the output fingerprints of finished runs as the reference.

    python3 perfbench/record.py

Reads every ``perfbench/out/result-*.json`` and stores the fingerprint of
each (workload, seed) in ``perfbench/fingerprints.json``, keeping entries for
seeds it has no result for. Refuses when two results of one (workload, seed)
disagree. Re-record only in a change that declares it changed outputs.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
FINGERPRINTS = BENCH / "fingerprints.json"


def main() -> int:
    recorded = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.exists() else {}
    seen: dict[tuple[str, str], str] = {}
    for path in sorted((BENCH / "out").glob("result-*.json")):
        doc = json.loads(path.read_text())
        key = (doc["env"]["workload"], str(doc["env"]["seed"]))
        digest = doc["fingerprint_sha256"]
        if seen.setdefault(key, digest) != digest:
            print(f"{key[0]} seed {key[1]}: results disagree ({path.name})", file=sys.stderr)
            return 1
    for (workload, seed), digest in seen.items():
        recorded.setdefault(workload, {})[seed] = digest
    for workload, seeds in recorded.items():
        if isinstance(seeds, dict):
            recorded[workload] = dict(sorted(seeds.items(), key=lambda kv: int(kv[0])))
    FINGERPRINTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(seen)} fingerprint(s) in {FINGERPRINTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
