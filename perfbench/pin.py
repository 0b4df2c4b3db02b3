"""Write ``pins.json``: reference digests of the benchmark's outputs.

    python3 perfbench/pin.py

Runs each fixture command without a golden file, and each workload once
for each seed in SEEDS, and records the sha256 digest of everything it
wrote.  It rewrites the whole file.  The pins are taken once, at the
commit that defines the benchmark; a later change that alters any output
byte then fails the benchmark's correctness check.
Only the run-and-digest path of ``run.py`` is used, so the pins and the
checks agree by construction.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

SEEDS = range(64)


def main() -> int:
    run.check_checkout()
    work = run.WORK_ROOT / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pins: dict = {"fixture": {}, "workloads": {}}
    tally = run.Tally()
    try:
        for name, (_, golden) in run.FIXTURE_COMMANDS.items():
            child, _, digest = run.run_fixture_command(name, work)
            if golden is None and tally.record(child.ok):
                pins["fixture"][name] = digest
        for name in run.COMMANDS:
            pins["workloads"][name] = {}
            for seed in SEEDS:
                seed_work = work / f"{name}-{seed}"
                seed_work.mkdir()
                sampler = run.Sampler(name, seed, seed_work, {"workloads": {}}, tally)
                if sampler.sample()[0].ok:
                    pins["workloads"][name][str(seed)] = sampler.reference
                shutil.rmtree(seed_work)
                print(f"{name} seed {seed}: {sampler.reference}", file=sys.stderr)
    finally:
        run.remove_work(work)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{tally.failed} of {tally.attempted} commands failed; their seeds are not pinned",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
