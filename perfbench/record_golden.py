"""Record the golden colors digests and round counts at the default seed.

Run from the repository root::

    python3 perfbench/record_golden.py

The ``oocore-cor36`` entry comes from the in-memory batch backend on the
same graph spec, so the benchmark's out-of-core jobs must stay bit-identical
to batch.  The other entries pin the batch results the workloads produce
themselves: every cor36-warm spec, the selfstab cold start, and the first
schedule cycle of bursts.
"""

import json
import os
import sys

import run  # noqa: F401  (pins BLAS threads and clears REPRO_* first)

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import repro  # noqa: E402
import workloads  # noqa: E402


def _entry(record):
    if not record.ok:
        raise SystemExit("%s failed: %s" % (record.label, "; ".join(record.errors)))
    return {"digest": record.digest, "rounds": record.rounds}


def _run_facade(workload, key):
    record, outcome = workload.execute(key, None)
    workload.verify(record, outcome)
    return _entry(record)


def record_cor36(seed, workdir):
    workload = workloads.make_workload("cor36-warm", seed, workdir, None)
    workload.setup()
    return {key: _run_facade(workload, key) for key in sorted(workload.specs)}


def record_oocore(seed, workdir):
    workload = workloads.make_workload("oocore-cor36", seed, workdir, None)
    spec = dict(workload.specs["cor36"], backend="batch")
    outcome = repro.run(spec)
    if not outcome.ok:
        raise SystemExit("batch cor36 failed: %r" % (outcome.error,))
    return {"cor36": {"digest": workloads.digest(outcome.colors), "rounds": outcome.rounds}}


def record_selfstab(seed, workdir):
    workload = workloads.make_workload("selfstab-bursts", seed, workdir, None)
    workload.setup()
    cold = _entry(workload.setup_record())
    for key in workload.warmup_keys():
        record, result = workload.execute(key, workload.prepare(key))
        workload.verify(record, result)
        _entry(record)
    bursts = []
    for key in workload.next_cycle():
        record, result = workload.execute(key, workload.prepare(key))
        workload.verify(record, result)
        bursts.append(_entry(record))
    return {"cold": cold, "bursts": bursts}


def main():
    seed = run.DEFAULT_SEED
    workdir = os.path.join(os.getcwd(), ".bench_work", "golden")
    golden = {
        "seed": seed,
        "workloads": {
            "cor36-warm": record_cor36(seed, workdir),
            "selfstab-bursts": record_selfstab(seed, workdir),
            "oocore-cor36": record_oocore(seed, workdir),
        },
    }
    path = os.path.join(run.HERE, "golden.json")
    with open(path, "w") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % path)


if __name__ == "__main__":
    main()
