"""Rewrite the reference outputs of the seed-independent jobs.

    python3 perfbench/make_references.py

Runs every workload once and copies the output of each job that has a
reference into perfbench/references/.  Regenerate only for a correctness fix
of the program, and state the reason in CHANGES.md: the references pin the
numbers of the commit that made them.
"""
import os
import sys

import run


def main():
    sys.path.insert(0, run.SRC)
    import workloads

    for name in workloads.WORKLOADS:
        raw = run.measure(name, seed=1, seconds=0, trace=0, record=True)
        bad = [j for p in raw["passes"] for j in p["jobs"] if j["status"] == "wrong"]
        print(f"{name}: {len(raw['passes'][0]['jobs'])} jobs, {len(bad)} wrong")
        for job in bad:
            print(f"  {job['name']}: {job['message']}")
    return 0


if __name__ == "__main__":
    for var in run.THREAD_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    sys.exit(main())
