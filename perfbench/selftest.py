"""Self-tests of the benchmark on small problem sizes.

    python3 perfbench/selftest.py

Each test runs the real orchestrator and worker on shrunken workloads
(oscillators of 3-4 levels, a 3-level custom model, 2x2 and 3x3 random
generators), against references recorded into a scratch directory by the
first test.  Takes about a minute.
"""
import os
import shutil
import sys
import traceback

import run

SCRATCH = os.path.join(run.HERE, "_work", "selftest")
REFS = os.path.join(SCRATCH, "references")
SEED = 5


def _measure(workload, trace, refdir=REFS, record=False):
    return run.measure(workload, SEED, seconds=0, trace=trace, small=True, refdir=refdir,
                       record=record, probes=1)


def test_small_workloads_pass_their_checks():
    import workloads

    for name in workloads.WORKLOADS:
        _measure(name, 0, record=True)
        summary = run.summarize(_measure(name, 0))
        assert summary["correct"], (name, summary["failures"])
        assert all(job["status"] == "ok" or job["name"] == "check_family_osc_mid"
                   for job in summary["failures"]), summary["failures"]
        assert summary["metrics"]["setup_s"] > 0
        assert summary["metrics"]["peak_rss_mb"] > 0


def test_wrappers_reach_names_bound_at_import():
    # nonmarkov binds expm by name at import; post_markovian_evolve calls it
    # only through that binding.
    import numpy as np
    from openqdyn import gksl, liouville, nonmarkov, operators
    from tracer import Tracer

    original = liouville.expm
    tracer = Tracer()
    tracer.install()
    assert nonmarkov.expm is liouville.expm is not original
    L = gksl.superop_of_generator(gksl.GKSLGenerator(
        H=operators.sigma_z, jumps=[(0.2, operators.sigma_minus)]))
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    tracer.reset()
    nonmarkov.post_markovian_evolve(L, nonmarkov.MemoryKernel(g=10.0), rho0, [0.0, 0.5],
                                    steps=20)
    assert tracer.stats["liouville.expm"].calls > 0

    metrics = run.summarize(_measure("nonmarkov-osc10", 1))["metrics"]
    assert metrics["liouville.expm.calls"] > 0
    assert metrics["nonmarkov.tcl2_generator.calls"] > 0
    assert metrics["weakcoupling.BathModel.correlation_table.calls"] > 0


def test_self_times_sum_to_each_jobs_traced_wall():
    for name in ("nonmarkov-osc10", "analysis-sweep", "api-certify"):
        for job in _measure(name, 1)["passes"][0]["jobs"]:
            gap = abs(job["self_sum_s"] - job["wall_s"])
            assert gap <= 1e-3 * job["wall_s"] + 2e-4, (name, job)


def test_call_counts_repeat_across_traced_runs():
    for name in ("markov-osc20", "nonmarkov-osc10", "analysis-sweep"):
        counts = []
        for _ in range(2):
            trace = _measure(name, 1)["passes"][0]["trace"]
            counts.append({k: v for k, v in trace.items() if not k.endswith("_s")})
        assert counts[0] == counts[1], name


def test_wrong_reference_raises_fail_ratio():
    bad = os.path.join(SCRATCH, "bad_references")
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(REFS, bad)
    path = os.path.join(bad, "evolve_osc_T1.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[-1].split(",")
    cells[1] = f"{float(cells[1]) * 1.001:.11e}"          # one cell off by 0.1 %
    lines[-1] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    summary = run.summarize(_measure("markov-osc20", 0, refdir=bad))
    assert not summary["correct"]
    assert summary["metrics"]["fail_ratio"] == 0.5
    good = run.summarize(_measure("markov-osc20", 0))
    assert good["correct"] and good["metrics"]["fail_ratio"] == 0.0


def main():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    for var in run.THREAD_VARS:
        os.environ[var] = str(run.BLAS_THREADS)
    sys.path.insert(0, run.SRC)
    failures = 0
    try:
        for name, fn in [(n, f) for n, f in globals().items() if n.startswith("test_")]:
            try:
                fn()
                print(f"PASS {name}")
            except Exception:
                failures += 1
                print(f"FAIL {name}")
                traceback.print_exc()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
