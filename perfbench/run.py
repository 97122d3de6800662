"""openqdyn benchmark: one workload per call, or all of them.

    python3 perfbench/run.py --workload markov-osc20 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

For one workload it generates the seeded inputs, times ``import openqdyn``
plus the lazy set-up in several fresh interpreters, then runs the measured
interpreter (``worker.py``) with ``PYTHONPATH=<checkout>/src`` and the
BLAS/OpenMP thread variables set to the CPU count.  It prints every metric
by name with its unit, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0`` and
its per-layer metrics with ``--trace 1``.  ``--workload all`` runs every
workload untraced and traced and prints one table, including the tracing
overhead.  See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFDIR = os.path.join(HERE, "references")
PROBES = 3                  # fresh interpreters timed for setup_s
RUN_TIMEOUT = 160           # seconds allowed to the measured interpreter
PROBE_TIMEOUT = 60
VERBS = ("evolve", "derive", "check", "steady", "spectrum", "nonmarkov", "api")
# BLAS/OpenMP threads of the measured interpreters: one per CPU, the default
# a user gets.  On the 2-vCPU machine of the baseline, one thread ran faster
# but its times jumped by up to 30% from run to run with the load on the
# host; two threads held markov-osc20 within 4%.
BLAS_THREADS = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")




def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    env.pop("OQS_NUM_THREADS", None)
    return env


def environment():
    """Machine and library record printed with each result."""
    import numpy
    import scipy

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "threads": BLAS_THREADS}


def _child(mode, plan_path, timeout):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), mode, plan_path],
                          env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, seconds, trace, small=False, refdir=REFDIR, record=False,
            probes=PROBES):
    """Prepare, probe and run one workload; returns the raw measurements."""
    import workloads

    workdir = os.path.join(HERE, "_work", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        jobs = workloads.prepare(workload, seed, workdir, small)
        plan = {"workload": workload, "jobs": jobs, "seconds": seconds, "trace": trace,
                "probe": workloads.probe_job(workload, jobs), "refdir": refdir,
                "workdir": workdir, "record": record}
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as fh:
            json.dump(plan, fh)
        result = _child("run", plan_path, RUN_TIMEOUT)
        timed = [] if trace else [_child("probe", plan_path, PROBE_TIMEOUT)
                                  for _ in range(probes)]
        if record:
            os.makedirs(refdir, exist_ok=True)
            for job in jobs:
                if "ref" in job["check"]:
                    ref = os.path.join(refdir, f"{job['check']['ref']}.csv")
                    shutil.copyfile(job["out"], ref)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["probes"] = timed
    return result


def summarize(raw):
    """Outcome counts plus every metric of the run, untraced or traced."""
    passes = raw["passes"]
    outcomes = [job for p in passes for job in p["jobs"]]
    failed = [job for job in outcomes if job["status"] != "ok"]
    summary = {"correct": all(job["status"] != "wrong" for job in outcomes),
               "attempted": len(outcomes), "failed": len(failed), "failures": failed}
    metrics = _pass_times(passes)
    if raw["probes"]:
        metrics["setup_s"] = statistics.median(
            p["import_s"] + max(0.0, p["cold_s"] - p["warm_s"]) for p in raw["probes"])
    metrics["peak_rss_mb"] = raw["peak_rss_mb"]
    metrics["fail_ratio"] = len(failed) / len(outcomes)
    if "trace" in passes[0]:
        metrics.update(_layer_metrics(raw))
    summary["metrics"] = metrics
    summary["passes"] = len(passes)
    return summary


def _pass_times(passes):
    """Time of one typical warm pass: each job's median over the passes,
    summed over all jobs (``wall_s``) and over the jobs of each verb."""
    jobs = passes[0]["jobs"]
    medians = [statistics.median(p["jobs"][i]["wall_s"] for p in passes)
               for i in range(len(jobs))]
    out = {"wall_s": sum(medians)}
    for job, t in zip(jobs, medians):
        out[f"{job['verb']}_s"] = out.get(f"{job['verb']}_s", 0.0) + t
    return out


def _layer_metrics(raw):
    """Counts from the first pass (they repeat exactly), times as medians."""
    passes = raw["passes"]
    times = _pass_times(passes)
    out = {"import.self_s": raw["import_s"], "traced.wall_s": times.pop("wall_s")}
    out.update((f"verb.{key}", value) for key, value in times.items())
    for key, value in passes[0]["trace"].items():
        if key.endswith(".self_s"):
            value = statistics.median(p["trace"].get(key, 0.0) for p in passes)
        out[key] = value
    return out


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "1"
    return "count"


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def report(workload, seed, trace, summary, spec):
    """Human-readable lines, then the result object for this run."""
    metrics = summary["metrics"]
    print(f"# {workload} seed={seed} trace={trace}: {summary['passes']} pass(es), "
          f"failed {summary['failed']} of {summary['attempted']} attempted")
    for status, name, message in sorted({(j["status"], j["name"], j["message"])
                                         for j in summary["failures"]}):
        print(f"#   {status}: {name}: {message}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    shown = sorted(metrics) if not trace else [m["name"] for m in wanted]
    for name in shown:
        print(f"#   {name:48s} {metrics.get(name, 0):.6g} {unit_of(name)}")
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                        for m in wanted}}


def run_all(args, spec):
    import workloads

    rows = []
    ok = True
    for name in workloads.WORKLOADS:
        plain = summarize(measure(name, args.seed, args.seconds, 0))
        traced = summarize(measure(name, args.seed, args.seconds, 1))
        ok = ok and plain["correct"] and traced["correct"]
        plain_wall = plain["metrics"]["wall_s"]
        traced_wall = traced["metrics"]["traced.wall_s"]
        plain["metrics"]["tracing_overhead_s"] = traced_wall - plain_wall
        report(name, args.seed, 0, plain, spec)
        rows.append((name, plain["metrics"]))
    names = sorted({k for _, m in rows for k in m})
    print("\n" + "metric".ljust(22) + "unit  " + "".join(n.rjust(17) for n, _ in rows))
    for key in names:
        cells = "".join((f"{m[key]:.4g}" if key in m else "-").rjust(17) for _, m in rows)
        print(key.ljust(22) + unit_of(key).ljust(6) + cells)
    return 0 if ok else 1


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "openqdyn", "__init__.py")):
        print(f"openqdyn sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    spec = benchmark_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    print("# env " + json.dumps(environment()))
    if args.workload == "all":
        return run_all(args, spec)
    summary = summarize(measure(args.workload, args.seed, args.seconds, args.trace))
    result = report(args.workload, args.seed, args.trace, summary, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
