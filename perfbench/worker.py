"""The measured interpreter.

    python3 perfbench/worker.py run PLAN.json     timed passes over the jobs
    python3 perfbench/worker.py probe PLAN.json   cold start of one process

``run`` imports openqdyn, optionally installs the tracer, runs the probe job
once so lazy set-up is done, then repeats warm passes over the workload's
job list until ``seconds`` have passed (at least one pass; at least three
where three fit in twice that time).  CLI jobs go
through ``openqdyn.cli.main([...])`` in-process, library tasks through the
public functions.  Every job's outcome is verified after its timed region.

``probe`` times ``import openqdyn`` and then the probe job cold and warm, in
a fresh process: the difference is the lazy set-up a one-shot CLI process
pays.

Both print one JSON object as their last line of standard output.
"""
import json
import resource
import sys
import time
import warnings


def _import_openqdyn():
    t0 = time.perf_counter()
    import openqdyn          # noqa: F401
    import openqdyn.cli      # noqa: F401
    return time.perf_counter() - t0


def _api_task(task, data):
    """One library task; functions are read from their modules at call time,
    so the tracer's wrappers are seen."""
    from openqdyn import gksl, maps, nonmarkov, spectra

    L = data["L"]
    if task == "roundtrip":
        gen = gksl.canonical_form(gksl.kossakowski_of_superop(L))
        return {"jumps": gen.jumps, "L": gksl.superop_of_generator(gen)}
    family = list(zip(data["times"], data["family"]))
    if task == "family":
        extracted = nonmarkov.tcl_from_family(family)
        report = maps.divisibility_witness(family)
        return {"generators": extracted.generators, "markovian": report.markovian,
                "witness": min(iv.min_choi_eigenvalue for iv in report.intervals)}
    E = data["family"][-1]
    return {"contraction": maps.contraction_check(E),
            "ergodic": spectra.ergodic_average(L, data["rho0"]),
            "kraus": maps.kraus_of(E)}


class Runner:
    def __init__(self, plan, tracer=None):
        import numpy as np
        from openqdyn import cli

        self.plan = plan
        self.cli = cli
        self.tracer = tracer
        self.data = {job["inputs"]: dict(np.load(job["inputs"]))
                     for job in plan["jobs"] + [plan["probe"]] if job["verb"] == "api"}

    def execute(self, job):
        """Run one job; returns ``(exit code, result)``."""
        if job["verb"] == "api":
            return 0, _api_task(job["task"], self.data[job["inputs"]])
        return self.cli.main(job["argv"]), None

    def timed(self, job):
        root = "api" if job["verb"] == "api" else "cli"
        t0 = time.perf_counter()
        if self.tracer is None:
            code, result = self.execute(job)
        else:
            with self.tracer.span(root):
                code, result = self.execute(job)
        return code, result, time.perf_counter() - t0

    def one_pass(self):
        from checks import verify

        jobs = []
        for job in self.plan["jobs"]:
            before = self._self_total()
            try:
                code, result, dt = self.timed(job)
            except Exception as exc:          # a crash is a failed job
                jobs.append({"name": job["name"], "verb": job["verb"], "status": "wrong",
                             "message": f"{type(exc).__name__}: {exc}", "wall_s": 0.0})
                continue
            if self.plan["record"] and "ref" in job["check"]:
                status, message = ("ok", "") if code == job["exit"] else \
                    ("wrong", f"exit code {code}")
            else:
                status, message = verify(job, code, result, self.plan["refdir"],
                                         self.plan["workdir"])
            entry = {"name": job["name"], "verb": job["verb"], "status": status,
                     "message": message, "wall_s": dt}
            if self.tracer is not None:
                entry["self_sum_s"] = self._self_total() - before
            jobs.append(entry)
        out = {"jobs": jobs}
        if self.tracer is not None:
            out["trace"] = self.tracer.metrics()
            self.tracer.reset()
        return out

    def _self_total(self):
        if self.tracer is None:
            return 0.0
        return sum(s.self_s for s in self.tracer.stats.values())


def run(plan):
    import_s = _import_openqdyn()
    warnings.simplefilter("ignore")
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runner = Runner(plan, tracer)
    runner.execute(plan["probe"])            # lazy set-up, untimed
    if tracer is not None:
        tracer.reset()
    # Passes until `seconds` have gone by; at least three where three fit in
    # twice that time, so that each job's median can drop one disturbed pass.
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(runner.one_pass())
        elapsed = time.perf_counter() - start
        if elapsed >= plan["seconds"] and (
                len(passes) >= 3 or elapsed * (len(passes) + 1) / len(passes)
                > 2 * plan["seconds"]):
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"import_s": import_s, "passes": passes, "peak_rss_mb": rss_kb / 1024.0}


def probe(plan):
    import_s = _import_openqdyn()
    warnings.simplefilter("ignore")
    runner = Runner(dict(plan, jobs=[]))
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        runner.execute(plan["probe"])
        times.append(time.perf_counter() - t0)
    return {"import_s": import_s, "cold_s": times[0], "warm_s": times[1]}


def main(argv):
    mode, plan_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    result = run(plan) if mode == "run" else probe(plan)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
