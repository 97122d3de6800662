"""Workload definitions and seeded input generation.

``prepare(name, seed, workdir, small)`` writes every input a workload needs
(config files, matrix CSVs, the map-family CSV, ``.npz`` arrays) into
``workdir`` and returns the job list.  It runs before any timed region; the
measured interpreter only reads the generated files.

A job is a JSON-serialisable dict:

``name``      unique within the workload
``verb``      CLI verb, or ``api`` for a library task
``argv``      CLI arguments (CLI jobs)
``task``/``inputs``  task name and ``.npz`` path (api jobs)
``out``       output CSV the job writes (CLI jobs)
``exit``      expected exit code
``check``     how the output is verified (see ``checks.py``)
"""
import os

import numpy as np

# Why each workload exists: BENCHMARK.json and README.md.
WORKLOADS = ("markov-osc20", "analysis-sweep", "nonmarkov-osc10", "api-certify")

# Bath shared by every CLI job: ohmic, alpha = 0.05, omega_c = 3.
CONFIG = """[model]
{model}
omega0 = 1.0
coupling_strength = 1.0

[bath]
type = ohmic
alpha = 0.05
omega_c = 3.0
temperature = {T}

[solver]
scheme = {scheme}
t_final = {t_final}
steps = {steps}
substeps = {substeps}

[checks]
requested = {requested}
{extra_checks}
[output]
path = {out}
"""


def _sizes(small):
    """Problem sizes: the benchmark's, or tiny ones for the self-tests."""
    # markov_exit: the markov check of osc_big is inconclusive (exit 1) at
    # n = 20, whose late maps are too ill-conditioned to invert, and passes
    # at n = 4.
    if small:
        return dict(osc_big=4, osc_mid=3, custom=3, steps=4, substeps=2,
                    family=6, api_dims=(2, 3), api_samples=6, markov_exit=0)
    return dict(osc_big=20, osc_mid=10, custom=8, steps=50, substeps=8,
                family=31, api_dims=(4, 6, 8, 10), api_samples=21, markov_exit=1)


class _JobList:
    """Accumulates CLI jobs for one workload directory."""

    def __init__(self, workdir, seed, sizes):
        self.workdir = workdir
        self.seed = seed
        self.sizes = sizes
        self.jobs = []

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def cli(self, name, verb, model, T, expect_exit=0, check=None, scheme="markov",
            requested="cp", extra_checks=""):
        out = self.path("out", f"{name}.csv")
        cfg = self.path("cfg", f"{name}.cfg")
        text = CONFIG.format(model=model, T=T, scheme=scheme, t_final=10.0,
                             steps=self.sizes["steps"], substeps=self.sizes["substeps"],
                             requested=requested, extra_checks=extra_checks, out=out)
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.jobs.append(dict(name=name, verb=verb, out=out, exit=expect_exit,
                              argv=[verb, "--config", cfg, "--seed", str(self.seed)],
                              check=check or {"ref": name}))


def _oscillator(n):
    return f"preset = damped_oscillator\nn_levels = {n}"


def _write_matrix(path, M):
    from openqdyn.cli import write_matrix_csv

    write_matrix_csv(path, M)


def _custom_model(rng, n):
    """Random N-level model: non-degenerate spectrum in a random eigenbasis and
    two random Hermitian couplings.

    Energies are redrawn until every pair of the N(N-1) nonzero Bohr
    frequencies is separated by at least 0.01, so the secular approximation
    holds and the model has N(N-1) + 1 distinct Bohr frequencies.
    """
    while True:
        e = np.sort(rng.uniform(0.0, 3.0, n))
        w = np.sort(np.abs((e[:, None] - e[None, :])[~np.eye(n, dtype=bool)]))[::2]
        if w.min() > 0.05 and np.diff(w).min() > 0.01:
            break
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    U = q * (np.diag(r) / np.abs(np.diag(r)))
    H = (U * e) @ U.conj().T
    H = (H + H.conj().T) / 2.0
    couplings = []
    for _ in range(2):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = (g + g.conj().T) / 2.0
        couplings.append(A / np.linalg.norm(A, 2))
    return H, couplings


def _markov_osc20(b):
    osc = _oscillator(b.sizes["osc_big"])
    b.cli("evolve_osc_T1", "evolve", osc, 1.0)
    b.cli("check_osc_T1", "check", osc, 1.0, expect_exit=b.sizes["markov_exit"],
          requested="cp,markov")


def _nonmarkov_osc10(b):
    osc = _oscillator(b.sizes["osc_mid"])
    for scheme in ("tcl2", "coarse_grain", "memory_kernel", "post_markovian"):
        b.cli(f"nonmarkov_{scheme}", "nonmarkov", osc, 1.0, scheme=scheme)


def _analysis_sweep(b, rng):
    n = b.sizes["custom"]
    H, couplings = _custom_model(rng, n)
    _write_matrix(b.path("inputs", "h.csv"), H)
    files = []
    for k, A in enumerate(couplings):
        files.append(b.path("inputs", f"a{k}.csv"))
        _write_matrix(files[-1], A)
    np.savez(b.path("inputs", "custom.npz"), H=H)
    custom = (f"preset = custom\nh_file = {b.path('inputs', 'h.csv')}\n"
              f"coupling_files = {','.join(files)}\ncoupling_pattern = single")
    models = [("qubit", "preset = damped_qubit", False),
              ("osc_mid", _oscillator(b.sizes["osc_mid"]), False),
              ("osc_big", _oscillator(b.sizes["osc_big"]), False),
              ("custom", custom, True)]
    for label, model, seeded in models:
        for T in (0.0, 1.0):
            tag = f"{label}_T{int(T)}"
            for verb in ("derive", "spectrum", "steady"):
                check = {"physics": f"custom_{verb}", "T": T} if seeded else None
                b.cli(f"{verb}_{tag}", verb, model, T, check=check)
            # At T = 0 the jumps are not closed under the adjoint, so the
            # Spohn criterion reports fail and the CLI exits 1.
            check = {"physics": "custom_check", "T": T} if seeded else None
            b.cli(f"check_{tag}", "check", model, T, expect_exit=1 if T == 0 else 0,
                  check=check, requested="kossakowski,spohn,relaxing")
    _davies_family_job(b, rng)


def _davies_family_job(b, rng):
    """check markov on a seeded osc10 Davies map family read from CSV.

    The 30 sample times after t = 0 are drawn from (0, 3]: up to t = 3 every
    map stays below the 1e10 condition threshold, so each interval gets a CP
    verdict.  A Davies semigroup is CP-divisible, so only ``pass`` or
    ``inconclusive`` is a correct verdict.
    """
    from openqdyn.cli import write_map_family_csv
    from openqdyn.liouville import expm
    from openqdyn.weakcoupling import BathModel, damped_oscillator, davies_generator

    system = damped_oscillator(b.sizes["osc_mid"])
    bath = BathModel.ohmic(coupling=0.05, omega_c=3.0, temperature=1.0)
    L = davies_generator(system, bath).superoperator()
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, b.sizes["family"] - 1))])
    family = [(float(t), expm(t * L)) for t in times]
    path = b.path("inputs", "family.csv")
    write_map_family_csv(path, family)
    report = b.path("out", "family_report.csv")
    # The exit code follows the verdict; checks.py judges the two together.
    b.cli("check_family_osc_mid", "check", _oscillator(b.sizes["osc_mid"]), 1.0,
          expect_exit=None, requested="markov",
          extra_checks=f"family_file = {path}\nreport_file = {report}\n",
          check={"physics": "davies_family", "report": report,
                 "samples": b.sizes["family"]})


def _random_generator(rng, n, n_jumps=3):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = (g + g.conj().T) / 2.0
    jumps = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
             for _ in range(n_jumps)]
    jumps = [V / np.linalg.norm(V) for V in jumps]
    rates = rng.uniform(0.2, 1.0, n_jumps)
    return H, rates, np.array(jumps)


def _api_certify(b, rng):
    from openqdyn.gksl import GKSLGenerator, superop_of_generator
    from openqdyn.liouville import expm

    for n in b.sizes["api_dims"]:
        H, rates, jumps = _random_generator(rng, n)
        L = superop_of_generator(GKSLGenerator(H=H, jumps=list(zip(rates, jumps))))
        times = 0.05 * np.arange(b.sizes["api_samples"])
        family = np.array([expm(t * L) for t in times])
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rho0 = g @ g.conj().T
        rho0 /= np.trace(rho0).real
        path = b.path("inputs", f"gksl{n}.npz")
        np.savez(path, H=H, rates=rates, jumps=jumps, L=L, times=times, family=family,
                 rho0=rho0)
        for task in ("roundtrip", "family", "certify"):
            b.jobs.append(dict(name=f"{task}_N{n}", verb="api", task=task, inputs=path,
                               exit=0, check={"physics": f"api_{task}"}))


def prepare(name, seed, workdir, small=False):
    """Generate the seeded inputs of workload ``name`` and return its jobs."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    for sub in ("cfg", "out", "inputs"):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    b = _JobList(workdir, seed, _sizes(small))
    if name == "markov-osc20":
        _markov_osc20(b)
    elif name == "analysis-sweep":
        _analysis_sweep(b, rng)
    elif name == "nonmarkov-osc10":
        _nonmarkov_osc10(b)
    else:
        _api_certify(b, rng)
    return b.jobs


def probe_job(name, jobs):
    """The job a one-shot process runs first, timed cold and warm for set-up.

    It is the workload's first job, except where that job runs for seconds:
    markov-osc20 and nonmarkov-osc10 use a ``derive`` on the same model and
    bath, the Davies derivation those jobs start with, which builds the same
    Gauss-Legendre rules.
    """
    first = jobs[0]
    if name not in ("markov-osc20", "nonmarkov-osc10"):
        return first
    cfg = first["argv"][2]
    probe_cfg = cfg.replace(".cfg", "_probe.cfg")
    out = first["out"].replace(".csv", "_probe.csv")
    with open(cfg, encoding="utf-8") as fh:
        text = fh.read().replace(first["out"], out)
    with open(probe_cfg, "w", encoding="utf-8") as fh:
        fh.write(text)
    return dict(name="probe", verb="derive", out=out, exit=0, check=None,
                argv=["derive", "--config", probe_cfg, "--seed", first["argv"][4]])
