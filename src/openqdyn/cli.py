"""Batch command-line front end.

Verbs: evolve, derive, check, steady, spectrum, nonmarkov.  Every command
reads a flat sectioned config file (``[section]`` headers and ``key = value``
lines, ``#`` comments) with matrices in CSV sidecar files, and writes
deterministic CSV/tables: identical config, identical bytes.

Matrix CSV format (row-major, "re,im" cells): each matrix row becomes one CSV
row holding 2N numbers, alternating real and imaginary parts.  Map-family
("process matrix") CSV: one row per sample, the time followed by the
row-major re/im pairs of the N^2 x N^2 superoperator.

All floating-point output uses 12 significant digits in scientific notation.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 config
error, 3 numerical error.  The environment variable OQS_NUM_THREADS, a
positive integer, caps the linear-algebra thread pool; ``import openqdyn``
applies it before numpy loads and, where numpy came first, to numpy's bundled
OpenBLAS at run time.
"""
import argparse
import functools
import os
import sys
import warnings

import numpy as np

from .errors import ConfigError, OpenQDynError


def fmt(x):
    """12 significant digits, scientific notation, '.' decimal separator."""
    x = float(x)
    if x == 0.0:
        x = 0.0          # normalize -0.0
    return f"{x:.11e}"


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def parse_config(path):
    """Parse the sectioned key=value format into {section: {key: value}}.

    Raises ConfigError with file/line/key diagnostics.
    """
    sections = {}
    current = None
    for lineno, raw in enumerate(_read_lines(path, "config"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in sections[current]:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = value
    return sections


# the keys that each section may hold, over every verb
_KEYS = {"model": "preset omega0 n_levels h_file coupling_files coupling_pattern coupling_strength",
        "bath": "type T temperature alpha omega_c s omega_max j_file",
        "solver": "scheme output_times t_final steps kernel_g substeps",
        "initial": "state rho_file", "observables": "names",
        "checks": "requested family_file report_file", "output": "path"}


def _check_keys(cfg):
    """Raise ConfigError naming the first unknown section or key of a parsed
    config: a misspelled one would otherwise be dropped for its default."""
    for section, values in cfg.items():
        if section not in _KEYS:
            raise ConfigError(f"unknown section [{section}]")
        unknown = [key for key in values if key not in _KEYS[section].split()]
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in [{section}]")


def _get(cfg, section, key, default=None, cast=str, required=False):
    sec = cfg.get(section, {})
    if key not in sec:
        if required:
            raise ConfigError(f"missing required key {key!r} in [{section}]")
        return default
    try:
        return cast(sec[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key {key!r} in [{section}]: {exc}")


def _floats(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _checked(cast, ok, what):
    """``cast`` that also rejects a value that is not finite or fails ``ok``."""
    def parse(text):
        value = cast(text)
        if not (np.isfinite(value) and ok(value)):
            raise ValueError(f"must be {what}, got {text}")
        return value
    return parse


def _positive(cast):
    return _checked(cast, lambda v: v > 0, "finite and positive")


_finite = _checked(float, lambda v: True, "finite")
_nonnegative = _checked(float, lambda v: v >= 0, "finite and nonnegative")


def _read_lines(path, what):
    """The lines of a text file without their line breaks, read one at a
    time, so that a large map family is never held as text all at once; an
    unreadable file is a config error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                yield line.rstrip("\n")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}")


def _csv_rows(path, what):
    """(line number, numbers) for every non-blank, non-comment CSV line; a
    cell that is not a number is a config error naming the file and line."""
    for lineno, raw in enumerate(_read_lines(path, what), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            vals = np.array(line.split(","), dtype=float)
        except ValueError:              # token by token: skips empty cells, names a bad one
            try:
                vals = np.array(_floats(line))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}")
        yield lineno, vals


def read_matrix_csv(path):
    """Read a complex matrix from the row-major re,im CSV format."""
    rows = []
    for lineno, vals in _csv_rows(path, "matrix file"):
        if len(vals) % 2 != 0:
            raise ConfigError(f"{path}:{lineno}: odd number of entries (need re,im pairs)")
        rows.append(vals.view(complex))
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ConfigError(f"{path}: matrix is not square")
    return np.array(rows, dtype=complex)


def _re_im_rows(M):
    """The CSV rows of a 2-D complex array, real and imaginary parts
    alternating, each number as :func:`fmt` writes it: one conversion of the
    whole array and one format string per row."""
    parts = np.ascontiguousarray(M, dtype=complex).view(float) + 0.0      # -0.0 -> 0.0
    row = ",".join(["%.11e"] * parts.shape[1])
    return [row % tuple(vals) for vals in parts.tolist()]


def write_matrix_csv(path, M):
    _atomic_write(path, _re_im_rows(M))


def read_map_family_csv(path):
    """Map-family CSV: one row per sample, t then row-major re/im superop.

    The whole file is parsed by ``np.loadtxt`` first.  A file it refuses, or
    whose rows do not hold two or more square matrices, is read again line by
    line (:func:`_csv_rows`), which alone words the config errors: only it
    knows the file's line numbers."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")      # loadtxt warns on a file without rows
            data = np.loadtxt(path, delimiter=",", comments=None, ndmin=2)
    except (OSError, ValueError):
        data = np.empty((0, 1))
    side = int(round(((data.shape[1] - 1) // 2) ** 0.5))
    if len(data) >= 2 and side and data.shape[1] == 2 * side * side + 1:
        return [(float(row[0]), row[1:].view(complex).reshape(side, side)) for row in data]
    family = []
    for lineno, vals in _csv_rows(path, "map family file"):
        rest = vals[1:]
        if len(rest) % 2 != 0:
            raise ConfigError(f"{path}:{lineno}: odd entry count")
        side = int(round((len(rest) // 2) ** 0.5))
        if not len(rest) or 2 * side * side != len(rest):
            raise ConfigError(f"{path}:{lineno}: row does not hold a square matrix")
        family.append((float(vals[0]), rest.view(complex).reshape(side, side)))
    if len(family) < 2:
        raise ConfigError(f"{path}: family needs at least two samples")
    return family


def write_map_family_csv(path, family):
    _atomic_write(path, (f"{fmt(t)},{_re_im_rows(E.reshape(1, -1))[0]}" for t, E in family))


def _atomic_write(path, lines):
    """Write the lines, each ending in a newline, through a temporary file."""
    text = "\n".join(lines) + "\n"
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# model construction from config
# ---------------------------------------------------------------------------

def build_bath(cfg):
    from .weakcoupling import BathModel

    kind = _get(cfg, "bath", "type", default="ohmic").lower()
    if {"T", "temperature"} <= cfg.get("bath", {}).keys():
        raise ConfigError("[bath] sets both 'T' and 'temperature'; give one")
    key = "temperature" if "temperature" in cfg.get("bath", {}) else "T"
    T = _get(cfg, "bath", key, default=0.0, cast=float)
    if not (np.isfinite(T) and T >= 0):
        raise ConfigError(f"key {key!r} in [bath]: must be finite and nonnegative, got {T}")
    if kind == "ohmic":
        return BathModel.ohmic(
            coupling=_get(cfg, "bath", "alpha", default=0.1, cast=_nonnegative),
            omega_c=_get(cfg, "bath", "omega_c", default=3.0, cast=_positive(float)),
            temperature=T,
            s=_get(cfg, "bath", "s", default=1.0, cast=_finite),
            omega_max=_get(cfg, "bath", "omega_max", default=None, cast=_positive(float)),
        )
    if kind == "flat":
        return BathModel.flat(
            j0=_get(cfg, "bath", "alpha", default=0.1, cast=_nonnegative),
            omega_max=_get(cfg, "bath", "omega_max", required=True, cast=_positive(float)),
            temperature=T,
        )
    if kind == "table":
        path = _get(cfg, "bath", "j_file", required=True)
        rows = []
        for lineno, vals in _csv_rows(path, "tabulated density"):
            if len(vals) != 2:
                raise ConfigError(f"{path}:{lineno}: expected 2 entries (omega,J), "
                                  f"got {len(vals)}")
            rows.append(vals)
        data = np.array(rows).reshape(-1, 2)
        omega_max = _get(cfg, "bath", "omega_max", default=None, cast=_positive(float))
        try:
            return BathModel.tabulated(data[:, 0], data[:, 1], temperature=T,
                                       omega_max=omega_max)
        except ValueError as exc:
            raise ConfigError(f"tabulated density {path}: {exc}")
    raise ConfigError(f"unknown bath type {kind!r}")


def build_system(cfg):
    from .weakcoupling import SystemModel, damped_oscillator, damped_qubit, pure_dephasing

    preset = _get(cfg, "model", "preset", default="damped_qubit").lower()
    omega0 = _get(cfg, "model", "omega0", default=1.0, cast=_finite)
    if preset == "damped_qubit":
        return damped_qubit(omega0)
    if preset == "damped_oscillator":
        return damped_oscillator(
            n_levels=_get(cfg, "model", "n_levels", default=10, cast=_positive(int)),
            omega0=omega0)
    if preset == "pure_dephasing":
        return pure_dephasing(omega0)
    if preset == "custom":
        H = read_matrix_csv(_get(cfg, "model", "h_file", required=True))
        files = _get(cfg, "model", "coupling_files", required=True)
        couplings = [read_matrix_csv(p.strip()) for p in files.split(",") if p.strip()]
        pattern = _get(cfg, "model", "coupling_pattern", default="single").lower()
        if pattern not in ("single", "position_xy"):
            raise ConfigError(f"unknown coupling pattern {pattern!r} in [model]")
        if pattern == "position_xy" and len(couplings) != 2:
            raise ConfigError(f"coupling_pattern = position_xy in [model] needs exactly two "
                              f"coupling_files, got {len(couplings)}")
        return SystemModel(H=H, couplings=couplings, coupling_pattern=pattern)
    raise ConfigError(f"unknown model preset {preset!r}")


def build_observables(cfg, system):
    from .operators import number, sigma_x, sigma_y, sigma_z

    names = _get(cfg, "observables", "names", default="sigma_z" if system.dim == 2
                 else "number")
    obs = []
    table = {"sigma_x": sigma_x, "sigma_y": sigma_y, "sigma_z": sigma_z}
    for name in (tok.strip() for tok in names.split(",")):
        if not name:
            continue
        if name in table:
            if system.dim != 2:
                raise ConfigError(f"observable {name} needs a two-level system")
            obs.append((name, table[name]))
        elif name == "number":
            obs.append((name, number(system.dim)))
        elif name == "energy":
            obs.append((name, system.H))
        elif name.startswith("population_"):
            k = name.split("_", 1)[1]
            if not (k.isdigit() and int(k) < system.dim):
                raise ConfigError(f"observable {name}: no level {k} in dimension {system.dim}")
            P = np.zeros((system.dim, system.dim), dtype=complex)
            P[int(k), int(k)] = 1.0
            obs.append((name, P))
        elif name.startswith("file:"):
            obs.append((name, read_matrix_csv(name[5:])))
        else:
            raise ConfigError(f"unknown observable {name!r}")
    return obs


def build_initial_state(cfg, system, bath):
    from .weakcoupling import thermal_state

    kind = _get(cfg, "initial", "state", default="excited").lower()
    eps, V = np.linalg.eigh(system.H)
    if kind == "excited":
        v = V[:, -1]
        return np.outer(v, v.conj())
    if kind == "ground":
        v = V[:, 0]
        return np.outer(v, v.conj())
    if kind == "maximally_mixed":
        return np.eye(system.dim, dtype=complex) / system.dim
    if kind == "thermal":
        return thermal_state(system.H, bath.temperature)
    if kind == "file":
        from .liouville import assert_density_matrix

        rho = read_matrix_csv(_get(cfg, "initial", "rho_file", required=True))
        return assert_density_matrix(rho, tol_psd=1e-8)
    raise ConfigError(f"unknown initial state {kind!r}")


def build_output_times(cfg):
    """The output grid: ``[solver] output_times``, or else ``steps + 1`` evenly
    spaced times from 0 to ``t_final``.  Either way the times must be finite,
    nonnegative and strictly ascending, or it is a config error."""
    times = _get(cfg, "solver", "output_times", cast=_floats)
    problem = "output_times must be nonnegative and strictly ascending"
    if times is None:
        t_final = _get(cfg, "solver", "t_final", default=10.0, cast=float)
        steps = _get(cfg, "solver", "steps", default=50, cast=int)
        times = list(np.linspace(0.0, t_final, max(steps + 1, 0)))
        problem = (f"t_final = {t_final:g} and steps = {steps} do not give "
                   "nonnegative, strictly ascending output times")
    if not times or not np.all(np.isfinite(times)) or times[0] < 0 or any(
            t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ConfigError(problem)
    return times


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

class RunContext:
    """What every verb starts from: the config, the system, the bath and the
    coupling strength, built in that order so their errors surface first.
    The Davies generator and its superoperator are built on first use."""

    def __init__(self, cfg, seed, tol):
        self.cfg, self.seed, self.tol = cfg, seed, tol
        self.system = build_system(cfg)
        self.bath = build_bath(cfg)
        self.alpha = _get(cfg, "model", "coupling_strength", default=1.0, cast=float)

    def get(self, section, key, **kwargs):
        return _get(self.cfg, section, key, **kwargs)

    @functools.cached_property
    def generator(self):
        from .weakcoupling import davies_generator

        return davies_generator(self.system, self.bath, alpha=self.alpha)

    @functools.cached_property
    def L(self):
        return self.generator.superoperator()


def _from_zero(times):
    """The output grid with t = 0 prepended when it starts later."""
    return times if times[0] == 0.0 else [0.0] + times


def cmd_evolve(ctx, default_scheme="markov", diagnostics=False):
    from .liouville import devectorize, propagate_semigroup, vectorize
    from .nonmarkov import (MemoryKernel, coarse_grain_evolve, memory_kernel_evolve,
                            post_markovian_evolve, tcl2_evolve)

    scheme = ctx.get("solver", "scheme", default=default_scheme).lower()
    times = build_output_times(ctx.cfg)
    rho0 = build_initial_state(ctx.cfg, ctx.system, ctx.bath)
    observables = build_observables(ctx.cfg, ctx.system)

    diag_cols, diag = [], {}
    if scheme == "markov":
        states = [devectorize(v) for v in propagate_semigroup(ctx.L, times, vectorize(rho0))]
    else:
        if scheme in ("memory_kernel", "post_markovian"):
            evolve = memory_kernel_evolve if scheme == "memory_kernel" else post_markovian_evolve
            run = functools.partial(evolve, ctx.L, MemoryKernel(
                g=ctx.get("solver", "kernel_g", default=10.0, cast=_positive(float))))
        elif scheme == "tcl2":
            run = functools.partial(tcl2_evolve, ctx.system, ctx.bath, alpha=ctx.alpha,
                                    substeps=ctx.get("solver", "substeps", default=8,
                                                     cast=_positive(int)))
        elif scheme == "coarse_grain":
            run = functools.partial(coarse_grain_evolve, ctx.system, ctx.bath, ctx.alpha)
        else:
            raise ConfigError(f"unknown solver scheme {scheme!r}")
        grid = _from_zero(times)     # the solvers start at t = 0
        traj = run(rho0, grid)
        lookup = dict(zip(grid, traj.states))
        states = [lookup[t] for t in times]
        if diagnostics and scheme == "tcl2":
            diag_cols = ["min_choi_eigenvalue"]
            diag = {t: [w] for t, w in zip(grid, traj.min_choi_eigenvalues)}
        elif diagnostics and scheme in ("memory_kernel", "post_markovian"):
            diag_cols = ["trace_error", "min_eigenvalue"]
            diag = dict.fromkeys(grid, [traj.max_trace_error, traj.min_eigenvalue])

    lines = [",".join(["t"] + [name for name, _ in observables] + diag_cols)]
    for t, rho in zip(times, states):
        row = [fmt(t)] + [fmt(np.trace(O @ rho).real) for _, O in observables]
        lines.append(",".join(row + [fmt(v) for v in diag.get(t, ())]))
    return lines, 0


def cmd_derive(ctx):
    from .weakcoupling import kms_check, stationarity_check

    gen = ctx.generator
    lines = ["# weak-coupling generator report"]
    lines.append("bohr_frequencies," + ",".join(fmt(w) for w in sorted(gen.per_frequency)))
    for w in sorted(gen.per_frequency):
        block = gen.per_frequency[w]
        lines.append(f"block,omega={fmt(w)},couplings="
                     + ";".join(str(k) for k in block.coupling_indices))
        for label, M in (("gamma", block.gamma), ("shift", block.shift)):
            lines.extend(f"{label},{i},{row}"
                         for i, row in enumerate(_re_im_rows(np.atleast_2d(M))))
    lines.append("lamb_shift_matrix")
    lines.extend(_re_im_rows(gen.lamb_shift))
    lines.append("canonical_jumps")
    for k, (g, V) in enumerate(gen.base.jumps):
        lines.append(f"jump,{k},rate," + fmt(g))
        lines.extend(f"jump,{k},{row}" for row in _re_im_rows(V))
    kms = kms_check(gen, tol=ctx.tol or 1e-8)
    lines.append("kms_max_relative_violation," + fmt(kms.max_relative_violation))
    lines.append("kms_vacuum_flags," + ",".join(
        f"{c.omega:.6g}:{int(c.vacuum)}" for c in kms.checks))
    lines.append("stationarity_residual," + fmt(stationarity_check(gen)))
    return lines, 0


def _verdict(ok):
    return "inconclusive" if ok is None else ("pass" if ok else "fail")


def _finite_min(values):
    """The least finite value, nan when there is none; Python's ``min`` skips
    a NaN only when it does not come first."""
    finite = [v for v in values if np.isfinite(v)]
    return min(finite) if finite else float("nan")


def cmd_check(ctx):
    from .gksl import check_kossakowski_conditions, random_partitions
    from .liouville import _dense
    from .maps import (_choi_blocks, _cp_reports, _generator_family, divisibility_witness,
                       is_trace_preserving)
    from .spectra import is_relaxing, spohn_check

    requested = [tok.strip() for tok in
                 ctx.get("checks", "requested", default="cp").split(",") if tok.strip()]
    tol = ctx.tol or 1e-10
    rng = np.random.default_rng(ctx.seed)
    L = ctx.L

    lines = ["check,verdict,witness"]
    all_pass = True
    for name in requested:
        if name == "cp":
            _, groups, take = _generator_family(L, (0.01, 0.1, 1.0, 10.0))
            stacks, E = take(np.arange(4)), None
            reps = _cp_reports(_choi_blocks(groups), stacks, tol)
            ok = all(rep.verdict for rep in reps)
            for k in range(4):
                E = _dense(groups, stacks, k, E)          # zero off the blocks
                ok = ok and is_trace_preserving(E)
            witness = _finite_min(rep.min_choi_eigenvalue for rep in reps)
        elif name == "markov":
            family_file = ctx.get("checks", "family_file")
            if family_file:
                family = read_map_family_csv(family_file)
            else:
                family = _generator_family(L, _from_zero(build_output_times(ctx.cfg)),
                                           stepped=True)
            report = divisibility_witness(family, tol=tol)
            witness = _finite_min(iv.min_choi_eigenvalue for iv in report.intervals)
            ok = report.markovian
            report_file = ctx.get("checks", "report_file")
            if report_file:
                rows = ["t_start,t_end,min_choi_eigenvalue,cp,singular"]
                for iv in report.intervals:
                    rows.append(",".join([fmt(iv.t_start), fmt(iv.t_end),
                                          fmt(iv.min_choi_eigenvalue),
                                          str(int(bool(iv.cp))), str(int(iv.singular))]))
                _atomic_write(report_file, rows)
        elif name == "kossakowski":
            parts = random_partitions(ctx.system.dim, 20, rng)
            rep = check_kossakowski_conditions(L, parts, tol=max(tol, 1e-9))
            ok = rep.passed
            witness = 0.0 if ok else rep.first_violation.value
        elif name == "spohn":
            rep = spohn_check([V for _, V in ctx.generator.base.jumps])
            ok, witness = rep.relaxing_guaranteed, rep.commutant_dim
        elif name == "relaxing":
            rep = is_relaxing(L)
            ok, witness = rep.verdict, rep.report.spectral_gap
        else:
            raise ConfigError(f"unknown check {name!r}")
        lines.append(f"{name},{_verdict(ok)},{fmt(witness)}")
        all_pass &= bool(ok)
    return lines, 0 if all_pass else 1


def cmd_steady(ctx):
    from .spectra import steady_states

    result = steady_states(ctx.L, tol=ctx.tol or 1e-9)
    lines = [f"# kernel_dimension,{result.kernel_dimension}",
             f"# n_states,{len(result.states)}"]
    for idx, rho in enumerate(result.states):
        lines.append(f"# state,{idx}")
        lines.extend(_re_im_rows(rho))
    return lines, 0


def cmd_spectrum(ctx):
    from .spectra import liouvillian_spectrum

    rep = liouvillian_spectrum(ctx.L, tol=ctx.tol or 1e-9)
    lines = [f"# zero_multiplicity,{rep.zero_multiplicity}",
             f"# spectral_gap,{fmt(rep.spectral_gap)}",
             f"# diagonalizable,{int(rep.diagonalizable)}",
             "re,im"]
    lines.extend(_re_im_rows(np.reshape(rep.eigenvalues, (-1, 1))))
    return lines, 0


# verb -> (help text, command); each command maps a RunContext to (lines, exit code)
VERBS = {
    "evolve": ("propagate and tabulate observables", cmd_evolve),
    "derive": ("weak-coupling generator report", cmd_derive),
    "check": ("verification report (cp|markov|kossakowski|spohn|relaxing)", cmd_check),
    "steady": ("steady states of the derived generator", cmd_steady),
    "spectrum": ("Liouvillian spectrum table", cmd_spectrum),
    "nonmarkov": ("non-Markovian trajectory with diagnostics",
                  functools.partial(cmd_evolve, default_scheme="memory_kernel",
                                    diagnostics=True)),
}


@functools.cache
def _parser():
    """The argument parser, built on the first call of :func:`main`."""
    parser = argparse.ArgumentParser(
        prog="openqdyn",
        description="Batch analysis of open-quantum-system dynamics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (hlp, _) in VERBS.items():
        p = sub.add_parser(name, help=hlp)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--out", default=None, help="output path (default from config)")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)

    try:
        if args.tol is not None and not (np.isfinite(args.tol) and args.tol > 0):
            raise ConfigError(f"--tol must be finite and positive, got {args.tol}")
        cfg = parse_config(args.config)
        _check_keys(cfg)
        out_path = args.out or _get(cfg, "output", "path", default=None)
        if out_path is None:
            raise ConfigError("no output path: set [output] path or pass --out")
        lines, code = VERBS[args.command][1](RunContext(cfg, args.seed, args.tol))
        _atomic_write(out_path, lines)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OpenQDynError, ValueError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
