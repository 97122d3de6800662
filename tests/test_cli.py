import os
import subprocess
import sys

import numpy as np
import pytest

from openqdyn import cli
from openqdyn.errors import ConfigError

QUBIT_CFG = """
[model]
preset = damped_qubit
omega0 = 1.0

[bath]
type = ohmic
alpha = {alpha}
omega_c = 3.0
temperature = {T}

[solver]
scheme = markov
t_final = {t_final}
steps = {steps}

[observables]
names = sigma_z

[initial]
state = excited

[output]
path = {out}
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def run_cli(args):
    return cli.main(args)


def test_parse_config_sections_and_errors(tmp_path):
    path = write_cfg(tmp_path, "[a]\nx = 1\n# comment\n[b]\ny = 2\n")
    cfg = cli.parse_config(path)
    assert cfg == {"a": {"x": "1"}, "b": {"y": "2"}}
    bad = write_cfg(tmp_path, "x = 1\n", name="bad.cfg")
    with pytest.raises(ConfigError, match="outside any"):
        cli.parse_config(bad)
    bad2 = write_cfg(tmp_path, "[a]\nnovalue\n", name="bad2.cfg")
    with pytest.raises(ConfigError, match="key = value"):
        cli.parse_config(bad2)
    dup = write_cfg(tmp_path, "[a]\nx=1\nx=2\n", name="dup.cfg")
    with pytest.raises(ConfigError, match="duplicate"):
        cli.parse_config(dup)


def test_matrix_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(80)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    path = str(tmp_path / "m.csv")
    cli.write_matrix_csv(path, M)
    back = cli.read_matrix_csv(path)
    assert np.abs(back - M).max() < 1e-10


def test_csv_readers_return_the_written_doubles(tmp_path):
    """Each complex entry reads back as exactly the two numbers in its cells."""
    rng = np.random.default_rng(81)
    family = [(t, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
              for t in (0.0, 0.5, 1.25)]
    family[1][1][0, 1] = -0.0 + 1e-300j
    written = np.vectorize(lambda z: complex(float(cli.fmt(z.real)), float(cli.fmt(z.imag))))
    path = str(tmp_path / "f.csv")
    cli.write_map_family_csv(path, family)
    back = cli.read_map_family_csv(path)
    assert [t for t, _ in back] == [t for t, _ in family]
    for (_, E), (_, E_back) in zip(family, back):
        assert E_back.dtype == complex
        assert np.array_equal(E_back, written(E))
    cli.write_matrix_csv(path, family[2][1])
    assert np.array_equal(cli.read_matrix_csv(path), written(family[2][1]))


def test_csv_readers_skip_empty_cells(tmp_path):
    """A row converts in one numpy call; one with an empty cell (a trailing or
    doubled comma) goes token by token and reads as before."""
    path = tmp_path / "m.csv"
    path.write_text("1.5,0,,0,0,\n-2, 0 ,0,0.25\n")
    assert np.array_equal(cli.read_matrix_csv(str(path)), [[1.5, 0], [-2, 0.25j]])
    path.write_text("0,1,0,,\n0.5,1,0,\n")
    assert [(t, E.tolist()) for t, E in cli.read_map_family_csv(str(path))] == \
        [(0.0, [[1.0]]), (0.5, [[1.0]])]


def test_evolve_damped_qubit_fixed_point(tmp_path):
    # final <sigma_z> = -1/(2 nbar + 1) after ~10 relaxation times
    alpha, T = 0.1, 1.0
    from openqdyn.weakcoupling import BathModel, bose_occupation

    bath = BathModel.ohmic(coupling=alpha, omega_c=3.0, temperature=T)
    G = 2 * np.pi * bath.J(np.array([1.0]))[0]
    nb = bose_occupation(1.0, T)
    t_final = 10.0 / G      # population relaxes at G(2 nbar + 1) > G
    out = str(tmp_path / "traj.csv")
    cfg = write_cfg(tmp_path, QUBIT_CFG.format(alpha=alpha, T=T, t_final=t_final,
                                               steps=10, out=out))
    assert run_cli(["evolve", "--config", cfg]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "t,sigma_z"
    final = float(lines[-1].split(",")[1])
    assert abs(final - (-1.0 / (2 * nb + 1))) < 1e-6


def test_evolve_zero_time_grid_row_is_initial(tmp_path):
    out = str(tmp_path / "traj.csv")
    cfg_text = QUBIT_CFG.format(alpha=0.1, T=1.0, t_final=1.0, steps=4, out=out)
    cfg_text = cfg_text.replace("t_final = 1.0\nsteps = 4",
                                "output_times = 0.0")
    cfg = write_cfg(tmp_path, cfg_text)
    assert run_cli(["evolve", "--config", cfg]) == 0
    lines = open(out).read().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[1]) == 1.0   # <sigma_z> of |excited>


def test_evolve_deterministic_bytes(tmp_path):
    out1 = str(tmp_path / "a.csv")
    out2 = str(tmp_path / "b.csv")
    cfg = write_cfg(tmp_path, QUBIT_CFG.format(alpha=0.1, T=1.0, t_final=5.0,
                                               steps=7, out=out1))
    assert run_cli(["evolve", "--config", cfg]) == 0
    assert run_cli(["evolve", "--config", cfg, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_derive_reports_rates(tmp_path):
    alpha, T = 0.1, 1.0
    out = str(tmp_path / "derive.csv")
    cfg = write_cfg(tmp_path, QUBIT_CFG.format(alpha=alpha, T=T, t_final=1.0,
                                               steps=2, out=out))
    assert run_cli(["derive", "--config", cfg]) == 0
    text = open(out).read()
    from openqdyn.weakcoupling import BathModel, bose_occupation

    bath = BathModel.ohmic(coupling=alpha, omega_c=3.0, temperature=T)
    G = 2 * np.pi * bath.J(np.array([1.0]))[0]
    nb = bose_occupation(1.0, T)
    assert cli.fmt(G * (nb + 1)) in text
    assert cli.fmt(G * nb) in text
    assert "stationarity_residual" in text
    resid = float([l for l in text.splitlines() if l.startswith("stationarity")][0].split(",")[1])
    assert resid < 1e-10


def test_derive_vacuum_emission_block_zero(tmp_path):
    out = str(tmp_path / "derive.csv")
    cfg = write_cfg(tmp_path, QUBIT_CFG.format(alpha=0.1, T=0.0, t_final=1.0,
                                               steps=2, out=out))
    assert run_cli(["derive", "--config", cfg]) == 0
    lines = open(out).read().splitlines()
    idx = lines.index("block,omega=" + cli.fmt(-1.0) + ",couplings=0;1")
    row = lines[idx + 1]
    assert row.startswith("gamma,0,")
    assert all(float(v) == 0.0 for v in row.split(",")[2:])


def test_dephasing_flat_bath_exits_numerical(tmp_path, capsys):
    out = str(tmp_path / "derive.csv")
    text = QUBIT_CFG.format(alpha=0.1, T=1.0, t_final=1.0, steps=2, out=out)
    text = text.replace("preset = damped_qubit", "preset = pure_dephasing")
    text = text.replace("type = ohmic", "type = flat").replace(
        "omega_c = 3.0", "omega_max = 3.0")
    cfg = write_cfg(tmp_path, text)
    code = run_cli(["derive", "--config", cfg])
    assert code == 3
    err = capsys.readouterr().err
    assert "zero-frequency" in err or "ohmic" in err


@pytest.mark.parametrize("verb,scheme", [
    ("derive", "markov"), ("evolve", "markov"), ("nonmarkov", "tcl2"),
    ("nonmarkov", "coarse_grain")])
def test_nan_coupling_strength_exits_numerical(tmp_path, capsys, verb, scheme):
    """A NaN coupling strength used to give a non-finite generator; every
    generator builder now rejects it by name."""
    out = str(tmp_path / "out.csv")
    text = QUBIT_CFG.format(alpha=0.1, T=1.0, t_final=1.0, steps=2, out=out)
    text = text.replace("omega0 = 1.0", "omega0 = 1.0\ncoupling_strength = nan")
    cfg = write_cfg(tmp_path, text.replace("scheme = markov", f"scheme = {scheme}"))
    assert run_cli([verb, "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: coupling strength alpha must be a real number")
    assert not os.path.exists(out)


def test_check_all_pass_and_exit_codes(tmp_path):
    out = str(tmp_path / "check.csv")
    text = QUBIT_CFG.format(alpha=0.1, T=1.0, t_final=5.0, steps=5, out=out)
    text += "\n[checks]\nrequested = cp,markov,kossakowski,spohn,relaxing\n"
    cfg = write_cfg(tmp_path, text)
    assert run_cli(["check", "--config", cfg, "--seed", "3"]) == 0
    rows = open(out).read().splitlines()
    assert rows[0] == "check,verdict,witness"
    assert all(",pass," in r for r in rows[1:])


def test_check_markov_fails_on_nondivisible_family(tmp_path):
    import scipy.integrate

    # cos-rate dephasing family written in the process-matrix CSV format
    family = []
    for t in np.linspace(0.0, 2 * np.pi, 17):
        integral, _ = scipy.integrate.quad(np.cos, 0.0, t)
        q = np.exp(-2.0 * integral)
        family.append((t, np.diag([1.0, q, q, 1.0]).astype(complex)))
    fam_path = str(tmp_path / "family.csv")
    cli.write_map_family_csv(fam_path, family)
    back = cli.read_map_family_csv(fam_path)
    assert len(back) == 17
    assert np.abs(back[3][1] - family[3][1]).max() < 1e-10

    out = str(tmp_path / "check.csv")
    report = str(tmp_path / "witness.csv")
    text = QUBIT_CFG.format(alpha=0.1, T=1.0, t_final=5.0, steps=5, out=out)
    text += ("\n[checks]\nrequested = markov\nfamily_file = " + fam_path
             + "\nreport_file = " + report + "\n")
    cfg = write_cfg(tmp_path, text)
    assert run_cli(["check", "--config", cfg]) == 1
    rows = open(out).read().splitlines()
    assert rows[1].startswith("markov,fail,")
    assert float(rows[1].split(",")[2]) < -1e-6
    # per-interval report emitted in the same CSV family format
    wit = open(report).read().splitlines()
    assert wit[0] == "t_start,t_end,min_choi_eigenvalue,cp,singular"
    flags = [int(r.split(",")[3]) for r in wit[1:]]
    assert 0 in flags and 1 in flags


@pytest.mark.parametrize("preset", ["damped_qubit", "damped_oscillator"])
@pytest.mark.parametrize("T", [0.0, 1.0])
def test_check_markov_witness_matches_directly_exponentiated_family(tmp_path, preset, T):
    from openqdyn.liouville import expm
    from openqdyn.maps import divisibility_witness

    # the CLI steps the semigroup; the oracle exponentiates at every sample time
    # (on the grid of the check goldens: later samples are ill-conditioned, and
    # then the oracle's own rounding dominates the difference)
    out = str(tmp_path / "check.csv")
    text = QUBIT_CFG.format(alpha=0.1, T=T, t_final=2.0, steps=4, out=out)
    text = text.replace("preset = damped_qubit", f"preset = {preset}\nn_levels = 6")
    cfg = write_cfg(tmp_path, text + "\n[checks]\nrequested = markov\n")
    run_cli(["check", "--config", cfg])
    witness = float(open(out).read().splitlines()[1].split(",")[2])

    ctx = cli.RunContext(cli.parse_config(cfg), 0, None)
    family = [(t, expm(t * ctx.L)) for t in cli.build_output_times(ctx.cfg)]
    report = divisibility_witness(family, tol=1e-10)
    direct = min(iv.min_choi_eigenvalue for iv in report.intervals)
    assert abs(witness - direct) <= max(1e-9 * abs(direct), 1e-14)


def test_check_markov_never_builds_the_dense_family(tmp_path):
    """``check markov`` steps its semigroup on the blocks of L: for osc12 on 51
    samples it allocates under a quarter of the 51 dense 144 x 144 maps."""
    import tracemalloc

    out = str(tmp_path / "check.csv")
    text = QUBIT_CFG.format(alpha=0.05, T=1.0, t_final=10.0, steps=50, out=out)
    text = text.replace("preset = damped_qubit", "preset = damped_oscillator\nn_levels = 12")
    cfg = write_cfg(tmp_path, text + "\n[checks]\nrequested = markov\n")
    tracemalloc.start()
    try:
        code = run_cli(["check", "--config", cfg])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert open(out).read().splitlines()[1].startswith("markov,inconclusive,")
    assert peak < 51 * 144**2 * 16 / 4


@pytest.mark.parametrize("nan_first", [True, False], ids=["nan_first", "nan_last"])
def test_check_markov_witness_does_not_depend_on_interval_order(tmp_path, nan_first):
    """One interval's intermediate map is rho -> A rho, which is not
    Hermiticity-preserving (a nan witness), the other a dephasing map (Choi
    eigenvalues 0, 0, 0.5 and 1.5, so a witness of 0).  The CLI's witness
    is the least finite eigenvalue in either order."""
    N = np.kron(np.eye(2), np.diag([1.0, 2.0])).astype(complex)   # rho -> A rho
    D = np.diag([1.0, 0.5, 0.5, 1.0]).astype(complex)
    first, second = (N, D) if nan_first else (D, N)
    fam = str(tmp_path / "family.csv")
    cli.write_map_family_csv(fam, [(0.0, np.eye(4, dtype=complex)), (1.0, first),
                                   (2.0, second @ first)])
    out, report = str(tmp_path / "check.csv"), str(tmp_path / "witness.csv")
    text = QUBIT_CFG.format(alpha=0.1, T=1.0, t_final=2.0, steps=2, out=out)
    text += f"\n[checks]\nrequested = markov\nfamily_file = {fam}\nreport_file = {report}\n"
    assert run_cli(["check", "--config", write_cfg(tmp_path, text)]) == 1
    witnesses = [r.split(",")[2] for r in open(report).read().splitlines()[1:]]
    assert ("nan" in witnesses[0]) == nan_first and ("nan" in witnesses[1]) != nan_first
    assert open(out).read().splitlines()[1] == "markov,fail," + cli.fmt(0.0)


def test_finite_min_skips_nan_wherever_it_stands():
    for values in ([np.nan, -1.0, 2.0], [-1.0, 2.0, np.nan], [2.0, np.nan, -1.0]):
        assert cli._finite_min(values) == -1.0
    assert np.isnan(cli._finite_min([np.nan, np.nan]))
    assert np.isnan(cli._finite_min([]))


def test_spectrum_and_steady_commands(tmp_path):
    out = str(tmp_path / "spectrum.csv")
    cfg = write_cfg(tmp_path, QUBIT_CFG.format(alpha=0.1, T=1.0, t_final=1.0,
                                               steps=2, out=out))
    assert run_cli(["spectrum", "--config", cfg]) == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("# zero_multiplicity,1")
    assert len(lines) == 8          # 3 header lines + column row + 4 eigenvalues

    out2 = str(tmp_path / "steady.csv")
    assert run_cli(["steady", "--config", cfg, "--out", out2]) == 0
    content = open(out2).read().splitlines()
    assert content[0] == "# kernel_dimension,1"


@pytest.mark.parametrize("verb,scheme", [("derive", "markov"), ("spectrum", "markov"),
                                         ("steady", "markov"), ("nonmarkov", "tcl2"),
                                         ("nonmarkov", "coarse_grain")])
def test_near_degenerate_chain_runs_on_every_generator_verb(tmp_path, verb, scheme):
    """Levels 1, 1 + d, 1 + 2d, 1 + 3d with d = 0.6 default bin widths: the
    chain is one merged Bohr bin, so every verb that builds a generator exits
    0 (the merged bin makes the zero eigenvalue degenerate: 10 steady states)."""
    inputs = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")
    out = str(tmp_path / "out.csv")
    text = QUBIT_CFG.format(alpha=0.1, T=1.0, t_final=1.0, steps=2, out=out)
    text = text.replace("preset = damped_qubit", (
        f"preset = custom\nh_file = {inputs}/h6chain.csv\ncoupling_files = {inputs}/a6chain.csv"))
    text = text.replace("scheme = markov", f"scheme = {scheme}").replace("sigma_z", "energy")
    assert run_cli([verb, "--config", write_cfg(tmp_path, text)]) == 0
    if verb == "steady":
        assert open(out).readline() == "# kernel_dimension,10\n"


def test_nonmarkov_command_reports_witness(tmp_path):
    out = str(tmp_path / "nm.csv")
    text = QUBIT_CFG.format(alpha=0.1, T=1.0, t_final=2.0, steps=4, out=out)
    text = text.replace("scheme = markov", "scheme = tcl2\nsubsteps = 4")
    cfg = write_cfg(tmp_path, text)
    assert run_cli(["nonmarkov", "--config", cfg]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "t,sigma_z,min_choi_eigenvalue"
    assert len(lines) == 6


def test_nonmarkov_tcl2_runs_past_one_row_block_of_nodes(tmp_path):
    """t_final = 900 in two intervals: the horizon 450 needs 70785 nodes, more
    than one row block of 2^16 entries holds, and 900 the cap of 2^17."""
    out = str(tmp_path / "nm.csv")
    text = QUBIT_CFG.format(alpha=0.1, T=1.0, t_final=900.0, steps=2, out=out)
    text = text.replace("scheme = markov", "scheme = tcl2\nsubsteps = 1")
    assert run_cli(["nonmarkov", "--config", write_cfg(tmp_path, text)]) == 0
    assert len(open(out).read().splitlines()) == 4


def test_nonmarkov_memory_kernel_diagnostics(tmp_path):
    out = str(tmp_path / "nm.csv")
    text = QUBIT_CFG.format(alpha=0.1, T=1.0, t_final=2.0, steps=4, out=out)
    text = text.replace("scheme = markov", "scheme = memory_kernel\nkernel_g = 20.0")
    cfg = write_cfg(tmp_path, text)
    assert run_cli(["nonmarkov", "--config", cfg]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "t,sigma_z,trace_error,min_eigenvalue"


def test_missing_config_is_config_error(tmp_path, capsys):
    assert run_cli(["evolve", "--config", str(tmp_path / "nope.cfg")]) == 2
    assert "config error" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "openqdyn.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "evolve" in proc.stdout


NUMPY_SPY = """
import os, runpy, sys

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            sys.meta_path.remove(self)
            print("OPENBLAS_NUM_THREADS=" + os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
                  file=sys.stderr)

sys.meta_path.insert(0, Spy())
sys.argv = ["openqdyn", "--help"]
runpy.run_module("openqdyn.cli", run_name="__main__", alter_sys=True)
"""


def test_thread_cap_applied_before_numpy_loads_under_dash_m():
    # runs the module the way ``python -m openqdyn.cli`` does, and reports the
    # BLAS thread variable at the moment numpy is first imported
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS")}
    env["OQS_NUM_THREADS"] = "1"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", NUMPY_SPY], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "OPENBLAS_NUM_THREADS=1" in proc.stderr.splitlines()


def test_custom_model_matches_preset(tmp_path):
    # write the damped-qubit model as custom matrices and compare the derive
    # report against the preset path
    from openqdyn.operators import sigma_minus, sigma_plus, sigma_x, sigma_z

    h = 0.5 * sigma_z
    a1 = sigma_x
    a2 = 1j * (sigma_plus - sigma_minus)
    cli.write_matrix_csv(str(tmp_path / "H.csv"), h)
    cli.write_matrix_csv(str(tmp_path / "A1.csv"), a1)
    cli.write_matrix_csv(str(tmp_path / "A2.csv"), a2)
    custom = f"""
[model]
preset = custom
h_file = {tmp_path}/H.csv
coupling_files = {tmp_path}/A1.csv,{tmp_path}/A2.csv
coupling_pattern = position_xy

[bath]
type = ohmic
alpha = 0.1
omega_c = 3.0
temperature = 1.0

[output]
path = {tmp_path}/custom.csv
"""
    cfg_c = write_cfg(tmp_path, custom, name="custom.cfg")
    cfg_p = write_cfg(tmp_path, QUBIT_CFG.format(
        alpha=0.1, T=1.0, t_final=1.0, steps=2, out=str(tmp_path / "preset.csv")),
        name="preset.cfg")
    assert run_cli(["derive", "--config", cfg_c]) == 0
    assert run_cli(["derive", "--config", cfg_p]) == 0
    assert open(tmp_path / "custom.csv").read() == open(tmp_path / "preset.csv").read()


def test_oscillator_thermal_initial_state_is_stationary(tmp_path):
    out = str(tmp_path / "osc.csv")
    text = f"""
[model]
preset = damped_oscillator
n_levels = 6
omega0 = 1.0

[bath]
type = ohmic
alpha = 0.1
omega_c = 3.0
T = 1.0

[solver]
scheme = markov
t_final = 6.0
steps = 3

[initial]
state = thermal

[observables]
names = number,energy

[output]
path = {out}
"""
    cfg = write_cfg(tmp_path, text, name="osc.cfg")
    assert run_cli(["evolve", "--config", cfg]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "t,number,energy"
    first = [float(v) for v in lines[1].split(",")[1:]]
    for row in lines[2:]:
        vals = [float(v) for v in row.split(",")[1:]]
        assert np.allclose(vals, first, atol=1e-9)


def test_initial_state_from_file(tmp_path):
    rho0 = np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex)
    cli.write_matrix_csv(str(tmp_path / "rho.csv"), rho0)
    out = str(tmp_path / "t.csv")
    text = QUBIT_CFG.format(alpha=0.1, T=1.0, t_final=1.0, steps=1, out=out)
    text = text.replace("state = excited",
                        f"state = file\nrho_file = {tmp_path}/rho.csv")
    cfg = write_cfg(tmp_path, text)
    assert run_cli(["evolve", "--config", cfg]) == 0
    first = open(out).read().splitlines()[1]
    # <sigma_z> at t=0 equals the file state's population difference
    assert abs(float(first.split(",")[1]) - (-0.5)) < 1e-12


def _run_capture(args, capsys):
    code = run_cli(args)
    return code, capsys.readouterr().err


def _custom_cfg(tmp_path, pattern="single", solver="t_final = 1.0\nsteps = 2",
                checks="requested = cp"):
    from openqdyn.operators import sigma_x, sigma_z

    cli.write_matrix_csv(str(tmp_path / "H.csv"), 0.5 * sigma_z)
    cli.write_matrix_csv(str(tmp_path / "A.csv"), sigma_x)
    text = f"""
[model]
preset = custom
h_file = {tmp_path}/H.csv
coupling_files = {tmp_path}/A.csv
coupling_pattern = {pattern}

[bath]
type = ohmic
alpha = 0.1
omega_c = 3.0
temperature = 1.0

[solver]
{solver}

[checks]
{checks}

[output]
path = {tmp_path}/out.csv
"""
    return write_cfg(tmp_path, text)


@pytest.mark.parametrize("verb,scheme", [
    ("derive", "markov"), ("nonmarkov", "tcl2"), ("nonmarkov", "coarse_grain"),
    ("evolve", "markov"), ("spectrum", "markov")])
def test_unknown_coupling_pattern_rejected_by_every_verb(tmp_path, capsys, verb, scheme):
    cfg = _custom_cfg(tmp_path, pattern="bogus",
                      solver=f"scheme = {scheme}\nt_final = 0.5\nsteps = 1")
    code, err = _run_capture([verb, "--config", cfg], capsys)
    assert code == 2
    assert err == "config error: unknown coupling pattern 'bogus' in [model]\n"
    assert not (tmp_path / "out.csv").exists()


def test_missing_family_file_is_config_error(tmp_path, capsys):
    cfg = _custom_cfg(tmp_path, checks=f"requested = markov\nfamily_file = {tmp_path}/none.csv")
    code, err = _run_capture(["check", "--config", cfg], capsys)
    assert code == 2
    assert err.startswith("config error: ") and f"{tmp_path}/none.csv" in err


@pytest.mark.parametrize("row", [",", "0.5", "0.5,1,x,0,0,0,0,0,0"])
def test_malformed_family_row_is_config_error(tmp_path, capsys, row):
    fam = tmp_path / "fam.csv"
    good = "0," + ",".join(["1", "0"] + ["0", "0"] * 2 + ["1", "0"])
    fam.write_text(f"# family\n{good}\n{row}\n")
    cfg = _custom_cfg(tmp_path, checks=f"requested = markov\nfamily_file = {fam}")
    code, err = _run_capture(["check", "--config", cfg], capsys)
    assert code == 2
    assert err.startswith(f"config error: {fam}:3: ")


def test_non_numeric_matrix_cell_is_config_error(tmp_path, capsys):
    cfg = _custom_cfg(tmp_path)
    (tmp_path / "A.csv").write_text("0,0,1,0\n1,0,zero,0\n")
    code, err = _run_capture(["derive", "--config", cfg], capsys)
    assert code == 2
    assert err.startswith(f"config error: {tmp_path}/A.csv:2: ")
    assert "zero" in err


@pytest.mark.parametrize("name", ["population_5", "population_x", "population_-1"])
def test_bad_population_observable_is_config_error(tmp_path, capsys, name):
    out = str(tmp_path / "o.csv")
    text = QUBIT_CFG.format(alpha=0.1, T=1.0, t_final=1.0, steps=1, out=out)
    cfg = write_cfg(tmp_path, text.replace("names = sigma_z", f"names = {name}"))
    code, err = _run_capture(["evolve", "--config", cfg], capsys)
    assert code == 2
    assert err.startswith("config error: ") and name in err


def test_input_readers_close_their_files(tmp_path):
    import gc
    import warnings

    from openqdyn.liouville import expm

    cfg = write_cfg(tmp_path, "[a]\nx = 1\n")
    cli.write_matrix_csv(str(tmp_path / "m.csv"), np.eye(2))
    cli.write_map_family_csv(str(tmp_path / "f.csv"),
                             [(0.0, np.eye(4)), (1.0, expm(-np.eye(4)))])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        cli.parse_config(cfg)
        cli.read_matrix_csv(str(tmp_path / "m.csv"))
        cli.read_map_family_csv(str(tmp_path / "f.csv"))
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def _family_by_lines(path):
    """Reference map-family reader: the row-by-row parse of ``cli._csv_rows``
    with the structure checks of :func:`cli.read_map_family_csv`."""
    family = []
    for lineno, vals in cli._csv_rows(path, "map family file"):
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


FAMILY_TEXTS = {
    "plain": "0,1,0\n0.5,0.25,-0.5\n1,0.125,0\n",
    "blank_lines": "\n0,1,0\n\n0.5,0.25,-0.5\n\n",
    "whitespace_line": "0,1,0\n   \n0.5,0.25,-0.5\n",
    "comment_line": "# t,re,im\n0,1,0\n0.5,0.25,-0.5\n",
    "spaces": " 0 , 1 ,0\n0.5 ,0.25, -0.5 \n",
    "tabs": "0,\t1,0\t\n\t0.5,0.25,-0.5\n",
    "crlf": "0,1,0\r\n0.5,0.25,-0.5\r\n",
    "nan_inf": "0,nan,inf\n0.5,-inf,-nan\n",
    "overflow": "0,1e400,0\n0.5,-1e400,1e-400\n",
    "hex": "0,0x1p3,0\n0.5,1,0\n",
    "fortran_exponent": "0,1D3,0\n0.5,1,0\n",
    "trailing_comma": "0,1,0,\n0.5,0.25,-0.5,\n",
    "underscore": "0,1_0,0\n0.5,1,0\n",
    "empty_cell": "0,1,,0\n0.5,0.25,-0.5\n",
    "ragged_after_blank": "0,1,0\n\n0.5,0.25\n",
    "not_square_after_blank": "\n0,1,0,2,0\n0.5,1,0,2,0\n",
    "one_sample": "\n0,1,0\n",
    "empty": "",
    "time_only": "0\n1\n",
    "two_by_two": ("0,1,0,0,0,-0,0,1,-0\n"
                   "0.5,0.5,5e-324,1e308,0,0,0,0.5,-2.5e-1\n"),
}


@pytest.mark.parametrize("name", sorted(FAMILY_TEXTS))
def test_map_family_reader_agrees_with_the_line_reader(tmp_path, name):
    """The whole-file parse returns the line reader's family bit for bit, or
    the line reader's config error with its file:line."""
    path = tmp_path / "f.csv"
    path.write_bytes(FAMILY_TEXTS[name].encode())
    try:
        expected = _family_by_lines(str(path))
    except ConfigError as exc:
        with pytest.raises(ConfigError) as got:
            cli.read_map_family_csv(str(path))
        assert str(got.value) == str(exc)
        return
    family = cli.read_map_family_csv(str(path))
    assert [t for t, _ in family] == [t for t, _ in expected]
    for (_, E), (_, R) in zip(family, expected):
        assert E.dtype == complex and E.shape == R.shape
        assert np.array_equal(E.view(np.uint64), R.view(np.uint64))


def test_map_family_reader_names_a_missing_file(tmp_path):
    path = str(tmp_path / "absent.csv")
    with pytest.raises(ConfigError, match="cannot read map family file"):
        cli.read_map_family_csv(path)


SPECIAL = np.array([[-0.0, np.nan, np.inf], [-np.inf, 5e-324, 1e308],
                    [-5e-324, -1e308, 1.0 / 3.0]])
SPECIAL = np.stack([SPECIAL, SPECIAL[::-1]], axis=-1).view(complex)[..., 0]


@pytest.mark.parametrize("M", [
    np.random.default_rng(82).standard_normal((400, 2)).view(complex),
    np.random.default_rng(83).standard_normal((8, 16)).view(complex),
    np.random.default_rng(84).standard_normal((400, 800)).view(complex),
    SPECIAL,
    np.full((2, 3), complex(-0.0, -0.0)),
], ids=["400x1", "8x8", "400x400", "special", "negative_zero"])
def test_matrix_rows_match_the_value_by_value_format(M):
    rows = cli._re_im_rows(M)
    assert rows == [",".join(f"{cli.fmt(z.real)},{cli.fmt(z.imag)}" for z in row)
                    for row in M]


def test_cli_calls_in_one_process_match_fresh_processes(tmp_path, capsys):
    """The argument parser is built once per process; a later call, also after
    a config error, writes the bytes and returns the exit code of a fresh
    interpreter."""
    runs = []
    for k, (verb, text) in enumerate([
            ("derive", QUBIT_CFG),
            ("derive", QUBIT_CFG.replace("preset = damped_qubit", "preset = bogus")),
            ("check", QUBIT_CFG + "\n[checks]\nrequested = cp,kossakowski\n")]):
        out = str(tmp_path / f"out{k}.csv")
        cfg = write_cfg(tmp_path, text.format(alpha=0.1, T=1.0, t_final=1.0, steps=2,
                                              out=out), name=f"run{k}.cfg")
        runs.append(([verb, "--config", cfg], out))
    in_process = []
    for argv, out in runs:
        code, err = _run_capture(argv, capsys)
        in_process.append((code, err, open(out, "rb").read() if os.path.exists(out) else None))
        if os.path.exists(out):
            os.remove(out)
    for (argv, out), got in zip(runs, in_process):
        proc = subprocess.run([sys.executable, "-m", "openqdyn.cli", *argv],
                              capture_output=True, text=True)
        fresh = open(out, "rb").read() if os.path.exists(out) else None
        assert got == (proc.returncode, proc.stderr, fresh)
    assert [code for code, _, _ in in_process] == [0, 2, 0]


@pytest.mark.parametrize("case", ["tp_not_cp", "cp_not_tp"])
def test_check_cp_fails_on_a_generator_that_is_not_cptp(tmp_path, case):
    """``check cp`` fails, exit 1, for a trace-preserving generator whose maps
    are not CP (a negative decay rate) and for a CP one whose maps lose trace."""
    from openqdyn.gksl import GKSLGenerator, superop_of_generator
    from openqdyn.operators import sigma_minus

    out = str(tmp_path / "check.csv")
    text = QUBIT_CFG.format(alpha=0.1, T=1.0, t_final=1.0, steps=2, out=out)
    ctx = cli.RunContext(cli.parse_config(write_cfg(tmp_path, text + "\n[checks]\nrequested = cp\n")),
                         0, None)
    if case == "tp_not_cp":
        ctx.L = superop_of_generator(GKSLGenerator(H=np.zeros((2, 2)), jumps=[(-0.1, sigma_minus)]))
    else:
        ctx.L = -0.1 * np.eye(4, dtype=complex)
    lines, code = cli.cmd_check(ctx)
    assert lines[0] == "check,verdict,witness"
    assert lines[1].startswith("cp,fail,") and code == 1
    witness = float(lines[1].split(",")[2])
    assert (witness < 0) if case == "tp_not_cp" else (witness >= -1e-12)    # the CP part
