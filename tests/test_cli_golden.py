"""Byte-exact golden outputs of the batch CLI.

Every case runs ``cli.main`` in-process and compares the exit code, the
stderr text, the output file and any report file with the committed files
under ``tests/golden/``, byte for byte once the temporary and input
directories are replaced by ``<tmp>`` and ``<inputs>``.

The goldens record the CLI's behaviour; they are not regenerated to follow a
code change.  ``python tests/test_cli_golden.py --write`` adds goldens for
the cases that have no entry in ``status.json`` yet, running them on the
checkout under ``src/``; committed goldens are never rewritten.
``python tests/test_cli_golden.py --diff`` runs every case and prints each
golden line the checkout no longer reproduces, as ``file:line: old -> new``
(and each moved ``status.json`` entry), then one summary line per moved
file: the number of moved lines, the largest absolute change of a numeric
cell, and whether any other cell changed; it writes nothing, and exits 1
when anything moved, else 0 after the line ``no golden moved``.
"""
import contextlib
import io
import itertools
import json
import os
import sys
import warnings

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
INPUTS = os.path.join(GOLDEN, "inputs")

MODELS = {
    "qubit": "preset = damped_qubit\nomega0 = 1.0",
    "osc6": "preset = damped_oscillator\nn_levels = 6\nomega0 = 1.0",
    "dephasing": "preset = pure_dephasing\nomega0 = 1.0",
    "custom4": ("preset = custom\nh_file = {inputs}/h4.csv\n"
                "coupling_files = {inputs}/a4.csv\ncoupling_pattern = single"),
}
BATHS = {
    "T1": "type = ohmic\nalpha = 0.1\nomega_c = 3.0\ntemperature = 1.0",
    "T0": "type = ohmic\nalpha = 0.1\nomega_c = 3.0\nT = 0.0",
    "flat": "type = flat\nalpha = 0.05\nomega_max = 8.0\ntemperature = 0.5",
}
VERBS = ("evolve", "derive", "check", "steady", "spectrum", "nonmarkov")
ALL_CHECKS = "cp,markov,kossakowski,spohn,relaxing"


def _config(model="qubit", bath="T1", solver="t_final = 2.0\nsteps = 4",
            initial="", observables="", checks=f"requested = {ALL_CHECKS}",
            output="path = {tmp}/out.csv"):
    sections = [("model", MODELS.get(model, model)), ("bath", BATHS.get(bath, bath)),
                ("solver", solver), ("initial", initial), ("observables", observables),
                ("checks", checks), ("output", output)]
    return "".join(f"[{name}]\n{body}\n\n" for name, body in sections if body)


def _cases():
    cases = {}
    for model in MODELS:
        for bath in BATHS:
            for verb in VERBS:
                cases[f"{verb}_{model}_{bath}"] = ([verb], _config(model, bath))
    for model in ("qubit", "osc6"):
        for scheme in ("markov", "memory_kernel", "post_markovian", "tcl2", "coarse_grain"):
            solver = f"scheme = {scheme}\nt_final = 1.5\nsteps = 3\nkernel_g = 8.0\nsubsteps = 4"
            cases[f"nonmarkov_{scheme}_{model}"] = (["nonmarkov"], _config(model, solver=solver))
            if model == "qubit":
                cases[f"evolve_{scheme}_{model}"] = (["evolve"], _config(model, solver=solver))
                shifted = f"scheme = {scheme}\noutput_times = 0.4,0.9,1.5\nkernel_g = 8.0"
                for verb in ("evolve", "nonmarkov"):
                    cases[f"{verb}_{scheme}_late_start"] = ([verb], _config(model, solver=shifted))
    for state in ("excited", "ground", "maximally_mixed", "thermal"):
        for model in ("qubit", "osc6"):
            cases[f"initial_{state}_{model}"] = (["evolve"], _config(
                model, initial=f"state = {state}", observables=(
                    "names = sigma_x,sigma_y,sigma_z,energy,population_1" if model == "qubit"
                    else "names = number,energy,population_0,population_5")))
    cases["initial_file_observable_file"] = (["evolve"], _config(
        initial="state = file\nrho_file = {inputs}/rho2.csv",
        observables="names = file:{inputs}/obs2.csv,number,sigma_z"))
    cases["bath_table"] = (["derive"], _config(bath="type = table\nj_file = {inputs}/jtable.csv\n"
                                                    "temperature = 0.7"))
    cases["bath_ohmic_subohmic"] = (["evolve"], _config(
        bath="type = ohmic\nalpha = 0.05\ns = 0.5\nomega_c = 2.0\nomega_max = 60.0\nT = 0.3"))
    cases["coupling_strength"] = (["derive"], _config(
        "preset = damped_qubit\nomega0 = 1.3\ncoupling_strength = 0.7"))
    cases["check_markov_family"] = (["check"], _config(checks=(
        "requested = markov\nfamily_file = {inputs}/family2.csv\n"
        "report_file = {tmp}/report.csv")))
    cases["check_markov_report_own_family"] = (["check"], _config(
        "osc6", checks="requested = markov,cp\nreport_file = {tmp}/report.csv"))
    cases["check_markov_inconclusive"] = (["check"], _config(
        "osc6", solver="t_final = 60.0\nsteps = 2",
        checks="requested = markov\nreport_file = {tmp}/report.csv"))
    cases["check_markov_single_time"] = (["check"], _config(
        "osc6", solver="t_final = 1.0\nsteps = 0",
        checks="requested = markov\nreport_file = {tmp}/report.csv"))
    cases["check_seed_tol"] = (["check", "--seed", "7", "--tol", "1e-8"], _config(
        "custom4", checks="requested = kossakowski,relaxing,spohn"))
    cases["default_check_cp"] = (["check"], _config(checks=""))
    # levels 1, 1 + d, 1 + 2d, 1 + 3d with d = 1.8e-9, under the default bin width 3e-9
    chain = ("preset = custom\nh_file = {inputs}/h6chain.csv\n"
             "coupling_files = {inputs}/a6chain.csv\ncoupling_pattern = single")
    for verb in ("derive", "spectrum"):
        cases[f"{verb}_chain6"] = ([verb], _config(chain))
    cases["nonmarkov_tcl2_chain6"] = (["nonmarkov"], _config(
        chain, solver="scheme = tcl2\nt_final = 2.0\nsteps = 4"))
    cases["check_chain6"] = (["check"], _config(chain, checks="requested = cp,markov,kossakowski"))
    for verb in ("derive", "steady", "spectrum"):
        cases[f"{verb}_tol"] = ([verb, "--tol", "1e-6"], _config("osc6"))
    cases["out_flag_overrides_config"] = (["spectrum", "--out", "{tmp}/out.csv"], _config(
        output="path = {tmp}/ignored.csv"))
    # config and numerical errors: exit 2 / 3 and their messages
    errors = {
        "err_missing_config": (["evolve", "--config", "{tmp}/nope.cfg"], None),
        "err_no_output": (["derive"], _config(output="")),
        "err_unknown_preset": (["derive"], _config("preset = bogus")),
        "err_unknown_bath": (["derive"], _config(bath="type = bogus")),
        "err_preset_before_bath": (["steady"], _config("preset = bogus", bath="type = bogus")),
        "err_bath_before_strength": (["evolve"], _config(
            "preset = damped_qubit\ncoupling_strength = x", bath="type = bogus")),
        "err_strength_before_scheme": (["evolve"], _config(
            "preset = damped_qubit\ncoupling_strength = x", solver="scheme = bogus")),
        "err_unknown_scheme": (["evolve"], _config(solver="scheme = bogus")),
        "err_unknown_scheme_nonmarkov": (["nonmarkov"], _config(solver="scheme = bogus")),
        "err_scheme_after_observables": (["evolve"], _config(
            solver="scheme = bogus", observables="names = bogus")),
        "err_unknown_check": (["check"], _config(checks="requested = cp,bogus")),
        "err_check_after_report": (["check"], _config(checks=(
            "requested = markov,bogus\nfamily_file = {inputs}/family2.csv\n"
            "report_file = {tmp}/report.csv"))),
        "err_unknown_observable": (["evolve"], _config(observables="names = bogus")),
        "err_sigma_on_oscillator": (["evolve"], _config("osc6", observables="names = sigma_x")),
        "err_unknown_initial": (["evolve"], _config(initial="state = bogus")),
        "err_bad_output_times": (["evolve"], _config(solver="output_times = 0,2,1")),
        "err_output_times_not_numbers": (["evolve"], _config(solver="output_times = 0,a")),
        "err_output_times_nan": (["check"], _config(solver="output_times = 0,nan")),
        "err_negative_t_final": (["evolve"], _config(solver="t_final = -1\nsteps = 4")),
        "err_zero_t_final": (["check"], _config(solver="t_final = 0\nsteps = 2")),
        "err_negative_steps": (["evolve"], _config(solver="t_final = 1\nsteps = -2")),
        "err_missing_h_file": (["derive"], _config("preset = custom")),
        "err_bad_cast": (["evolve"], _config(solver="steps = four")),
        "err_missing_flat_omega_max": (["derive"], _config(bath="type = flat")),
        "err_bad_config_line": (["derive"], "[model]\nnot a pair\n"),
        "err_bad_kernel_g": (["nonmarkov"], _config(solver="scheme = memory_kernel\nkernel_g = -1")),
        "err_kernel_g_nan": (["nonmarkov"], _config(solver="scheme = post_markovian\nkernel_g = nan")),
        "err_substeps_zero": (["nonmarkov"], _config(solver="scheme = tcl2\nsubsteps = 0")),
        "err_substeps_negative": (["evolve"], _config(solver="scheme = tcl2\nsubsteps = -3")),
        "err_bad_rho_file": (["evolve"], _config(
            initial="state = file\nrho_file = {inputs}/obs2.csv")),
        "err_usage": (["evolve"], None),
        "err_tol_zero": (["spectrum", "--tol", "0"], _config()),
        "err_tol_negative": (["check", "--tol", "-1"], _config(checks="requested = cp,markov")),
        "err_tol_nan": (["spectrum", "--tol", "nan"], _config()),
        "err_generator_before_t0_row": (["evolve"], _config(
            "dephasing", "flat", solver="output_times = 0")),
        "err_empty_key": (["derive"], "[model]\n= 1\n"),
        "err_matrix_odd_entries": (["derive"], _config(
            "preset = custom\nh_file = {inputs}/bad_matrix_odd.csv\n"
            "coupling_files = {inputs}/a4.csv")),
        "err_matrix_not_square": (["derive"], _config(
            "preset = custom\nh_file = {inputs}/bad_matrix_not_square.csv\n"
            "coupling_files = {inputs}/a4.csv")),
        "err_family_odd_entries": (["check"], _config(
            checks="requested = markov\nfamily_file = {inputs}/bad_family_odd.csv")),
        "err_family_one_sample": (["check"], _config(
            checks="requested = markov\nfamily_file = {inputs}/bad_family_one_sample.csv")),
        "err_unknown_coupling_pattern": (["derive"], _config(
            MODELS["custom4"].replace("= single", "= bogus"))),
        "err_position_xy_one_coupling": (["derive"], _config(
            MODELS["custom4"].replace("= single", "= position_xy"))),
        "err_temperature_negative": (["derive"], _config(
            bath="type = ohmic\nalpha = 0.1\nomega_c = 3.0\ntemperature = -1")),
        "err_temperature_nan": (["check"], _config(
            bath="type = ohmic\nalpha = 0.1\nomega_c = 3.0\nT = nan")),
        "err_temperature_table": (["derive"], _config(
            bath="type = table\nj_file = {inputs}/jtable.csv\ntemperature = -0.5")),
    }
    bad_keys = {"alpha_negative": ("ohmic", "alpha = -0.1"), "alpha_nan": ("ohmic", "alpha = nan"),
                "alpha_inf": ("flat", "alpha = inf\nomega_max = 8.0"),
                "omega_c_zero": ("ohmic", "omega_c = 0"), "omega_c_nan": ("ohmic", "omega_c = nan"),
                "omega_max_negative": ("ohmic", "omega_max = -5"),
                "omega_max_flat_nan": ("flat", "omega_max = nan"), "s_nan": ("ohmic", "s = nan"),
                "omega_max_table_zero": ("table", "j_file = {inputs}/jtable.csv\nomega_max = 0")}
    for name, (kind, keys) in bad_keys.items():
        errors[f"err_bath_{name}"] = (["derive"], _config(bath=f"type = {kind}\n{keys}\nT = 1"))
    errors["err_bath_both_temperatures"] = (["derive"], _config(
        bath="type = ohmic\nT = 1.0\ntemperature = 1.0"))
    errors["err_omega0_nan"] = (["derive"], _config("preset = damped_qubit\nomega0 = nan"))
    errors["err_n_levels_negative"] = (["evolve"], _config(
        "preset = damped_oscillator\nn_levels = -2"))
    errors["err_n_levels_zero"] = (["spectrum"], _config("preset = damped_oscillator\nn_levels = 0"))
    # a misspelled key ran at T = 0, and a misspelled section ran the default cp check
    errors["err_unknown_key"] = (["evolve"], _config(
        bath="type = ohmic\nalpha = 0.1\nomega_c = 3.0\ntemprature = 1.0"))
    errors["err_unknown_section"] = (["check"], _config(checks="") + "[chekcs]\nrequested = markov\n")
    for table in ("one_column", "one_row", "unsorted", "negative", "nan"):
        errors[f"err_j_file_{table}"] = (["derive"], _config(
            bath=f"type = table\nj_file = {{inputs}}/bad_j_{table}.csv\ntemperature = 0.7"))
    cases.update(errors)
    return cases


CASES = _cases()


def run_case(name, tmp):
    """Run one case in ``tmp``; returns (status, {golden file name: bytes})."""
    argv, text = CASES[name]
    subst = {"tmp": tmp, "inputs": INPUTS}
    argv = [a.format(**subst) for a in argv]
    if text is not None:
        cfg = os.path.join(tmp, "run.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text.format(**subst))
        argv[1:1] = ["--config", cfg]
    from openqdyn import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = cli.main(argv)
        except SystemExit as exc:      # argparse usage errors
            code = exc.code
    stderr = err.getvalue().replace(tmp, "<tmp>").replace(INPUTS, "<inputs>")
    files = {}
    for suffix in ("out", "report"):
        path = os.path.join(tmp, f"{suffix}.csv")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                files[f"{name}.{suffix}"] = fh.read().replace(INPUTS.encode(), b"<inputs>")
    return {"exit": code, "stderr": stderr, "files": sorted(files)}, files


@pytest.fixture(scope="module")
def status():
    with open(os.path.join(GOLDEN, "status.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _line_differences(expected, actual):
    """Every line where two byte strings differ: the 1-based line number and
    the expected and actual lines (None past the end of either)."""
    exp, act = expected.split(b"\n"), actual.split(b"\n")
    return [(lineno, e, a) for lineno, (e, a) in enumerate(itertools.zip_longest(exp, act), 1)
            if e != a]


def _move_summary(moves):
    """``(moved lines, largest absolute change of a numeric cell, whether a
    non-numeric cell changed)`` over the ``(lineno, old, new)`` triples of
    :func:`_line_differences`.  Cells are the comma-separated fields of a line;
    a line that appears, disappears or changes its cell count is a
    non-numeric change."""
    largest, other = 0.0, False
    for _, e, a in moves:
        old, new = (None if x is None else x.split(b",") for x in (e, a))
        if old is None or new is None or len(old) != len(new):
            other = True
            continue
        for x, y in zip(old, new):
            try:
                largest = max(largest, abs(float(x) - float(y)))
            except ValueError:
                other = other or x != y
    return len(moves), largest, other


def _first_difference(expected, actual):
    """Where two byte strings first differ, as a message."""
    lineno, e, a = _line_differences(expected, actual)[0]
    return f"line {lineno}: expected {e!r}, got {a!r}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_golden(name, status, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got, files = run_case(name, str(tmp_path))
    assert got == status[name]
    for fname, data in files.items():
        with open(os.path.join(GOLDEN, fname), "rb") as fh:
            expected = fh.read()
        assert data == expected, f"{fname}: {_first_difference(expected, data)}"


def test_first_difference_names_line_and_both_texts():
    assert _first_difference(b"t,x\n0,1\n", b"t,x\n0,2\n") == \
        "line 2: expected b'0,1', got b'0,2'"
    assert _first_difference(b"t,x\n", b"t,x\n0,2\n") == "line 2: expected b'', got b'0,2'"
    assert _first_difference(b"t,x\n0,1", b"t,x\n0,1\n") == \
        "line 3: expected None, got b''"


def test_move_summary_counts_lines_and_splits_numeric_cells():
    moves = _line_differences(b"re,im\n1.0,2.0\npass,3\n", b"re,im\n1.5,2.0\npass,2.75\n")
    assert _move_summary(moves) == (2, 0.5, False)
    moves = _line_differences(b"a,1\nb,2\n", b"a,1\nfail,2\n")
    assert _move_summary(moves) == (1, 0.0, True)
    assert _move_summary(_line_differences(b"1,2\n", b"1,2\n3\n"))[2]


def test_cli_golden_help(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    from openqdyn import cli

    with pytest.raises(SystemExit):
        cli.main(["--help"])
    with open(os.path.join(GOLDEN, "help.txt"), encoding="utf-8") as fh:
        assert capsys.readouterr().out == fh.read()


def _write_new_goldens():
    """Record the cases missing from ``status.json`` (and ``help.txt`` if it
    is missing); existing entries and files are left as they are."""
    import tempfile

    os.environ["COLUMNS"] = "80"
    status_path = os.path.join(GOLDEN, "status.json")
    status = {}
    if os.path.exists(status_path):
        with open(status_path, encoding="utf-8") as fh:
            status = json.load(fh)
    for name in sorted(set(CASES) - set(status)):
        with tempfile.TemporaryDirectory() as tmp:
            status[name], files = run_case(name, tmp)
        for fname, data in files.items():
            with open(os.path.join(GOLDEN, fname), "xb") as fh:
                fh.write(data)
        print(f"added {name}")
    with open(status_path, "w", encoding="utf-8") as fh:
        json.dump(status, fh, indent=1, sort_keys=True)
        fh.write("\n")
    help_path = os.path.join(GOLDEN, "help.txt")
    if not os.path.exists(help_path):
        from openqdyn import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
            cli.main(["--help"])
        with open(help_path, "w", encoding="utf-8") as fh:
            fh.write(out.getvalue())


def _diff_goldens():
    """Print each golden line that the checkout under ``src/`` no longer
    reproduces, as ``file:line: old -> new``, and each moved ``status.json``
    entry; nothing is written.  Returns whether anything moved."""
    import tempfile

    os.environ["COLUMNS"] = "80"
    with open(os.path.join(GOLDEN, "status.json"), encoding="utf-8") as fh:
        status = json.load(fh)
    show = lambda line: "(none)" if line is None else line.decode()
    moved, status_moved = {}, False
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            got, files = run_case(name, tmp)
        if got != status.get(name):
            status_moved = True
            print(f"status.json:{name}: {status.get(name)} -> {got}")
        for fname, data in files.items():
            path = os.path.join(GOLDEN, fname)
            expected = b""
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    expected = fh.read()
            moves = _line_differences(expected, data)
            for lineno, e, a in moves:
                print(f"{fname}:{lineno}: {show(e)} -> {show(a)}")
            if moves:
                moved[fname] = _move_summary(moves)
    for fname, (lines, largest, other) in moved.items():
        print(f"moved {fname}: {lines} lines, max numeric |change| {largest:.3g}, "
              f"non-numeric cells changed: {'yes' if other else 'no'}")
    if not (moved or status_moved):
        print("no golden moved")
    return bool(moved or status_moved)


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    _write_new_goldens()
elif __name__ == "__main__" and sys.argv[1:] == ["--diff"]:
    sys.exit(1 if _diff_goldens() else 0)
