"""Verification of every job's outcome.

A job whose inputs do not depend on the seed is compared with the output the
seed commit wrote (``references/<job>.csv``).  Non-numeric cells must match
exactly; numeric cells must satisfy

    |x - ref| <= RTOL * |ref| + ATOL * max(1, largest |cell| of the file).

RTOL = 1e-6 admits the 7e-12 relative change of the Gauss-Legendre weights
that a faster rule would bring, and any reordering of floating-point sums,
while a wrong answer moves cells by far more.  Spectrum tables are compared
as multisets (sorted real parts and sorted imaginary parts), because the
order of eigenvalues with equal real parts is set by rounding.

A seeded job is checked against physics instead: detailed balance and Gibbs
stationarity of the Davies generator, its Gibbs steady state, spectral
structure, Kossakowski round trips, exact finite-difference generators of a
semigroup family, Kraus reconstruction, and so on.

``verify`` returns ``(status, message)`` with status ``ok``, ``defect``
(a known defect of the seed commit: counted as failed, not as a wrong
result, so a later fix shows), or ``wrong``.
"""
import os

import numpy as np
from scipy.linalg import expm

RTOL = 1e-6
ATOL = 1e-8


def _cell_value(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def _cells(text):
    return [line.split(",") for line in text.splitlines()]


def _scale(rows):
    vals = [abs(v) for row in rows for v in map(_cell_value, row) if v is not None
            and np.isfinite(v)]
    return max([1.0] + vals)


def _close(x, ref, scale):
    if np.isnan(ref):
        return np.isnan(x)
    return abs(x - ref) <= RTOL * abs(ref) + ATOL * scale


def _compare_cell(cell, ref, scale):
    if "=" in ref and "=" in cell:
        k1, v1 = cell.split("=", 1)
        k2, v2 = ref.split("=", 1)
        return k1 == k2 and _compare_cell(v1, v2, scale)
    x, r = _cell_value(cell), _cell_value(ref)
    if x is None or r is None:
        return cell == ref
    return _close(x, r, scale)


def compare_text(text, ref_text):
    """None if ``text`` matches the reference output, else a message."""
    rows, ref_rows = _cells(text), _cells(ref_text)
    if len(rows) != len(ref_rows):
        return f"{len(rows)} lines, reference has {len(ref_rows)}"
    scale = _scale(ref_rows)
    if ["re", "im"] in ref_rows:                      # spectrum table
        head = ref_rows.index(["re", "im"]) + 1
        got = np.array(rows[head:], dtype=float)
        want = np.array(ref_rows[head:], dtype=float)
        for col in (0, 1):
            a, b = np.sort(got[:, col]), np.sort(want[:, col])
            if not np.all(np.abs(a - b) <= RTOL * np.abs(b) + ATOL * scale):
                return "eigenvalues differ from the reference"
        rows, ref_rows = rows[:head], ref_rows[:head]
    for lineno, (row, ref) in enumerate(zip(rows, ref_rows), 1):
        if len(row) != len(ref):
            return f"line {lineno}: {len(row)} cells, reference has {len(ref)}"
        for cell, rcell in zip(row, ref):
            if not _compare_cell(cell, rcell, scale):
                return f"line {lineno}: {cell!r} differs from reference {rcell!r}"
    return None


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _gibbs(H, T):
    eps, V = np.linalg.eigh(H)
    if T == 0:
        p = (eps == eps.min()).astype(float)
    else:
        p = np.exp(-(eps - eps.min()) / T)
    return (V * (p / p.sum())) @ V.conj().T


def _derive_lines(text):
    return {row[0]: row[1:] for row in _cells(text) if row and row[0] in
            ("bohr_frequencies", "kms_max_relative_violation", "kms_vacuum_flags",
             "stationarity_residual")}


def _check_custom_derive(text, T, H):
    n = H.shape[0]
    rows = _derive_lines(text)
    if len(rows["bohr_frequencies"]) != n * (n - 1) + 1:
        return f"{len(rows['bohr_frequencies'])} Bohr frequencies, expected {n * (n - 1) + 1}"
    if float(rows["kms_max_relative_violation"][0]) > 1e-8:
        return "detailed balance (KMS) violated"
    if float(rows["stationarity_residual"][0]) > 1e-8:
        return "Gibbs state is not stationary"
    flags = {cell.split(":")[1] for cell in rows["kms_vacuum_flags"]}
    if flags != ({"1"} if T == 0 else {"0"}):
        return f"vacuum flags {sorted(flags)} wrong at T={T}"
    return None


def _check_custom_spectrum(text, T, H):
    n = H.shape[0]
    rows = _cells(text)
    if rows[0] != ["# zero_multiplicity", "1"]:
        return "Davies generator of a non-degenerate model must have a unique zero"
    lam = np.array(rows[4:], dtype=float)
    if lam.shape != (n * n, 2):
        return f"{lam.shape[0]} eigenvalues, expected {n * n}"
    scale = np.abs(lam).max()
    if lam[:, 0].max() > 1e-9 * scale:
        return "eigenvalue with positive real part"
    if not np.allclose(np.sort(lam[:, 1]), -np.sort(lam[:, 1])[::-1], atol=1e-8 * scale):
        return "spectrum not closed under conjugation"
    return None


def _check_custom_steady(text, T, H):
    n = H.shape[0]
    rows = _cells(text)
    if rows[0] != ["# kernel_dimension", "1"] or rows[1] != ["# n_states", "1"]:
        return "expected a unique steady state"
    cells = np.array(rows[3:3 + n], dtype=float)
    rho = cells[:, 0::2] + 1j * cells[:, 1::2]
    if np.abs(rho - _gibbs(H, T)).max() > 1e-7:
        return "steady state is not the Gibbs state"
    return None


def _check_custom_check(text, T, H):
    rows = {row[0]: row[1:] for row in _cells(text)[1:]}
    want = {"kossakowski": "pass", "spohn": "fail" if T == 0 else "pass",
            "relaxing": "pass"}
    for name, label in want.items():
        if rows.get(name, [None])[0] != label:
            return f"{name} verdict {rows.get(name)} expected {label}"
    if float(rows["relaxing"][1]) <= 0:
        return "relaxing generator with no spectral gap"
    return None


CUSTOM_CHECKS = {"custom_derive": _check_custom_derive,
                 "custom_spectrum": _check_custom_spectrum,
                 "custom_steady": _check_custom_steady,
                 "custom_check": _check_custom_check}


def _check_davies_family(text, spec, code):
    rows = {row[0]: row[1:] for row in _cells(text)[1:]}
    label, witness = rows["markov"][0], float(rows["markov"][1])
    report = _cells(_read(spec["report"]))
    if len(report) != spec["samples"]:             # header + samples - 1 intervals
        return "wrong", f"report has {len(report) - 1} intervals"
    if code != (0 if label == "pass" else 1):
        return "wrong", f"exit code {code} with verdict {label}"
    if label in ("pass", "inconclusive"):
        return "ok", ""
    # The seed commit reports fail: the 12-digit CSV round trip leaves a
    # small negative intermediate-map Choi eigenvalue on a semigroup that is
    # CP-divisible.  Anything beyond rounding size is a wrong answer.
    if label == "fail" and -1e-3 < witness < 0:
        return "defect", f"markov,fail on a CP-divisible Davies family (witness {witness:.3g})"
    return "wrong", f"markov verdict {label} witness {witness}"


def _check_api(task, result, data):
    L = data["L"]
    lscale = np.abs(L).max()
    if task == "roundtrip":
        if len(result["jumps"]) != len(data["rates"]):
            return f"{len(result['jumps'])} canonical jumps, expected {len(data['rates'])}"
        if np.abs(result["L"] - L).max() > 1e-9 * lscale:
            return "Kossakowski round trip does not reproduce L"
        return None
    if task == "family":
        t = data["times"]
        dt = t[1] - t[0]
        fwd, bwd = expm(dt * L), expm(-dt * L)
        n2 = L.shape[0]
        exact = [(fwd - np.eye(n2)) / dt] + [(fwd - bwd) / (2 * dt)] * (len(t) - 2) \
            + [(np.eye(n2) - bwd) / dt]
        for G, want in zip(result["generators"], exact):
            if G is None or np.abs(G - want).max() > 1e-7 * lscale:
                return "tcl_from_family generator differs from the exact difference quotient"
        if result["markovian"] is not True or result["witness"] < -1e-9:
            return f"semigroup family judged markovian={result['markovian']}"
        return None
    rho = result["ergodic"]
    n = rho.shape[0]
    if abs(np.trace(rho) - 1) > 1e-10 or np.linalg.eigvalsh(rho).min() < -1e-10:
        return "ergodic average is not a density matrix"
    if np.abs(L @ rho.reshape(-1, order="F")).max() > 1e-8 * lscale:
        return "ergodic average is not stationary"
    if not result["contraction"].verdict:
        return "CPTP map failed the contraction check"
    E = data["family"][-1]
    S = sum(np.kron(K.conj(), K) for K in result["kraus"])
    if len(result["kraus"]) > n * n or np.abs(S - E).max() > 1e-9:
        return "Kraus operators do not rebuild the map"
    return None


def verify(job, code, result, refdir, workdir):
    """Judge one job's outcome; returns ``(status, message)``."""
    spec = job["check"]
    if job["exit"] is not None and code != job["exit"]:
        return "wrong", f"exit code {code}, expected {job['exit']}"
    if job["verb"] == "api":
        msg = _check_api(job["task"], result, np.load(job["inputs"]))
        return ("wrong", msg) if msg else ("ok", "")
    text = _read(job["out"])
    if "ref" in spec:
        path = os.path.join(refdir, f"{spec['ref']}.csv")
        if not os.path.exists(path):
            return "wrong", f"no reference {path}"
        msg = compare_text(text, _read(path))
        return ("wrong", msg) if msg else ("ok", "")
    kind = spec["physics"]
    if kind == "davies_family":
        return _check_davies_family(text, spec, code)
    H = np.load(os.path.join(workdir, "inputs", "custom.npz"))["H"]
    msg = CUSTOM_CHECKS[kind](text, spec["T"], H)
    return ("wrong", msg) if msg else ("ok", "")
