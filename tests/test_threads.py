"""The BLAS thread policy: ``liouville._one_blas_thread`` and OQS_NUM_THREADS.

Every scope test runs twice: with numpy's bundled OpenBLAS setter as found,
and with the cached lookup stubbed to "no setter", where the scope must be
a no-op.  Without the bundled OpenBLAS (another BLAS) both runs are the
no-op case.
"""
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from openqdyn import liouville as lv
from openqdyn import maps, nonmarkov
from openqdyn.gksl import GKSLGenerator, superop_of_generator

BLAS = lv._openblas_threads()
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def count():
    """numpy's OpenBLAS thread count, read past any stub; None without it."""
    return BLAS[0]() if BLAS else None


@pytest.fixture(params=["setter", "stubbed"])
def start(request, monkeypatch):
    """The thread count a scope starts from (2, or None without the setter)
    and the count expected inside a scope."""
    before = count()
    if BLAS:
        BLAS[1](2)
    if request.param == "stubbed":
        monkeypatch.setattr(lv, "_openblas_threads", lambda: None)
    yield count(), (1 if BLAS and request.param == "setter" else count())
    if BLAS:
        BLAS[1](before)


def test_scope_lowers_and_restores(start):
    outside, inside = start
    with lv._one_blas_thread():
        assert count() == inside
    assert count() == outside


def test_scope_restores_after_an_exception(start):
    outside, inside = start
    with pytest.raises(RuntimeError, match="inside"):
        with lv._one_blas_thread():
            assert count() == inside
            raise RuntimeError("inside")
    assert count() == outside
    assert lv._blas_depth == 0


def test_nested_scopes_restore_on_the_last_exit(start):
    outside, inside = start
    with lv._one_blas_thread():
        with lv._one_blas_thread():
            assert count() == inside
        assert count() == inside            # the inner exit does not restore
    assert count() == outside


def test_overlapping_scopes_in_two_threads(start):
    """A enters, B enters, A leaves while B is still inside, B leaves."""
    outside, inside = start
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen, errors = {}, []

    def run(name, enter_after, signal_in, leave_after, signal_out=None):
        try:
            enter_after.wait(10)
            with lv._one_blas_thread():
                signal_in.set()
                leave_after.wait(10)
                seen[name] = count()
            if signal_out:
                signal_out.set()
        except BaseException as exc:        # reported by the main thread
            errors.append(exc)

    go = threading.Event()
    go.set()
    a = threading.Thread(target=run, args=("a", go, a_in, b_in, a_out))
    b = threading.Thread(target=run, args=("b", a_in, b_in, a_out))
    a.start(), b.start()
    a.join(20), b.join(20)
    assert not errors and not a.is_alive() and not b.is_alive()
    assert seen == {"a": inside, "b": inside}   # B still on one thread after A left
    assert count() == outside


def test_a_caller_on_one_thread_stays_on_one(start):
    if BLAS:
        BLAS[1](1)
    with lv._one_blas_thread():
        assert count() == (1 if BLAS else None)
    assert count() == (1 if BLAS else None)


def _gksl_family(n, seed=2601, samples=21):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    jumps = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)]
    gen = GKSLGenerator(H=(g + g.conj().T) / 2.0,
                        jumps=[(r, V / np.linalg.norm(V)) for r, V in
                               zip(rng.uniform(0.2, 1.0, 2), jumps)])
    L = superop_of_generator(gen)
    return [(t, lv.expm(t * L)) for t in 0.05 * np.arange(samples)]


def _close(a, b, scale=None):
    """a within 1e-12 of b relative to ``scale``, by default b's norm."""
    scale = np.linalg.norm(b) if scale is None else scale
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) <= 1e-12 * scale


def test_scoped_family_kernels_match_the_threaded_ones(start, monkeypatch):
    """Side 100 is threaded: the results agree to rounding, not bit for bit.
    The minimum Choi eigenvalues of these CP intermediate maps are rounding
    (about 1e-14), so they are compared on the Choi scale, the trace N = 10
    of a trace-preserving map's Choi matrix."""
    family = _gksl_family(10)
    witness = maps.divisibility_witness(family)
    tcl = nonmarkov.tcl_from_family(family)
    monkeypatch.setattr(lv, "_openblas_threads", lambda: None)     # unscoped
    ref_witness = maps.divisibility_witness(family)
    ref_tcl = nonmarkov.tcl_from_family(family)
    assert [iv.cp for iv in witness.intervals] == [iv.cp for iv in ref_witness.intervals]
    assert _close([iv.min_choi_eigenvalue for iv in witness.intervals],
                  [iv.min_choi_eigenvalue for iv in ref_witness.intervals], scale=10.0)
    assert _close([iv.condition for iv in witness.intervals],
                  [iv.condition for iv in ref_witness.intervals])
    assert _close(tcl.condition_numbers, ref_tcl.condition_numbers)
    assert all(_close(G, R) for G, R in zip(tcl.generators, ref_tcl.generators))


def test_phase_sums_run_on_one_thread(start):
    """The near-node terms are taken inside the kernel's scope."""
    from openqdyn import weakcoupling as wc

    outside, inside = start
    bath = wc.BathModel.ohmic(coupling=0.05, omega_c=3.0, temperature=1.0)
    n = bath.correlation_table(4096)[0].size
    seen = []

    def kernel(k, nu, t):
        seen.append(count())
        return np.zeros((len(t), len(k)))

    wc._phase_sums(bath, 4096, np.array([1.0]), np.ones((1, n)), np.array([False]),
                   np.ones((1, n), dtype=bool), kernel)
    assert seen == [inside]
    assert count() == outside


def test_scoped_finite_horizon_rules_match_the_threaded_ones(start, monkeypatch):
    """The phase sums of the TCL2 and coarse-graining rules run on one BLAS
    thread; unscoped, the generators agree to rounding, and the count is
    restored after each call."""
    from openqdyn import weakcoupling as wc

    outside, _ = start
    system = wc.damped_oscillator(4)
    bath = wc.BathModel.ohmic(coupling=0.05, omega_c=3.0, temperature=1.0)
    taus = np.linspace(0.2, 10.0, 12)
    tcl, cg = (build(system, bath, taus) for build in
               (nonmarkov.tcl2_generator, nonmarkov.coarse_grain_generator))
    assert count() == outside
    monkeypatch.setattr(lv, "_openblas_threads", lambda: None)     # unscoped
    ref_tcl, ref_cg = (build(system, bath, taus) for build in
                       (nonmarkov.tcl2_generator, nonmarkov.coarse_grain_generator))
    assert _close(tcl, ref_tcl) and _close(cg, ref_cg)


def test_kraus_of_restores_the_count(start):
    outside, _ = start
    E = _gksl_family(3, samples=3)[-1][1]
    assert np.allclose(maps.map_from_kraus(maps.kraus_of(E)), E, atol=1e-10)
    assert count() == outside


# -- OQS_NUM_THREADS --------------------------------------------------------------

PROBE = """
import glob, os, sys, warnings
import numpy as np
from ctypes import CDLL

libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs",
                              "libscipy_openblas64_*.so"))
try:
    get = CDLL(libs[0]).scipy_openblas_get_num_threads64_
except (IndexError, OSError, AttributeError):
    get = lambda: "none"
print("before", get())
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    import openqdyn
print("after", get())
print("lookups", openqdyn.liouville._openblas_threads.cache_info().misses)
print("env", os.environ.get("OPENBLAS_NUM_THREADS", "unset"))
print("setter", openqdyn.liouville._openblas_threads() is not None)
for w in caught:
    print("warning", w.category.__name__, w.message)
"""


def _probe(cap, openblas="2"):
    """Run PROBE (numpy imported before openqdyn) and parse its lines."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS", "OQS_NUM_THREADS")}
    if cap is not None:
        env["OQS_NUM_THREADS"] = cap
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = {}
    for line in proc.stdout.splitlines():
        key, value = line.split(" ", 1)
        out.setdefault(key, []).append(value)
    return out


def test_import_without_the_cap_does_no_lookup():
    out = _probe(None)
    assert out["lookups"] == ["0"]
    assert out["after"] == out["before"]
    assert "warning" not in out


def test_cap_applies_after_numpy_is_imported():
    out = _probe("1")
    if out["setter"] == ["True"]:
        assert out["before"] == ["2"]
        assert out["after"] == ["1"]
    else:                                    # another BLAS: nothing to lower
        assert out["after"] == out["before"]
    assert "warning" not in out


@pytest.mark.parametrize("cap", ["abc", "0", "-2", "1.5"])
def test_a_cap_that_is_not_a_positive_integer_is_ignored_with_a_warning(cap):
    out = _probe(cap, openblas=None)
    assert out["after"] == out["before"]
    assert out["env"] == ["unset"]           # not copied into the BLAS variables
    assert out["lookups"] == ["0"]
    assert len(out["warning"]) == 1
    assert out["warning"][0].startswith("RuntimeWarning OQS_NUM_THREADS=")
