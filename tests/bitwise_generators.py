"""Record the generators of a seeded model set, or compare two records.

    python tests/bitwise_generators.py dump SRC OUT.npz [--chains N]
    python tests/bitwise_generators.py compare OLD.npz NEW.npz

``dump`` imports ``openqdyn`` from the source directory SRC and builds, for
every model and bath of the set, the Davies superoperator, its steady states
(``steady_states``, recorded as ``steady_k<kernel dimension>``, so that the
one-dimensional kernels read ``steady_k1``) and the TCL2 and coarse-grained
generator stacks at the horizons 0.5 and 2; a call that raises is recorded by
its exception.  The models are the golden presets (qubit,
oscillator of 6 levels, dephasing, the 4-level custom model), a 20-level
oscillator, a seeded 8-level custom model, and N seeded near-degenerate
chains: levels 0, E, E + d, ..., E + m d and 3 with d in (0, 3] bin widths,
in a random eigenbasis, with one or two random couplings.

``compare`` counts, for every entry, whether both records built it and the
arrays are ``np.array_equal``, and lists what only one side built.
"""
import argparse
import os
import sys
import warnings

import numpy as np

HORIZONS = np.array([0.5, 2.0])


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def _chain(seed):
    """Levels 0, E, E + d, ..., E + m d and 3, d a random fraction of three
    default bin widths (1e-9 * 3), in a random eigenbasis."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 4))
    d = rng.uniform(0.0, 3.0) * 3e-9 or 3e-9
    e = np.array([0.0, *(rng.uniform(0.5, 2.0) + d * np.arange(m + 1)), 3.0])
    U = _unitary(rng, len(e))
    H = (U * e) @ U.conj().T
    H = (H + H.conj().T) / 2.0
    K = int(rng.integers(1, 3))
    pattern = "position_xy" if K == 2 and rng.uniform() < 0.5 else "single"
    return H, [_hermitian(rng, len(e)) for _ in range(K)], pattern


def _custom8(seed=8):
    """A random 8-level model with Bohr frequencies at least 0.01 apart."""
    rng = np.random.default_rng(seed)
    while True:
        e = np.sort(rng.uniform(0.0, 3.0, 8))
        w = np.sort(np.abs((e[:, None] - e[None, :])[~np.eye(8, dtype=bool)]))[::2]
        if w.min() > 0.05 and np.diff(w).min() > 0.01:
            break
    U = _unitary(rng, 8)
    H = (U * e) @ U.conj().T
    return (H + H.conj().T) / 2.0, [_hermitian(rng, 8) for _ in range(2)], "single"


def _models(n_chains):
    from openqdyn import cli
    from openqdyn import weakcoupling as wc

    inputs = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "inputs")
    custom4 = wc.SystemModel(H=cli.read_matrix_csv(os.path.join(inputs, "h4.csv")),
                             couplings=[cli.read_matrix_csv(os.path.join(inputs, "a4.csv"))])
    models = {"qubit": wc.damped_qubit(1.0), "osc6": wc.damped_oscillator(6),
              "dephasing": wc.pure_dephasing(1.0), "custom4": custom4,
              "osc20": wc.damped_oscillator(20)}
    raw = {"custom8": _custom8(), **{f"chain{s}": _chain(s) for s in range(n_chains)}}
    for name, (H, couplings, pattern) in raw.items():
        models[name] = wc.SystemModel(H=H, couplings=couplings, coupling_pattern=pattern)
    return models


def _steady(L):
    """``(key suffix, states)``: the kernel dimension of L, as
    ``steady_k<dim>``, and its steady states stacked."""
    from openqdyn import spectra

    result = spectra.steady_states(L)
    return f"steady_k{result.kernel_dimension}", np.array(result.states)


def dump(out, n_chains):
    from openqdyn import nonmarkov as nm
    from openqdyn import weakcoupling as wc

    baths = {"T1": wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=1.0),
             "T0": wc.BathModel.ohmic(coupling=0.1, omega_c=3.0, temperature=0.0)}
    kinds = {"davies": lambda s, b: ("davies", wc.davies_generator(s, b).superoperator()),
             "tcl2": lambda s, b: ("tcl2", nm.tcl2_generator(s, b, HORIZONS)),
             "cg": lambda s, b: ("cg", nm.coarse_grain_generator(s, b, HORIZONS)),
             "steady": lambda s, b: _steady(wc.davies_generator(s, b).superoperator())}
    record = {}
    for name, system in _models(n_chains).items():
        for bname, bath in baths.items():
            for kind, build in kinds.items():
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        suffix, value = build(system, bath)
                    record[f"{name}/{bname}/{suffix}"] = value
                except Exception as exc:                  # recorded, not raised
                    record[f"{name}/{bname}/{kind}!"] = np.array(f"{type(exc).__name__}: {exc}")
    np.savez_compressed(out, **record)
    print(f"{len(record)} entries, {sum(k.endswith('!') for k in record)} raised")


def compare(old_path, new_path):
    old, new = np.load(old_path), np.load(new_path)
    built = lambda rec: {k for k in rec.files if not k.endswith("!")}
    both, only_old, only_new = built(old) & built(new), built(old) - built(new), \
        built(new) - built(old)
    differ = sorted(k for k in both if not np.array_equal(old[k], new[k]))
    print(f"built by both: {len(both)}, array_equal: {len(both) - len(differ)}")
    for label, keys in (("differ", differ), ("only old", only_old), ("only new", only_new)):
        print(f"{label}: {len(keys)}")
        for k in sorted(keys):
            reason = old[k + "!"] if k + "!" in old.files else new.get(k + "!", "")
            print(f"  {k} {reason}")
    return not differ and not only_old


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("dump")
    p.add_argument("src")
    p.add_argument("out")
    p.add_argument("--chains", type=int, default=300)
    p = sub.add_parser("compare")
    p.add_argument("old")
    p.add_argument("new")
    args = parser.parse_args(argv)
    if args.cmd == "dump":
        sys.path.insert(0, args.src)
        dump(args.out, args.chains)
        return 0
    return 0 if compare(args.old, args.new) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
