"""Dense Liouville-space linear algebra and propagation primitives.

Vectorization convention (fixed package-wide): **column stacking**.  The
matrix unit |i><j| on an N-dimensional space maps to the basis vector with
index ``j*N + i``, and the superoperator of ``rho -> A rho B`` is
``kron(B.T, A)``.  All superoperator matrices produced anywhere in the
package are interchangeable under this convention.

Every generator in the package, rho -> -i[H, rho] + sum_ab c_ab L_a rho R_b^dag
- Q rho - rho Q^dag, is built by :func:`_lindblad_superop`; the ``kron``
primitives below are the reference form of the convention.

Exact-zero blocking: a matrix whose nonzero pattern splits, under a
permutation, into disconnected diagonal blocks (a Davies generator of a
diagonal H_S splits into its Bohr-frequency sectors, and so do its
exponentials and their Choi matrices) is exponentiated, stepped, inverted and
diagonalized block by block.  The blocks are the connected components of
the exact nonzero pattern (:func:`_blocks`): no tolerance and no basis
change.  The one block format holds K matrices that share the blocks as,
per block size m, the (K, g, m, m) stack of their g diagonal blocks of that
size (:func:`_size_groups`, :func:`_take`, :func:`_dense`), so each kernel
call runs once per block size; a matrix that is one block is a view of
itself and takes the dense kernel call.

Matrix exponentials run in numpy alone (:func:`_taylor_expm`): Taylor
polynomials by Paterson-Stockmeyer with scaling and squaring, so every step
is a product through one BLAS and none is a linear solve; importing the
package loads no ``scipy.linalg``.
"""
import contextlib
import ctypes
import functools
import math
import numbers
import os
import threading

import numpy as np

from .errors import DimensionError, MagnitudeError

#: default tolerance for Hermiticity checks (relative)
TOL_HERM = 1e-12
#: default tolerance for positive semidefiniteness (absolute on eigenvalues)
TOL_PSD = 1e-10
#: bytes of one stack of generators that :func:`_time_split` takes at once
_STACK_BYTES = 8 * 2 ** 20
#: Taylor degrees m, each with theta_m, the largest 1-norm of A at which the
#: truncated series T_m(A) = sum_{k<=m} A^k / k! is e^(A + dA) with
#: ||dA|| <= 2^-53 ||A|| (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488,
#: 2011, Table 3.1), and the power q of A on which Paterson-Stockmeyer
#: evaluates T_m: q - 1 products for A^2 ... A^q and m/q - 1 Horner steps
_THETA = ((2, 2.5809568029717672e-8, 2), (4, 3.3971688399769619e-4, 2),
          (6, 9.0656564075951024e-3, 3), (9, 8.9577602032233427e-2, 3),
          (12, 2.9961589138115805e-1, 3), (16, 7.8028742566265743e-1, 4))
#: bytes of the slices of a stack that the Taylor kernel evaluates at once
_CHUNK_BYTES = 2 ** 19


def _as_square(M, name="matrix"):
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    return M


def _check_tol(tol):
    """Raise ValueError unless the tolerance is finite and nonnegative: a
    negative, NaN or infinite tolerance would flip a verdict silently."""
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")


def _check_cond_threshold(cond_threshold):
    """Raise ValueError unless the condition-number threshold is a real number
    >= 1 (inf allowed): no map has a condition number below 1, so a smaller or
    NaN threshold would mark every map singular."""
    if not (isinstance(cond_threshold, numbers.Real) and cond_threshold >= 1):
        raise ValueError(f"cond_threshold must be a real number >= 1, got {cond_threshold!r}")


def _check_count(value, name, zero_ok=False):
    """Raise ValueError unless ``value`` is a positive integer (a Python or
    numpy integer), or a nonnegative one with ``zero_ok``; a float such as 2.0
    is rejected, not truncated."""
    if not (isinstance(value, numbers.Integral) and value >= (0 if zero_ok else 1)):
        kind = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")


@functools.cache
def _openblas_threads():
    """``(get, set)`` of the thread count of the OpenBLAS bundled with numpy's
    wheels (``libscipy_openblas64_*.so`` in ``numpy.libs``), through ctypes;
    None when there is no such library or it lacks the symbols.  Looked up
    on first use only, so that ``import openqdyn`` loads no ``glob``."""
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        put.restype, put.argtypes = None, [ctypes.c_int]
        return get, put
    return None


_BLAS_LOCK = threading.Lock()
_blas_depth, _blas_saved = 0, None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the enclosed block with numpy's OpenBLAS on one thread, restoring
    the previous count on exit, also on an exception.  On a 2-CPU host two
    threads make the small batched SVD, inverse and product calls of a map
    family slower.  The count is process-global: the first of overlapping or
    nested scopes (in any thread) saves and lowers it, the last to leave
    restores it.  A no-op without the OpenBLAS setter or at one thread."""
    global _blas_depth, _blas_saved
    with _BLAS_LOCK:
        if not _blas_depth:
            blas = _openblas_threads()
            _blas_saved = blas[0]() if blas else 1
            if _blas_saved > 1:
                blas[1](1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_depth -= 1
            if not _blas_depth and _blas_saved > 1:
                _openblas_threads()[1](_blas_saved)


def _cap_blas_threads(cap):
    """Lower numpy's OpenBLAS thread count to ``cap`` where it is higher; a
    no-op without the setter."""
    with _BLAS_LOCK:
        blas = _openblas_threads()
        if blas and blas[0]() > cap:
            blas[1](cap)


def _blocks(M):
    """Index arrays of the diagonal blocks of a square matrix: the connected
    components of the symmetrised exact-nonzero pattern, each ascending, in
    order of their smallest index.  The 1 x 1 components are gathered into
    one block, which is diagonal, so that a diagonal matrix is one block.  A
    matrix whose first row and column together have no zero entry (a matrix
    without zeros, for one) is one block without building the graph."""
    n = M.shape[0]
    nz = M != 0
    touched = nz[0] | nz[:, 0]
    touched[0] = True
    if np.count_nonzero(touched) == n:       # index 0 reaches every other index
        return [np.arange(n)]
    rows, cols = np.nonzero(nz | nz.T)
    labels = np.arange(n)
    while True:          # each index takes the least label around it
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    single = np.bincount(labels, minlength=n)[labels] == 1
    if np.count_nonzero(single):
        labels[single] = np.flatnonzero(single)[0]
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def _size_groups(blocks):
    """The blocks of each size m as one (g, m) index array, by size: the block
    format of the package (see the module docstring)."""
    return [np.array([b for b in blocks if len(b) == m]) for m in sorted({len(b) for b in blocks})]


def _one_block(groups):
    return len(groups) == 1 and len(groups[0]) == 1


def _take(groups, maps):
    """Per block size, the stack (len(maps), g, m, m) of the diagonal blocks of
    ``maps``, a sequence or an (K, n, n) array of square matrices that are
    zero off the blocks of ``groups``; a view of one matrix, or of an array,
    that is one block."""
    if _one_block(groups) and len(maps):
        return [maps[0][None, None] if len(maps) == 1 else np.asarray(maps)[:, None]]
    if isinstance(maps, np.ndarray):            # one gather per block size, C-contiguous
        n = maps.shape[-1]
        flat = maps.reshape(len(maps), n * n)
        return [np.take(flat, B[:, :, None] * n + B[:, None, :], axis=1) for B in groups]
    stacks = [np.empty((len(maps),) + B.shape + B.shape[1:], dtype=complex) for B in groups]
    for B, S in zip(groups, stacks):
        for k, E in enumerate(maps):
            S[k] = E[B[:, :, None], B[:, None, :]]
    return stacks


def _dense(groups, stacks, k, out=None):
    """Matrix k of the block ``stacks`` (as from :func:`_take`) with zeros off
    its blocks, written into ``out`` (zero off the blocks) when given; a view
    of the stack when there is one block."""
    if _one_block(groups):
        return stacks[0][k, 0]
    if out is None:
        side = sum(B.size for B in groups)
        out = np.zeros((side, side), dtype=complex)
    for B, S in zip(groups, stacks):
        out[B[:, :, None], B[:, None, :]] = S[k]
    return out


def _cond(stacks):
    """2-norm condition number of each matrix of the block ``stacks`` (as from
    :func:`_take`): its largest singular value over all blocks divided by its
    smallest; inf when that is zero, as in ``np.linalg.cond``, and on 0/0.
    One SVD call per block size."""
    sv = [np.linalg.svd(S, compute_uv=False) for S in stacks]
    top = np.max([s[..., 0].max(axis=-1) for s in sv], axis=0)
    low = np.min([s[..., -1].min(axis=-1) for s in sv], axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = top / low
    cond[np.isnan(cond)] = np.inf                 # 0/0
    return cond


def is_hermitian(M, tol=TOL_HERM):
    """Entrywise Hermiticity within a tolerance relative to the matrix scale."""
    M = _as_square(M)
    scale = max(np.abs(M).max(), 1.0)
    return np.abs(M - M.conj().T).max() <= tol * scale


def assert_density_matrix(rho, tol_herm=TOL_HERM, tol_trace=1e-12, tol_psd=TOL_PSD):
    """Validate the density-matrix invariants; raises ValueError on failure."""
    rho = _as_square(rho, "density matrix")
    if not is_hermitian(rho, tol_herm):
        raise ValueError("density matrix is not Hermitian within tolerance")
    tr = np.trace(rho)
    if abs(tr - 1.0) > tol_trace:
        raise ValueError(f"density matrix trace {tr} differs from 1 beyond {tol_trace}")
    w = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if w.min() < -tol_psd:
        raise ValueError(f"density matrix has negative eigenvalue {w.min():.3e}")
    return rho


def vectorize(A):
    """Column-stack a matrix into a vector: |i><j| -> basis index j*N+i."""
    A = _as_square(A, "operator")
    return A.reshape(-1, order="F")


def _vec_columns(ops):
    """Matrix whose columns are the column-stacked operators, in order; ``ops``
    is a sequence or an ``(m, N, N)`` array of N x N operators, m >= 0."""
    ops = np.asarray(ops, dtype=complex)
    return ops.transpose(2, 1, 0).reshape(ops.shape[1] * ops.shape[2], len(ops))


def devectorize(v):
    """Inverse of :func:`vectorize`; length must be a perfect square."""
    v = np.asarray(v, dtype=complex).ravel()
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise DimensionError(f"vector length {v.size} is not a perfect square")
    return v.reshape((n, n), order="F")


def conjugation_superop(A, B):
    """Superoperator matrix of ``rho -> A rho B`` (column-stacking)."""
    A = _as_square(A, "A")
    B = _as_square(B, "B")
    if A.shape != B.shape:
        raise DimensionError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return np.kron(B.T, A)


def left_multiply_superop(A):
    """Superoperator of ``rho -> A rho``."""
    A = _as_square(A, "A")
    return np.kron(np.eye(A.shape[0]), A)


def right_multiply_superop(B):
    """Superoperator of ``rho -> rho B``."""
    B = _as_square(B, "B")
    return np.kron(B.T, np.eye(B.shape[0]))


def _reshuffle(M):
    """The index reshuffle R[(a,b),(c,d)] = M[(d,b),(c,a)] on the last two
    axes of a square matrix or a stack of them; it is its own inverse and maps
    a column-stacked superoperator to its Choi matrix and back."""
    n = int(round(np.sqrt(M.shape[-1])))
    return M.reshape(M.shape[:-2] + (n,) * 4).swapaxes(-4, -1).reshape(M.shape)


def _operator_sum_superop(left, coeffs, right):
    """Superoperator of rho -> sum_jk coeffs[j, k] left_j rho right_k^dag; a
    stack of coefficient matrices (..., j, k) gives the stack of superoperators.

    The Choi matrix of rho -> A rho B^dag is vec(A) vec(B)^dag, so the sum's
    Choi matrix is F_left coeffs F_right^dag over the column-stacked operators.
    """
    return _reshuffle(_vec_columns(left) @ coeffs @ _vec_columns(right).conj().T)


def _lindblad_superop(H, Q=0, left=(), coeffs=np.zeros((0, 0)), right=None):
    """Superoperator of rho -> -i[H, rho] + sum_ab coeffs[a, b] L_a rho R_b^dag
    - Q rho - rho Q^dag, with L = ``left``, R = ``right`` (default L) and any
    square H; a stack of Q or of coeffs gives the stack of superoperators.

    The operator sum goes through its Choi matrix.  On the 4-index view
    [j, i, l, k] (row j*N + i, column l*N + k), rho -> K rho is K[i, k] at
    j = l and rho -> rho M is M[l, j] at i = k; here K = Q + iH, M = Q^dag - iH.
    """
    H = _as_square(H, "Hamiltonian")
    n = H.shape[0]
    left = np.asarray(left, dtype=complex).reshape(-1, n, n)
    right = left if right is None else np.asarray(right, dtype=complex).reshape(-1, n, n)
    K = Q + 1j * H
    Mt = np.conj(Q) - 1j * H.T                     # M.T, indexed [j, l]
    S = _operator_sum_superop(left, coeffs, right)
    shape = np.broadcast_shapes(S.shape[:-2], K.shape[:-2]) + (n,) * 4
    S = S.reshape(S.shape[:-2] + (n,) * 4)
    if S.shape != shape:
        S = np.broadcast_to(S, shape).copy()
    for j in range(n):
        S[..., j, :, j, :] -= K
        S[..., :, j, :, j] -= Mt
    return S.reshape(shape[:-4] + (n * n, n * n))


def apply_superop(S, rho):
    """Apply a superoperator matrix to an operator."""
    return devectorize(np.asarray(S, dtype=complex) @ vectorize(rho))


def trace_norm(M):
    """Trace norm ||M||_1 = sum of singular values.

    For Hermitian input this equals the sum of absolute eigenvalues.
    """
    M = _as_square(M)
    return float(np.linalg.svd(M, compute_uv=False).sum())


def expm(M):
    """Matrix exponential e^M (scaling and squaring of a Taylor polynomial).

    Accepts operators and superoperators alike.  Exponentiates each exact-zero
    block of M on its own (see the module docstring).  Raises
    :class:`MagnitudeError` when the input is non-finite or the result
    overflows.
    """
    M = _as_square(M)
    if not np.all(np.isfinite(M)):
        raise MagnitudeError("matrix exponential of non-finite input")
    groups = _size_groups(_blocks(M))
    return _dense(groups, [_taylor_expm(S) for S in _take(groups, [M])], 0)


def _taylor_expm(A, out=None):
    """e^A of a finite square matrix, or of each matrix of a stack (..., n, n);
    written into ``out`` (which may be A itself) when given.  Raises
    :class:`MagnitudeError` when a result overflows.

    T_m(A) for the least degree m whose theta_m bounds ||A||_1, else
    T_16(A / 2^s) squared s times, with the least s that brings the power
    bound max(||A^3||^(1/3), ||A^4||^(1/4)) <= ||A||_1 under theta_16 (Al-Mohy &
    Higham, SIAM J. Matrix Anal. Appl. 31, 970, 2009): the 1-norm alone would
    overscale a non-normal A and lose accuracy in the squarings.  T_m is
    evaluated by Paterson-Stockmeyer, with products only and no linear solve
    (Sastre et al., SIAM J. Sci. Comput. 37, A439, 2015); as a polynomial in A
    it keeps a left null vector of A (the trace of a trace-preserving
    generator) to rounding, and so do the squarings, which act on T - I
    (:func:`_taylor_chunk`).  The slices of one degree are evaluated together,
    in chunks of about ``_CHUNK_BYTES``, by operations that each act slice by
    slice, so a slice's result does not depend on the rest of the stack.  A
    diagonal slice gives the exponential of its diagonal exactly.  An ``out``
    whose leading axes do not merge into one (a transposed view) takes the
    results through a contiguous copy."""
    out = np.empty_like(A) if out is None else out
    n = A.shape[-1]
    flat, res = A.reshape(-1, n, n), out.reshape(-1, n, n)
    K = len(flat)
    with np.errstate(over="ignore", invalid="ignore"):   # overflow is checked below
        norm = np.abs(flat).sum(axis=1).max(axis=1)
        degree = np.searchsorted([theta for _, theta, _ in _THETA], norm)
        off = flat.reshape(K, n * n)[:, :-1].reshape(K, n - 1, n + 1)[:, :, 1:]
        degree[~off.any(axis=(1, 2))] = -1            # diagonal: exp of the diagonal
        degree[~np.isfinite(norm)] = -2               # overflowed
        one_degree = degree.min() == degree.max()        # then no copy of the slices
        step = max(1, _CHUNK_BYTES // flat[0].nbytes)
        for k in [degree[0]] if one_degree else np.unique(degree):
            idx = np.flatnonzero(degree == k)
            for c in range(0, len(idx), step):
                part = slice(c, c + step) if one_degree else idx[c:c + step]
                if k == -1:
                    E = np.zeros_like(flat[part])
                    np.einsum("kii->ki", E)[:] = np.exp(np.diagonal(flat[part], axis1=1, axis2=2))
                elif k == -2:
                    E = np.inf
                else:
                    E = _taylor_chunk(flat[part], norm[part], *_THETA[min(k, len(_THETA) - 1)],
                                      scale=k == len(_THETA))
                res[part] = E
    if not np.all(np.isfinite(res)):
        raise MagnitudeError("matrix exponential overflowed; norm too extreme")
    if not np.may_share_memory(res, out):            # the reshape of out was a copy
        out[...] = res.reshape(out.shape)
    return out


def _taylor_chunk(A, norm, m, theta, q, scale):
    """e^A for a stack A of matrices of 1-norms ``norm``: T_m(A) or, with
    ``scale``, T_m(A / 2^s) squared s times with s per slice (q = 4).  T_m is
    sum_j B_j (A^q)^j with B_j = sum_{i<q} A^i / (qj + i)!, by Horner in A^q,
    and is accumulated as T_m - I."""
    P = np.empty((q + 1,) + A.shape, dtype=A.dtype)       # I, A, ..., A^q
    P[0], P[1] = np.eye(A.shape[-1]), A
    for i in range(2, q + 1):
        np.matmul(P[i - 1], A, out=P[i])
    s = np.zeros(len(A), dtype=int)
    if scale:
        s = _squarings(P, norm, theta)
        P *= (0.5 ** np.outer(np.arange(q + 1), s))[:, :, None, None]
    r = m // q
    B = np.empty_like(A)
    diagonal = np.einsum("kii->ki", B)                    # a view of B's diagonals
    X = P[q] * (1.0 / math.factorial(m))                  # X = T_m - I
    for j in range(r - 1, -1, -1):
        if j < r - 1:
            X = X @ P[q]
        # B = B_j with its terms added in the order i = 0, 1, ..., q - 1 (the
        # identity's on the diagonal first), which fixes the rounding of T_m;
        # B_0 has no identity term, X being T_m - I
        np.multiply(P[1], 1.0 / math.factorial(q * j + 1), out=B)
        if j:
            diagonal += 1.0 / math.factorial(q * j)
        for i in range(2, q):
            B += P[i] * (1.0 / math.factorial(q * j + i))
        X += B
    T = _square(X, s, lambda X: X @ X + 2.0 * X) + P[0]
    # (I + X)^2 = I + 2X + X^2 keeps the rounding of a result near I, and of the
    # trace row of a generator, small; it loses accuracy only where I + X
    # cancels to a small e^A (entries below 1/n, which a trace-preserving map's
    # never all are), and such a slice is squared again as T
    small = np.abs(T).max(axis=(1, 2)) * A.shape[-1] < 1.0
    if small.any():
        T[small] = _square(X[small] + P[0, small], s[small], lambda T: T @ T)
    return T


def _square(X, s, square):
    """Each slice k of the stack X with ``square`` applied s[k] times."""
    if np.all(s == s[0]):
        for _ in range(s[0]):
            X = square(X)
        return X
    order = np.argsort(s, kind="stable")              # ascending s: square X[lo:] while s > j
    X, s = X[order], s[order]
    for j in range(s[-1]):
        lo = np.searchsorted(s, j, side="right")
        X[lo:] = square(X[lo:])
    X[order] = X.copy()
    return X


def _squarings(P, norm, theta):
    """Per slice of the stacked powers P = (I, A, A^2, A^3, A^4, ...), the least
    s >= 0 that brings alpha_3 = max(||A^3||^(1/3), ||A^4||^(1/4)) under theta
    by A / 2^s; alpha_3 is at most ``norm`` = ||A||_1, which it stays at where a
    power overflows (the fmin and fmax skip a NaN)."""
    n34 = np.abs(P[3:5]).sum(axis=2).max(axis=2) ** np.array([[1 / 3], [0.25]])
    alpha = np.fmin(norm, np.fmax(*n34))
    return np.ceil(np.log2(np.maximum(alpha / theta, 1.0))).astype(int)


def propagate_semigroup(L, times, X):
    """``[expm(t*L) @ X for t in times]`` by stepping the semigroup.

    A time-independent generator gives a semigroup, e^{(t+s)L} = e^{tL} e^{sL},
    so each output is the step propagator e^{dt L} times the previous output
    (see :func:`_semigroup_blocks`).  ``X`` is a vector or a matrix; ``t = 0``
    returns ``X`` itself.  Times must be finite, nonnegative and strictly
    ascending (ValueError otherwise).  The step is zero off the exact-zero
    blocks of L, so X is stepped by its block rows.
    """
    L = _as_square(L, "generator")
    groups = _size_groups(_blocks(L))
    X2 = np.asarray(X).reshape(len(L), -1)
    rows, out = [X2[B] for B in groups], []
    for Y in _semigroup_blocks(L, groups, times, rows):
        if Y is rows:                      # t = 0
            out.append(X)
            continue
        Z = np.empty(X2.shape, dtype=complex)
        for B, Yb in zip(groups, Y):
            Z[B] = Yb
        out.append(Z.reshape(np.shape(X)))
    return out


def _semigroup_blocks(L, groups, times, X):
    """Per time, e^{tL} X by the blocks ``groups`` of L (as from
    :func:`_size_groups`); ``X`` itself where t = 0.  ``X`` and each result
    hold, per block size, the (g, m, ...) stack of the blocks' rows of a
    matrix, or of any slice of those rows; one product call per block size
    and step.  The step e^{dt L} from the previous time (from 0 for the
    first) is exponentiated once per distinct spacing; a spacing within a
    few ulps of the current step's (the rounding of a uniform grid) reuses
    it.  Times must be finite, nonnegative and strictly ascending
    (ValueError otherwise)."""
    times = [float(t) for t in times]
    if any(not 0 <= t < np.inf for t in times) or any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("times must be finite, nonnegative and strictly ascending")
    t_prev, dt = 0.0, None
    for t in times:
        d = t - t_prev
        if d > 0:
            if dt is None or abs(d - dt) > 4 * np.spacing(max(t, 1.0)):
                dt, P = d, [S[0] for S in _take(groups, [expm(d * L)])]
            X = [Pb @ Xb for Pb, Xb in zip(P, X)]
        yield X
        t_prev = t


def trotter_product(L1, L2, n):
    """First-order Lie-Trotter approximation (e^{L1/n} e^{L2/n})^n.

    Deviates from e^{L1+L2} at O(1/n) for non-commuting inputs and is exact
    for commuting ones.
    """
    L1 = _as_square(L1, "L1")
    L2 = _as_square(L2, "L2")
    if L1.shape != L2.shape:
        raise DimensionError(f"dimension mismatch: {L1.shape} vs {L2.shape}")
    if n < 1:
        raise ValueError("n must be a positive integer")
    step = expm(L1 / n) @ expm(L2 / n)
    return np.linalg.matrix_power(step, n)


def propagate_time_dependent(gen, t0, t1, steps):
    """Time-splitting propagator for a time-dependent generator.

    Evaluates the ordered product ``prod_{j=n-1..0} expm(dt * gen(t_j))`` on a
    uniform grid with the generator frozen at the left endpoint of each step.
    Converges to the time-ordered propagator as ``steps`` grows; the leading
    error is O(1/steps), so callers estimate accuracy by doubling ``steps``,
    which must be a positive integer (ValueError otherwise).
    The generators are exponentiated and multiplied in stacks of at most
    ``_STACK_BYTES`` (see :func:`_time_split`).
    """
    if t1 < t0:
        raise ValueError(f"t1={t1} must not precede t0={t0}")
    _check_count(steps, "steps")
    if t1 == t0:
        dim = _as_square(gen(t0), "generator output").shape[0]
        return np.eye(dim, dtype=complex)
    dt = (t1 - t0) / steps
    P, stack, times = None, [], []
    for j in range(steps):
        times.append(t0 + j * dt)
        stack.append(_as_square(gen(times[-1]), "generator output"))
        if j == steps - 1 or stack[0].nbytes * (len(stack) + 1) > _STACK_BYTES:
            if P is None:
                P = np.eye(len(stack[0]), dtype=complex)
            P = _time_split(np.array(stack), times, np.full(len(stack), dt), P,
                            [len(stack) - 1])[0]
            stack, times = [], []
    return P


def _time_split(G, times, dt, X, ends):
    """``E_j ... E_1 E_0 X`` for every index j in ``ends`` (ascending, the last
    one ``len(G) - 1``), with E_i = e^{dt[i] G[i]}: the time-splitting product
    of a stack of generators, G[i] frozen over [times[i], times[i] + dt[i]].

    Every E_i, and X, is zero off the exact-zero blocks of the union pattern
    of the stack and X, so the blocks of each size are exponentiated for the
    whole stack in one :func:`_taylor_expm` call, and X's diagonal blocks are
    stepped with one product call per block size and step.
    Raises :class:`MagnitudeError` on a non-finite generator or an overflow.
    """
    finite = np.isfinite(G).all(axis=(1, 2))
    if not finite.all():
        raise MagnitudeError(f"generator non-finite at t={times[np.argmin(finite)]}")
    groups = _size_groups(_blocks((G != 0).any(axis=0) | (X != 0)))
    dt = np.asarray(dt)[:, None, None, None]
    steps = [dt * S for S in _take(groups, G)]
    for E in steps:
        _taylor_expm(E, out=E)            # in place: no third stack of the chunk
    Y, k = _take(groups, [X]), 0
    out = np.zeros((len(ends),) + X.shape, dtype=complex)
    for j in range(len(G)):
        Y = [E[j] @ Yb for E, Yb in zip(steps, Y)]
        if j == ends[k]:
            out[k] = _dense(groups, Y, 0, out[k])     # one block: _dense gives Y's view
            k += 1
    return out


def hs_basis(dim):
    """Orthonormal Hermitian operator basis (generalized Gell-Mann matrices).

    Ordered as: symmetric off-diagonal pairs, antisymmetric pairs, diagonal
    traceless elements, and the normalized identity 1/sqrt(N) last.  All
    elements except the last are traceless, and Tr(F_j^dag F_k) = delta_jk.
    """
    if dim < 2:
        raise ValueError("basis needs dimension >= 2")
    basis = []
    for j in range(dim):
        for k in range(j + 1, dim):
            F = np.zeros((dim, dim), dtype=complex)
            F[j, k] = F[k, j] = 1.0 / np.sqrt(2.0)
            basis.append(F)
    for j in range(dim):
        for k in range(j + 1, dim):
            F = np.zeros((dim, dim), dtype=complex)
            F[j, k] = -1.0j / np.sqrt(2.0)
            F[k, j] = 1.0j / np.sqrt(2.0)
            basis.append(F)
    for l in range(1, dim):
        F = np.zeros((dim, dim), dtype=complex)
        F[:l, :l] = np.eye(l)
        F[l, l] = -l
        basis.append(F / np.sqrt(l * (l + 1)))
    basis.append(np.eye(dim, dtype=complex) / np.sqrt(dim))
    return basis


def _hs_coordinates(v):
    """``v @ _vec_columns(hs_basis(N))`` for a row v of length N^2 >= 1, in
    closed form.  With V[i, j] = v[j*N + i], the coordinates are
    (V_jk + V_kj) / sqrt 2 and i (V_kj - V_jk) / sqrt 2 over the pairs j < k,
    (V_00 + ... + V_(l-1)(l-1) - l V_ll) / sqrt(l (l+1)) for l = 1 ... N-1 and
    tr V / sqrt N, in the order of :func:`hs_basis`."""
    n = int(round(np.sqrt(v.size)))
    V = v.reshape(n, n).T
    j, k = np.triu_indices(n, 1)
    d, l = np.diagonal(V), np.arange(1, n)
    return np.concatenate([(V[j, k] + V[k, j]) / np.sqrt(2), 1j * (V[k, j] - V[j, k]) / np.sqrt(2),
                           (np.cumsum(d)[:-1] - l * d[1:]) / np.sqrt(l * (l + 1)),
                           [d.sum() / np.sqrt(n)]])


def partial_trace(rho, dims, keep):
    """Reduced state of a bipartite operator.

    ``dims = (N_A, N_B)`` with the total space ordered as kron(A, B);
    ``keep`` selects the surviving factor (0 for A, 1 for B).
    """
    rho = _as_square(rho, "state")
    na, nb = dims
    if na * nb != rho.shape[0]:
        raise DimensionError(f"dims {dims} do not factor dimension {rho.shape[0]}")
    if keep not in (0, 1):
        raise ValueError("keep must be 0 (first factor) or 1 (second factor)")
    r = rho.reshape(na, nb, na, nb)
    return np.einsum("ikjk->ij", r) if keep == 0 else np.einsum("kikj->ij", r)


def _draw_directions(dim, count, rng, pure):
    """``count`` Hermitian directions of one kind as a (count, dim, dim)
    stack: differences of two random density matrices, or with ``pure`` of
    two pure-state projectors.  One ``standard_normal`` call draws the normals
    that two :func:`operators.rand_density_matrix` (or
    :func:`operators.rand_pure_state`) calls per direction would, in their
    order: real part, imaginary part, first operand, second, direction by
    direction."""
    x = rng.standard_normal((count, 2, 2) + (dim,) * (1 if pure else 2))
    g = np.empty(x.shape[:2] + x.shape[3:], dtype=complex)
    g.real, g.imag = x[:, :, 0], x[:, :, 1]
    del x
    if pure:
        # the norm as np.linalg.norm takes it (one dot of each strided part),
        # so that the directions have the bits of the per-operand draws
        re, im = g.real, g.imag
        g /= np.sqrt(re[..., None, :] @ re[..., None] + im[..., None, :] @ im[..., None])[..., 0]
        P = g[..., :, None] * g.conj()[..., None, :]
    else:
        P = g @ g.conj().swapaxes(-1, -2)
        P /= np.trace(P, axis1=-2, axis2=-1).real[..., None, None]
    del g
    return P[:, 0] - P[:, 1]


def sample_hermitian_directions(dim, samples, rng):
    """Hermitian test operators used for sampled induced-norm estimates, as
    one (samples, dim, dim) array.

    The first ``samples // 2`` are differences of random density matrices,
    the rest differences of pure-state projectors; every element has unit
    trace norm up to normalization by the caller.  ``rng`` advances exactly
    as under one :func:`operators.rand_density_matrix` or
    :func:`operators.rand_pure_state` call per operand.  ``samples`` must be
    a nonnegative integer (ValueError otherwise).
    """
    _check_count(samples, "samples", zero_ok=True)
    return np.concatenate([_draw_directions(dim, samples // 2, rng, False),
                           _draw_directions(dim, samples - samples // 2, rng, True)])


def _max_ratio(S, sigma):
    """max_k ||S(sigma_k)||_1 / ||sigma_k||_1 over a (K, n, n) stack, from
    one batched SVD for the denominators and one for the images; directions
    of trace norm below 1e-14 are skipped (0.0 when none is left)."""
    denom = np.linalg.svd(sigma, compute_uv=False).sum(axis=-1)
    keep = denom >= 1e-14
    if not keep.any():
        return 0.0
    if not keep.all():
        sigma, denom = sigma[keep], denom[keep]
    K, n = sigma.shape[:2]
    # column stacking: row k of vecs is vec(sigma_k), row k of vecs @ S.T is
    # vec(S(sigma_k)), and that row reshaped by rows is the transposed image.
    # Its singular values are the image's only up to rounding, so the SVD
    # takes the image itself: the identity map then gives exactly 1.
    vecs = sigma.swapaxes(-1, -2).reshape(K, n * n)
    images = (vecs @ S.T).reshape(K, n, n).swapaxes(-1, -2)
    return float((np.linalg.svd(images, compute_uv=False).sum(axis=-1) / denom).max())


def induced_trace_norm(S, samples=1000, rng=None, extra=()):
    """Sampled lower estimate of the induced trace norm of a superoperator.

    Maximizes ||S(sigma)||_1 / ||sigma||_1 over the random Hermitian
    directions of :func:`sample_hermitian_directions` plus any ``extra``
    operators supplied by the caller; an operator of trace norm below 1e-14
    is skipped.  A sampled bound: values above 1 prove expansion, values at
    or below 1 are evidence only.  ``samples`` must be a nonnegative integer
    (ValueError otherwise); 0 estimates over ``extra`` alone.  The directions
    are drawn and judged in stacks whose temporaries take about
    ``_CHUNK_BYTES``.
    """
    S = _as_square(S, "superoperator")
    _check_count(samples, "samples", zero_ok=True)
    dim = int(round(np.sqrt(S.shape[0])))
    rng = np.random.default_rng(0) if rng is None else rng
    # a stack's complex draws, their conjugates and products: 96 dim^2 bytes
    # per direction
    step = max(1, _CHUNK_BYTES // (96 * dim * dim))
    best = 0.0
    for pure, count in ((False, samples // 2), (True, samples - samples // 2)):
        for start in range(0, count, step):
            sigma = _draw_directions(dim, min(step, count - start), rng, pure)
            best = max(best, _max_ratio(S, sigma))
    extra = [_as_square(X, "operator") for X in extra]
    if extra:
        best = max(best, _max_ratio(S, np.array(extra)))
    return best
