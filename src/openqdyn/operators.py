"""Common operators and random sampling helpers.

Everything is a plain complex ndarray; spin-1/2 constants use the standard
convention sigma_y = [[0, -1j], [1j, 0]].
"""
import numpy as np

sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
sigma_y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
sigma_z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
sigma_plus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)   # raises |1> -> |0>
sigma_minus = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # lowers |0> -> |1>


def identity(dim):
    return np.eye(dim, dtype=complex)


def projector(psi):
    """Rank-one projector |psi><psi| (psi is normalized first)."""
    psi = np.asarray(psi, dtype=complex).ravel()
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def destroy(dim):
    """Truncated bosonic lowering operator a on `dim` levels."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def create(dim):
    return destroy(dim).conj().T


def number(dim):
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


# ---------------------------------------------------------------------------
# random sampling (always driven by an explicit Generator for reproducibility)
# ---------------------------------------------------------------------------

def rand_complex_matrix(dim, rng):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def rand_hermitian(dim, rng):
    g = rand_complex_matrix(dim, rng)
    return (g + g.conj().T) / 2.0


def rand_unitary(dim, rng):
    """Haar-random unitary via QR of a Ginibre matrix."""
    q, r = np.linalg.qr(rand_complex_matrix(dim, rng))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rand_pure_state(dim, rng):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def rand_density_matrix(dim, rng, rank=None):
    """Random full-rank (or fixed-rank) density matrix, Hilbert-Schmidt style."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real

