"""Dynamical maps as first-class objects: Choi, Kraus, and the divisibility
witness that separates Markovian from non-Markovian families.
"""
import numpy as np

import openqdyn as oq
from openqdyn.gksl import GKSLGenerator, superop_of_generator
from openqdyn.liouville import expm
from openqdyn.operators import sigma_minus, sigma_z

np.set_printoptions(precision=4, suppress=True)

# --- Choi and Kraus representations -------------------------------------
gen = GKSLGenerator(H=0.5 * sigma_z, jumps=[(0.6, sigma_minus)])
E = expm(superop_of_generator(gen))

C = oq.choi_of(E)
print("Choi eigenvalues of e^L:", np.round(np.linalg.eigvalsh(C), 5))
kraus = oq.kraus_of(E)
print(f"{len(kraus)} Kraus operators; completeness residual:",
      np.abs(sum(K.conj().T @ K for K in kraus) - np.eye(2)).max())
print("reconstruction residual:", np.abs(oq.map_from_kraus(kraus) - E).max(), "\n")

# The transpose map is positive but not completely positive: the witness is
# a negative Choi eigenvalue.
T = np.zeros((4, 4))
for i in range(2):
    for j in range(2):
        T[i * 2 + j, j * 2 + i] = 1.0
print("transpose map CP?", oq.is_cp(T).verdict,
      "- witness eigenvalue", oq.is_cp(T).min_choi_eigenvalue, "\n")

# Inverting a decaying map is possible as a matrix, but the inverse is not a
# physical channel (only unitary channels invert to channels).
inv = oq.invert_map(E)
print("inverse exists (condition number {:.1f}), forward unitary: {}".format(
    inv.condition, inv.forward_unitary))
print("inverse CP?", oq.is_cp(inv.sop).verdict, "\n")

# --- Divisibility witness ------------------------------------------------
# Semigroup samples: every intermediate map is CP.
L = superop_of_generator(gen)
family = [(t, expm(t * L)) for t in np.linspace(0, 3, 7)]
print("semigroup family Markovian on the grid:",
      oq.divisibility_witness(family).markovian)

# A dephasing rate gamma(t) = cos(t) turns negative for t in (pi/2, 3pi/2);
# there the accumulated decay *decreases* and intermediate maps fail CP.
def dephasing_map(t):
    q = np.exp(-2.0 * np.sin(t))          # the integral of gamma over [0, t]
    return np.diag([1.0, q, q, 1.0]).astype(complex)

times = np.linspace(0.0, 2 * np.pi, 13)
report = oq.divisibility_witness([(t, dephasing_map(t)) for t in times])
print("cos-rate family Markovian:", report.markovian)
print(" interval        min Choi eig   CP")
for iv in report.intervals:
    print(f" [{iv.t_start:5.2f},{iv.t_end:5.2f}]   {iv.min_choi_eigenvalue:+.3e}   {iv.cp}")
