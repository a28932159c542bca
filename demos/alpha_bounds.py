"""Where the Katz series stops converging, and why the non-backtracking modes
get a larger admissible interval.

For the resolvent (Katz) weighting the series converges when
alpha < 1 / max_tau rho(A^[tau]) in the standard and nbt-time modes, and when
alpha < min_tau 1 / rho(B^[tau]) in the modes that forbid within-snapshot
backtracking.  Since the Hashimoto matrix B discards transitions, its radius
is no larger than the line graph's, so the non-backtracking interval always
contains the standard one.

The script builds one snapshot of an undirected triangle plus a pendant
reciprocated edge, prints both bounds, then sweeps alpha toward the standard
bound and watches the standard centrality blow up while the nbt-space one
stays finite past it.

Run:  python3 demos/alpha_bounds.py
"""

import numpy as np

import tempokatz as tk
from tempokatz import Mode

# undirected triangle 0-1-2 plus a pendant edge 2-3, one snapshot
EDGES = (
    "0 1 1\n1 0 1\n1 2 1\n2 1 1\n0 2 1\n2 0 1\n"
    "2 3 1\n3 2 1\n"
)
KATZ = tk.resolvent(1.0, 1.0)


def main():
    net = tk.parse_temporal_edgelist(EDGES)
    std = tk.alpha_bound(net, Mode.STANDARD)
    nbt = tk.alpha_bound(net, Mode.NBT_SPACE)
    print(f"network: n={net.n}, one snapshot, {net.m} directed edges")
    print(f"standard bound:  alpha < {std.ell:.6f}   (1 / rho(A))")
    print(f"nbt-space bound: alpha < {nbt.ell:.6f}   (1 / rho(B))")
    print("discarding backtracking transitions shrinks the spectral radius,")
    print("so the admissible interval grows.\n")

    def katz_sum(alpha, mode):
        return tk.temporal_f_total_communicability(net, alpha, KATZ, mode).values.sum()

    print(f"{'alpha':>8} {'standard Katz sum':>18} {'nbt-space Katz sum':>19}")
    for frac in (0.5, 0.9, 0.99, 0.999):
        alpha = frac * std.ell
        y_std = katz_sum(alpha, Mode.STANDARD)
        y_nbt = katz_sum(alpha, Mode.NBT_SPACE)
        print(f"{alpha:8.4f} {y_std:18.2f} {y_nbt:19.2f}")
    print("\npast the standard bound, only the non-backtracking series exists:")
    for alpha in (std.ell * 1.05, 0.9 * nbt.ell):
        y_nbt = katz_sum(alpha, Mode.NBT_SPACE)
        print(f"{alpha:8.4f} {'(diverges)':>18} {y_nbt:19.2f}")

    print("\nper-snapshot radii from alpha_bound:")
    for tau, (rho, lam) in enumerate(std.per_snapshot, start=1):
        print(f"  snapshot {tau}: rho(A) = {rho:.6f}, 1/rho(B) = {lam:.6f}")


if __name__ == "__main__":
    main()
