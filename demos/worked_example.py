"""A three-snapshot path network, worked end to end.

The network is 0 -> 1 (snapshot 1), 1 -> 2 (snapshot 2), 2 -> 3 (snapshot 3):
one temporal walk of every length up to three, and nothing else.  Because the
global transition matrix is nilpotent, every series evaluates exactly, so each
printed number can be checked against a closed form by hand.

The punchline is the comparison at the end: multiplying per-snapshot matrix
exponentials (a tempting shortcut) weights the length-2 walk as beta^2 and the
length-3 walk as beta^3, while a weighting that is consistent across snapshot
boundaries gives beta^2/2 and beta^3/6 -- the Taylor coefficients of exp.

Run:  python3 demos/worked_example.py
"""

import numpy as np

import tempokatz as tk
from tempokatz import Mode

EDGES = "0 1 1\n1 2 2\n2 3 3\n"
BETA = 1.0


def main():
    np.set_printoptions(precision=6, suppress=True)
    net = tk.parse_temporal_edgelist(EDGES)
    print(f"network: n={net.n} nodes, N={net.N} snapshots, m={net.m} edges")

    M = tk.global_transition(net, Mode.STANDARD)
    print("\nglobal transition matrix M (edge space, one edge per snapshot):")
    print(np.asarray(M.todense()))
    print("M is nilpotent: every temporal walk ends after three edges.")

    Q = tk.communicability_matrix(net, BETA, tk.exponential(), Mode.STANDARD)
    print(f"\nexponential communicability matrix at beta={BETA}:")
    print(Q)
    print("entry (0,3) = beta^3/6 =", BETA**3 / 6)

    naive = tk.oracle.naive_exponential_product(net, BETA)
    print("\nnaive per-snapshot product expm(beta A1) expm(beta A2) expm(beta A3):")
    print(naive)
    print("its (0,3) entry is beta^3 =", BETA**3, "-- six times too large,")
    print("because each snapshot factor re-weights the walk independently.")

    katz = tk.temporal_f_total_communicability(net, 0.5, tk.resolvent(1.0, 1.0), Mode.STANDARD)
    print("\nKatz centrality at alpha=0.5 (node-level product of resolvents):")
    for i, v in enumerate(katz.values):
        print(f"  node {i}: {v:.6f}")
    print("node 0 can start walks of length 0..3, node 3 only the empty walk.")


if __name__ == "__main__":
    main()
