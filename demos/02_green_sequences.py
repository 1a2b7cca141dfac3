"""Framed quivers and maximal green sequences.

Run:  python demos/02_green_sequences.py
"""

from quivergreen import (
    Quiver,
    apply_green_sequence,
    frame,
    reverse_rotate_mgs,
    rotate_mgs,
    search_mgs,
    verify_mgs,
)
from quivergreen.catalog import get, make_theta
from quivergreen.io import format_arrows

# Frame a single arrow 1->2: each vertex gets a frozen copy and starts green.
a2 = Quiver.from_arrows(2, [(1, 2)])
fq = frame(a2)
print("initial green vertices:", fq.green_vertices())

# Mutating at green vertices only; after (1, 2) everything is red.
final, status = apply_green_sequence(a2, (1, 2))
print("replayed (1,2):", status.ok, "  all red:", final.all_red())

# Verification returns the induced permutation mapping the final quiver back.
cert = verify_mgs(a2, (1, 2))
print("certificate:", cert.sequence, "permutation:", cert.permutation)

# Mutating a red vertex is reported with the offending step.
_, status = apply_green_sequence(a2, (1, 1))
print("bad replay:", status.reason)

# The search deepens a length bound: a green vertex stays green until it is
# mutated, so depth plus green count bounds any MGS through a state.  It
# returns a shortest sequence, ties broken towards the lexicographically
# least one.
print("\nsearched:", search_mgs(a2).certificate.sequence)

# The glued-cycle family has the hand-built sequence (2, 3, ..., n, 1, 2).
for n in (4, 6, 8):
    theta = make_theta(n)
    seq = tuple([*range(2, n + 1), 1, 2])
    cert = verify_mgs(theta, seq)
    print(f"theta_{n}: {seq} verified, permutation {cert.permutation}")

# The rank-6 companion quiver and its sequence.
z6 = get("Z6").quiver
print("\nZ6:", format_arrows(z6))
print("verified:", verify_mgs(z6, (3, 1, 2, 5, 6, 4, 3)).sequence)

# A maximal green sequence is a cycle in the exchange graph: rotating it
# yields a sequence for the once-mutated quiver, and rotations reverse.
q = make_theta(4)
cert = verify_mgs(q, (2, 3, 4, 1, 2))
rq, rcert = rotate_mgs(q, cert)
print("\nrotated quiver:   ", format_arrows(rq))
print("rotated sequence: ", rcert.sequence)
bq, bcert = reverse_rotate_mgs(rq, rcert)
print("rotated back:     ", bcert.sequence, "  restored:", bq == q)
