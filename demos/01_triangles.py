"""The two number triangles and their row sums.

The Entringer triangle refines the Euler numbers (how many zigzag
permutations of [n] start with k), and the Arnold triangle refines the
Springer numbers (the signed analogue).  Both are filled row by row by
a boustrophedon recurrence: each row is the running sum of the previous
row read in the opposite direction.
"""

from zigzag import arnold_table, entringer_table, euler_number, springer_number
from zigzag.triangles import boustrophedon_lines

# Build seven rows of the Entringer triangle.  Row sums are the Euler
# numbers 1, 1, 2, 5, 16, 61, 272, counting zigzag permutations.
table = entringer_table(7)
print("Entringer numbers, one row per n, k ascending:")
for n in range(1, 8):
    cells = " ".join(f"{v:3d}" for _, v in table.row(n))
    print(f"  n={n}: {cells}   row sum {table.row_sums[n - 1]}")

# The same triangle drawn the way it is computed, snaking left to right.
print("\nBoustrophedon form:")
for line in boustrophedon_lines(table.kind, table.rows):
    print("  " + line)

# The Arnold triangle covers signed first entries, k = -n..-1 and 1..n.
# Summing the positive half of each row gives the Springer numbers.
arnold = arnold_table(6)
print("\nArnold numbers:")
for n in range(1, 7):
    cells = " ".join(f"{v:4d}" for _, v in arnold.row(n))
    print(f"  n={n}: {cells}   Springer {arnold.row_sums[n - 1]}")

# Entries are exact Python integers, so large rows stay exact.
print("\nExact values far beyond machine words:")
print("  E_25 =", euler_number(25))
print("  S_20 =", springer_number(20))
