"""The signed (type B) side of the story.

Signed zigzags map to signed trees by grafting the signed labels
directly, which equals conjugating the unsigned grafting map with the
order isomorphism onto [n]; reverse inorder then lands in the signed
Andre family.  A separate shrink map takes forced-sign Andre
words to signed Simsun words.
"""

from zigzag import (
    is_hetyei_andre,
    is_signed_simsun,
    omega_signed,
    order_relabel,
    perm_to_text,
    phi_signed,
    pleaf,
    psi,
    psi_signed,
    tree_to_literal,
)

snake = (6, -3, 9, -8, 2, -1, 7, -4, 5)
print("signed alternating permutation:", perm_to_text(snake))

# Relabeling onto 1..9 order-preservingly gives a plain zigzag.
plain = order_relabel(snake, range(1, 10))
print("order-isomorphic plain zigzag: ", perm_to_text(plain))

# The grafting only compares labels, so it runs on the signed labels as
# they are; relabeling the plain zigzag's tree back gives the same tree.
tree = psi_signed(snake)
print("\nsigned tree:", tree_to_literal(tree))
print("  minimal leaf:", pleaf(tree), "= first entry", snake[0])
print("  same as relabeling psi of the plain zigzag:",
      order_relabel(psi(plain), sorted(snake)) == tree)

word = omega_signed(tree)
print("reverse inorder reading:", perm_to_text(word))

# Forced-sign Andre words: the suffix minima of the absolute word must
# be positive, all other signs are free.
sample = (-3, 1, 2, 4)
print("\nforced-sign Andre word:", perm_to_text(sample), is_hetyei_andre(sample))
image = phi_signed(sample)
print("its signed Simsun image:", perm_to_text(image), is_signed_simsun(image))
