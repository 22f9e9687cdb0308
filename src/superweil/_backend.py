"""Binding of the term-map kernel.

algebra and matrix call the kernel through these names; BACKEND names it in
environment stamps.
"""

from . import _kernel_py as kernel

BACKEND = kernel.BACKEND_NAME

pack = kernel.pack
even_bits = kernel.even_bits
odd_bits = kernel.odd_bits
key_parity = kernel.key_parity
koszul_sign = kernel.koszul_sign
mul_into = kernel.mul_into
mul_terms = kernel.mul_terms
add_terms = kernel.add_terms
sub_terms = kernel.sub_terms
neg_terms = kernel.neg_terms
scale_terms = kernel.scale_terms
