"""Exact computation in the graded Ext-algebra over the pro-p Iwahori-Hecke
algebra of SL2(Qp), p >= 5, with machine verification of its defining
identities and of its finite presentation."""

from .coeff import PrimeField
from .graded import BasisSymbol, ExtAlgebra, GradedElement
from .hecke import HeckeAlgebra, HeckeElement
from .product import cup_summand, duality_pairing, multiply
from .sections import (
    TensorExpression,
    kernel_generators,
    section_deg2,
    section_deg3,
    section_deg3_symmetric,
    tensor_act,
)
from .weyl import S0, S1, WeylElement, WeylGroup

__all__ = [
    "PrimeField",
    "WeylGroup",
    "WeylElement",
    "S0",
    "S1",
    "HeckeAlgebra",
    "HeckeElement",
    "ExtAlgebra",
    "GradedElement",
    "BasisSymbol",
    "multiply",
    "cup_summand",
    "duality_pairing",
    "TensorExpression",
    "tensor_act",
    "section_deg2",
    "section_deg3",
    "section_deg3_symmetric",
    "kernel_generators",
]

__version__ = "0.1.0"
