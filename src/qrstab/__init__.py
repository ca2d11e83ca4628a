"""Quantum stabilizer codes from quadratic residue sets.

Cyclic codes of length p and quasi-cyclic codes of length p*(p-1)/2 for
primes p = 4n +/- 1, with exact GF(2) verification of commutativity, rank
and dimension, and distances exact where proven within the budget, else a
tagged upper bound.
"""

from .analysis import (DistanceReport, DistanceValue, StandardForm,
                       classify_degeneracy, d_dagger, d_min,
                       distance_report, standard_form)
from .alist import export_alist, import_alist
from .bounds import (BoundsReport, asymptotic_curves, css_gv_rate,
                     evaluate_bounds, gv_bound, hamming_bound, singleton_bound)
from .code import StabilizerCode
from .errors import QrstabError
from .gf2 import Gf2Matrix, lift
from .numtheory import Form, QrContext, classify_prime, legendre
from .records import CodeRecord, make_record
from .symplectic import (PauliString, SymplecticVector, from_pauli, sip_check,
                         symplectic_product, syndrome, to_pauli, weight)
from .type1 import (Type1Spec, Type1Variant, build_type1, idempotents)
from .type2 import (Layout, ProtoMatrix, QcsSpec, QcsVariant,
                    build_proto_qcs_a, build_proto_qcs_b, build_qcs,
                    default_removal)

__version__ = "0.1.0"

__all__ = [
    "BoundsReport", "CodeRecord", "DistanceReport", "DistanceValue", "Form",
    "Gf2Matrix", "Layout", "PauliString", "ProtoMatrix", "QcsSpec",
    "QcsVariant", "QrContext", "QrstabError", "StabilizerCode",
    "StandardForm", "SymplecticVector", "Type1Spec", "Type1Variant",
    "asymptotic_curves", "build_proto_qcs_a", "build_proto_qcs_b",
    "build_qcs", "build_type1", "classify_degeneracy", "classify_prime",
    "css_gv_rate", "d_dagger", "d_min", "default_removal",
    "distance_report", "evaluate_bounds", "export_alist", "from_pauli",
    "gv_bound", "hamming_bound", "idempotents", "import_alist", "legendre",
    "lift", "make_record", "singleton_bound", "sip_check", "standard_form",
    "symplectic_product", "syndrome", "to_pauli", "weight",
]
