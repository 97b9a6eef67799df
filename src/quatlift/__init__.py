"""Exact-arithmetic Yoshida lifts for definite quaternion orders."""

from .quatcore import (ClassSet, Lattice, QuatElement, QuaternionAlgebra,
                       UsageError, class_set, ideal_equivalent, short_vectors,
                       two_sided_ideal)
from .harmonic import (HarmSpace, TraceZeroFrame, default_frame, lift_matrix_deg2,
                       lift_poly_deg2)
from .brandt import (AutomorphicForm, BrandtMatrix, FormSpace, atkin_lehner,
                     brandt_matrix, brandt_series, eigenforms, essential_part, inner_product)
from .binforms import reduce_form
from .yoshida import (FourierExpansionSiegel2, QExpansion, phi_operator,
                      theta2_coefficient, yoshida1, yoshida2)
from .siegelhecke import (LocalFactor, PoleError, eigenvalue_extract, hecke_Tp,
                          hecke_cosets, lambda_N, rankin_selberg_local, standard_L_local)

__version__ = "0.1.0"
