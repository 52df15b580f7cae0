"""Conjugate-point detection along Kolmogorov flows on the flat 2-torus.

Exact trig-polynomial arithmetic certifies the closed-form test fields,
and a spectral Galerkin pipeline finds and certifies numerical minimizers
of the Misiolek index.
"""

from .eigensolve import ConvergenceError, EigenPair, sym_eig_min
from .spectral import (CertificationError, CertifiedResult, CoeffVector,
                       QuadForm, ReducedForm, SpectralWindow,
                       assemble_bracket_matrix, assemble_quadform,
                       certify_candidate, coefficient_vector, constrain,
                       minimizer_coefficients, reduce_symmetric)
from .theorems import (CriticalPoint, QuadraticFormInParams, SignReport,
                       VerificationError, diag_candidate, diag_form,
                       drivas_check, drivas_field, offdiag_candidate,
                       offdiag_form, sign_certificates)
from .trigpoly import (COS, SIN, KolmogorovFlow, Mode, TrigPoly, bracket,
                       canonicalize, conjugate_time_bound, grad_energy, inner,
                       misiolek_index)

__version__ = "0.1.0"
