"""Conjugate-point detection along Kolmogorov flows on the flat 2-torus.

Exact trig-polynomial arithmetic certifies the closed-form test fields,
and a spectral Galerkin pipeline finds and certifies numerical minimizers
of the Misiolek index.
"""

from .theorems import (CriticalPoint, QuadraticFormInParams, diag_candidate,
                       diag_form, drivas_check, drivas_field, offdiag_candidate,
                       offdiag_form, sign_certificates)
from .trigpoly import (COS, SIN, KolmogorovFlow, Mode, TrigPoly, bracket,
                       canonicalize, grad_energy, inner, misiolek_index)

__version__ = "0.1.0"
