"""banachkit: desk-scale numerics for the geometry of finite-dimensional
normed sequence spaces.

Sequence norms and rearrangements, growth-sequence validation,
finite-dimensional norm oracles with duality, s-number and eigenvalue
sequences, Rademacher/gaussian averages, witnessed summing and cotype
estimators, block lower-bound certificates, optimal gauges, and the
verification suites tying them together.
"""

__version__ = "0.1.0"

from .averages import (contraction_check, ell_norm, gauss_vs_rademacher,
                       gaussian_average, rademacher_average)
from .estimates import AverageResult, Estimate, GaugeValue
from .gauges import (alternative_classify, best_k, convexify,
                     lorentz_cotype_report, opt_gauge, iterated_log_bound,
                     self_concavity_check, submultiplicativity_check,
                     tensor_square)
from .growth import (GrowthSequence, g_q, iterated_log, tilde_g, tower,
                     tower_index, validate_growth)
from .linmaps import (LinearMap, dual_norm, identity_map, operator_norm,
                      operator_norms, weak_lq_functional)
from .pipeline import (BlockCertificate, plan_parameters, regroup_step,
                       revalidate, run_pipeline, select_block)
from .sequences import gweak_norm, lorentz_norm, rearrange
from .snumbers import (EigenSequence, SNumberSequence, approximation_numbers,
                       eigen_decay_vs_weyl, eigenvalue_sequence,
                       pi2_by_approx_bound, weyl_numbers)
from .spaces import (NormedSpace, SeqSpace, SubspaceSpace, cotype_index,
                     fundamental_function, gweak, lorentz, lp, parse_family,
                     parse_space)
from .summing import (C_delta, ConstantLedger, H_constant, constant_ledger,
                      cotype_q_constant, equal_norm_premise_check, pi_Y1,
                      pi_pq_n, equal_norm_inequality, weak_cotype_g)
