"""Weak large-deviation toolkit for lattice field models.

The package computes exact finite-volume laws, pressures, and entropy
estimates for translation-invariant fields with finitely many site values,
checks the decoupling and local-control hypotheses behind the two-scale
subadditive argument, and verifies the entropy/pressure conjugate duality
numerically on grids.
"""

from .config import (ExperimentConfig, config_from_string, default_config,
                     load_config)
from .conjugate import (GridFunction, MoscoReport, biconjugate,
                        biconjugation_check, default_windows,
                        fenchel_young_check, lft, lft_at, mosco_m1_check,
                        mosco_m2_check, order_reversal_check, read_grid_csv,
                        uniform_properness_check, write_grid_csv)
from .convexsets import BallShape, BoxShape, ConvexNbhd, gauge
from .entropy import (EntropyEstimate, chebyshev_upper_check, concavity_check,
                      entropy_estimate, random_convex_event,
                      subadditive_lemma_check)
from .errors import (BudgetExceededError, ConfigError, ConvergenceError,
                     ImproperFunctionError, LdpLabError, ModelError)
from .harness import (RunResult, run_chebyshev, run_entropy, run_hypotheses,
                      run_lft, run_mosco_pipeline, run_pressure,
                      run_subadditive, run_tiling, verify_duality)
from .hypotheses import (ChainDecouplingCertificate, check_decoupling,
                         check_local_control, doeblin_decoupling_certificate,
                         doeblin_local_alpha)
from .lattice import Box, Tiling, box_distance, make_box, rho_limit_check, tile
from .models import (AffineImageField, BlockField, DecouplingParams,
                     FieldModel, FiniteLaw, IIDField, LocalControlParams,
                     MarkovField, ParamTable, ValueSpace, affine_image,
                     conditioned, iid_field, markov_field,
                     product_of_marginals, sample, sample_sums,
                     scalarize)
from .pressure import (PressureCurve, block_pressure_identity_check,
                       compute_pressure_curve, pressure_finite,
                       pressure_finite_grid, pressure_limit, pressure_mc,
                       pressure_subadditivity_check, residual_beta_check,
                       write_curve_csv)
from .reports import (FAIL, INCONCLUSIVE, PASS, SCHEMA_VERSION,
                      VerificationReport, combine_status, status_to_exit,
                      write_report_json)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
