"""Security assessment toolkit for vertical federated learning systems.

Simulates the two core VFL protocols over vertically partitioned data,
synthesizes adversarial dominating inputs by whitebox and blackbox gradient
methods, uncovers them with saliency-guided greybox fuzzing, and validates
the analytic output-variance formulas against Monte-Carlo estimates.
"""

from .data import (Dataset, PartitionSpec, TinyDataset, load_csv, load_idx,
                   mnist_column_split, normalize, partition_vertical,
                   ratio_split, sample_tiny, train_test_split)
from .model import (LayerSpec, LocalModel, SgdMomentum, backward, forward,
                    grad_check, init_model)
from .protocol import (Coordinator, Participant, VFLSystem, evaluate,
                       joint_inference, load_system, save_system,
                       train_heterolr, train_linear_joint, train_splitnn)
from .synthesis import (AdiCandidate, JointEvaluator, SynthesisConfig,
                        adi_generate, default_bound, saliency_est,
                        saliency_est_fdm)
from .fuzzer import (CampaignConfig, FuzzSeed, SaliencyCalibration,
                     calibrate_saliency, compute_mask, fuzz_campaign, is_adi,
                     mutate_saliency_aware, reduce_saliency)
from .variance import (Gmm, ScalarMixture, bounded_existence_check,
                       fit_gmm_em, heterolr_variance, project_mixture,
                       splitnn_unit_variance, variance_monte_carlo)
from .assessment import (ExperimentReport, build_perturbation_matrix,
                         dominating_rate, reward_shares, success_rate)

__version__ = "0.1.0"
