"""walkmeta: random-walk decentralized meta-learning at desk scale.

A single token carrying the meta-parameters walks a communication graph,
one client per iteration, chosen by a Markov chain. Each visited client
adapts to its own few-shot task, computes an exact meta-gradient, and
applies an adaptive update whose momentum and preconditioner stay local.
Calibrated Gaussian noise on the transmitted update provides network-level
differential privacy, with a closed-form accountant.
"""

from .config import ExperimentConfig, TopologySpec, parse_config, serialize_config
from .metalearn import adapt_unseen, inner_loop, meta_gradient_exact, meta_loss
from .model import Arch, ParamVector, grad, hvp, init_params, loss
from .optimizer import AuxState, HyperParams, adam_step, clip, sgd_step
from .privacy import (DpReport, PrivacyParams, account_network_dp, noise_sigma,
                      sample_perturbation)
from .simulator import MethodKind, RunRecord, comm_cost, evaluate, run
from .tasks import (ClientAssignment, TaskConfig, TaskInstance, assign_clients,
                    gen_blob_task, gen_sine_task)
from .topology import (Graph, TransitionMatrix, build_transition_matrix,
                       gen_complete, gen_regular_expander, gen_ring,
                       gen_small_world, gen_star, sample_next, sigma2,
                       stationary_distribution)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
