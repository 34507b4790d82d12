"""driftlab: a desk-scale laboratory for domain-incremental continual
learning on synthetic Gaussian benchmark streams.

The headline method keeps one frozen expert classifier per domain and
routes test points to experts with a domain discriminator trained purely on
synthetic samples from per-domain generative models; baselines cover
sequential finetuning, quadratic-anchor regularization, real and synthetic
rehearsal, centroid routing, and joint-training upper bounds. Everything is
numpy, deterministic under a documented 64-bit seed tree, and driven by
YAML configs through the ``driftlab`` CLI.
"""

from .benchmarks import (DomainDataset, DomainStream, LabeledSet, StreamGuard,
                         build_stream)
from .config import (BenchmarkConfig, ExperimentConfig, StrategyConfig,
                     expand_grid, load_config, parse_config, serialize_config)
from .errors import (ConfigError, ContractError, DataAccessError,
                     DriftLabError, NumericError, ShapeError, ValidationError)
from .gmm import (FitConfig, GmmGenerator, Mixture, fit_em, fit_generator,
                  log_likelihood, sample_buffer)
from .harness import (RunRecord, execute_run, persist_results, run_experiment,
                      run_id_for)
from .kmeans import CentroidRouter, fit_kmeans
from .memory import (build_router_trainset, compose_replay_trainset,
                     update_replay_buffer)
from .metrics import (AccuracyMatrix, RoutingReport, average_accuracy, bwt,
                      evaluate_accuracy, routing_accuracy)
from .nn import (Classifier, forward, init_classifier, layer_views, loss_and_grad,
                 predict, softmax)
from .optim import OptimizerState, apply_step
from .pca import Projection2D, pca_project_2d
from .rng import derive, make_rng
from .strategies import ROUTER_KINDS, STRATEGY_NAMES, Strategy, strategy_dispatch
from .training import (TrainLog, estimate_fisher_diag, ewc_penalty,
                       train_classifier)

__version__ = "0.1.0"
