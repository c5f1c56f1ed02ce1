"""Test-time activation-slope defense for small rectifier CNNs.

The package trains plain-ReLU convolutional networks, then evaluates them
with a raised rectifier slope (or a substitute activation) against a suite
of gradient-based and degradation adversarial attacks, producing
deterministic CSV reports.
"""

__version__ = "0.1.0"

from .autodiff import Tape, Tensor, backward
from .data import (
    BatchIterator,
    DataFormatError,
    LabeledImageSet,
    load_cifar10_bin,
    load_mnist_idx,
    scale_pixels,
    take_first,
)
from .models import (
    ARCHITECTURES,
    ArchitectureSpec,
    Model,
    ParamsFormatError,
    build_model,
    load_params,
    penultimate_features,
    save_params,
)
from .attacks import AdversarialBatch, AttackConfig, run_attack
from .experiments import (
    EvalRecord,
    Report,
    activation_swap,
    bpda_train_substitute,
    bpda_transfer_eval,
    eval_clean,
    eval_under_attack,
    export_features,
    scaling_experiment,
    slope_sweep,
    targeted_sweep,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
