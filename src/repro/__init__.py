"""GNN-DSE reproduction: automated accelerator optimization aided by GNNs.

Reproduction of Sohrabizadeh et al., DAC 2022.  The package is layered
bottom-up (each layer usable on its own):

- :mod:`repro.frontend` / :mod:`repro.ir` — C-subset front-end and
  LLVM-like IR with loop-nest analysis (the Clang/LLVM substitute);
- :mod:`repro.graph` — pragma-extended ProGraML-style program graphs;
- :mod:`repro.designspace` — pragma knobs, pruning rules, enumeration;
- :mod:`repro.hls` — the simulated Merlin+HLS evaluator (ground truth);
- :mod:`repro.nn` — numpy autograd + GNN layers (PyTorch substitute);
- :mod:`repro.model` — the M1–M7 predictive models and training;
- :mod:`repro.explorer` — the HLS-in-the-loop scorer and database
  generation (AutoDSE's explorers, run as :mod:`repro.dse` strategies);
- :mod:`repro.dse` — design-space exploration: one budgeted search
  core, scored by the surrogate or by the HLS tool;
- :mod:`repro.analysis` — t-SNE and attention analysis;
- :mod:`repro.experiments` — one entry point per paper table/figure.

Quickstart::

    from repro.kernels import get_kernel
    from repro.designspace import build_design_space
    from repro.hls import MerlinHLSTool

    spec = get_kernel("gemm-ncubed")
    space = build_design_space(spec)
    tool = MerlinHLSTool()
    result = tool.synthesize(spec, space.default_point())
    print(result.latency, result.utilization)
"""

__version__ = "1.0.0"

from . import errors
from .kernels import KERNELS, TRAINING_KERNELS, UNSEEN_KERNELS, get_kernel, list_kernels

__all__ = [
    "__version__",
    "errors",
    "KERNELS",
    "TRAINING_KERNELS",
    "UNSEEN_KERNELS",
    "get_kernel",
    "list_kernels",
]
