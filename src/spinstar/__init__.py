"""Entanglement distribution over dipolar-coupled spin-chain arms.

Simulates transfer arms of NV-center registers joined by nitrogen-defect
chains: star-network ground states and their measurement protocols, open
dephasing dynamics on the excitation-reduced representation, register
pair entanglement over transfer time, disorder and spin-loss robustness
campaigns, and field-gradient sensing on the distributed pair.
"""

__version__ = "0.1.0"

import os

# one BLAS thread unless set, or a result's last digit can vary with the host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .chain import ChainSpec
from .entangle import max_entanglement_scan
from .lindblad import NoiseSpec
from .star import StarSpec, w_state_protocol
