"""Finite-space kernels, manifold learning, and contrastive training.

Everything operates on small, fully enumerable spaces so that each
learning algorithm can be checked against the object it provably
converges to: a PMI matrix, a positive-pair kernel, a low-rank spectral
factor, or a Mercer eigenbasis. The eigensolvers, optimizer, and RNG are
all deterministic, so every number here is reproducible from a seed.

Each library module's ``__all__`` is the one declaration of its public
names; the package re-exports all of them.
"""

__version__ = "0.1.0"

from . import contrastive, eigenfunctions, encoders, kernel_approx, kernels
from . import linear_dr, manifold, rng, verify
from .contrastive import *  # noqa: F403
from .eigenfunctions import *  # noqa: F403
from .encoders import *  # noqa: F403
from .kernel_approx import *  # noqa: F403
from .kernels import *  # noqa: F403
from .linear_dr import *  # noqa: F403
from .manifold import *  # noqa: F403
from .rng import *  # noqa: F403
from .verify import *  # noqa: F403

__all__ = [
    "__version__",
    *contrastive.__all__,
    *eigenfunctions.__all__,
    *encoders.__all__,
    *kernel_approx.__all__,
    *kernels.__all__,
    *linear_dr.__all__,
    *manifold.__all__,
    *rng.__all__,
    *verify.__all__,
]
