"""Numerical toolkit for bipartite nonlocal-game strategies.

Submodules:

* ``linalg`` - tensor products, partial traces, Hermitian spectral data
* ``games`` - games, strategies, correlations, winning probabilities
* ``schmidt`` - Schmidt decomposition, supports, purification, restriction
* ``metrics`` - state-dependent support and projectivity defects
* ``naimark`` - Naimark dilations of POVM families and strategies
* ``dilation`` - local-dilation witnesses and residuals in three forms
* ``lab`` - CHSH/trine worked examples, eigengap bounds, operator moments
* ``serialize`` / ``cli`` - wire formats and the command-line surface

``import selftest_lab`` loads the core types (``games`` and the ``linalg``
it builds on); every other submodule is loaded on first access, as
``selftest_lab.naimark`` or ``from selftest_lab import naimark``, so a
command-line run compiles only the modules its command calls.
"""

import importlib

from .games import Correlation, NonlocalGame, Strategy

__all__ = [
    "Correlation",
    "NonlocalGame",
    "Strategy",
    "dilation",
    "games",
    "lab",
    "linalg",
    "metrics",
    "naimark",
    "schmidt",
    "serialize",
]

__version__ = "0.1.0"

_LAZY = frozenset({"dilation", "lab", "metrics", "naimark", "schmidt", "serialize"})


def __getattr__(name):
    # PEP 562: called only for names not bound yet, so each submodule once
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
