"""Offline path learning via advantage-decomposed value regression.

Learn, from logged (path, noisy yield) pairs, a value model of the form
"best-yield constant plus nonpositive per-step drawdowns", then plan greedily
over the drawdowns and explain predictions step by step. Exact oracles,
penalized-feasibility cross-checks, and a deterministic CLI pipeline are
included; see the README for the tour. The API lives in the submodules
(``tarpath.instance``, ``tarpath.losses``, ...).
"""

__version__ = "0.1.0"
