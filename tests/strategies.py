"""Hypothesis strategies shared across test modules."""

import numpy as np
from hypothesis import strategies as st

from tarpath.instance import InstanceSpec, NoiseModel, PLInstance, random_instance
from tarpath.model import LinearAdvantage, TabularAdvantage
from tarpath.pathspace import ActionAlphabet

_TOKEN_POOL = ("a", "b", "c", "d")


@st.composite
def alphabets(draw, max_tokens: int = 4) -> ActionAlphabet:
    n = draw(st.integers(min_value=1, max_value=max_tokens - 1))
    return ActionAlphabet(tokens=_TOKEN_POOL[:n] + ("END",), terminal="END")


@st.composite
def instances(
    draw,
    max_tokens: int = 4,
    max_depth: int = 5,
    max_paths: int = 12,
    noise: NoiseModel | None = None,
) -> PLInstance:
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    n_actions = draw(st.integers(min_value=2, max_value=max_tokens))
    depth = draw(st.integers(min_value=1, max_value=max_depth))
    available = sum((n_actions - 1) ** d for d in range(depth + 1))
    spec = InstanceSpec(
        n_actions=n_actions,
        max_depth=depth,
        n_paths=draw(st.integers(min_value=1, max_value=min(max_paths, available))),
        noise=noise if noise is not None else NoiseModel.noiseless(),
    )
    return random_instance(spec, rng)


@st.composite
def tabular_models(draw, instance: PLInstance | None = None) -> TabularAdvantage:
    if instance is None:
        instance = draw(instances())
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    model = TabularAdvantage.default(instance.trie).with_random_params(rng)
    # exact zeros, as the tree solve's pooled nodes hold them
    x = model.drawdown_vector()
    x[1:][rng.random(x.size - 1) < draw(st.sampled_from([0.0, 0.5]))] = 0.0
    return model.with_drawdowns(x)


@st.composite
def linear_models(draw, alphabet: ActionAlphabet | None = None) -> LinearAdvantage:
    if alphabet is None:
        alphabet = draw(alphabets())
    kind = draw(st.sampled_from(["edge_pair", "depth_edge_pair"]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return LinearAdvantage.default(alphabet, kind=kind).with_random_params(rng)
