"""Reference optimum of the tabular training objective, for loss excess.

The tabular model's value at a state is ``c + sum of edge drawdowns a`` along
the state's path, with every drawdown ``a <= 0``. In ``(c, a)`` coordinates the
regression loss the trainer minimizes (p0 term, squared misfit, squared
nonnegativity hinge) is convex and piecewise quadratic under bound
constraints, so a bound-constrained quasi-Newton solve reaches its minimum.
The trainer's softplus coordinates only approach ``a = 0``, so the trainer's
loss can sit above this optimum but never below it.

Logged rows enter through per-path sufficient statistics: row count, mean and
within-path variance give the same misfit as the row sum.

scipy is not a dependency of tarpath; without it ``solve`` raises
``ReferenceUnavailable`` and loss excess is reported as missing.
"""

from __future__ import annotations

import numpy as np

# A reference optimum counts only where the projected-gradient max-norm of
# its solve is at most this.
PG_TOL = 1e-6
# L-BFGS-B can stall short of its tolerance when its curvature memory goes
# stale; each restart from the last point starts with an empty memory.
RESTARTS = 4


class ReferenceUnavailable(Exception):
    pass


class TabularObjective:
    """The train command's tabular objective on one (instance, dataset) pair,
    in (c, a) coordinates, built independently of tarpath.losses."""

    def __init__(self, tp, instance_path: str, data_path: str, lam: float, kappa: float):
        instance = tp.instance.load_instance(instance_path)
        data = tp.instance.load_dataset(data_path)
        alphabet = instance.alphabet
        observed = sorted({p for p, _ in data.pairs}, key=alphabet.sort_key)
        trie = tp.pathspace.PrefixTrie.build(alphabet, observed)
        node_index = {node: i for i, node in enumerate(trie.nodes)}
        self.edges = [(s, a) for s, a, _ in trie.iter_edges()]
        edge_index = {edge: j for j, edge in enumerate(self.edges)}
        step_state, step_edge = [], []
        for i, node in enumerate(trie.nodes):
            for k in range(len(node)):
                step_state.append(i)
                step_edge.append(edge_index[(node[:k], node[k])])
        self.step_state = np.array(step_state, dtype=np.intp)
        self.step_edge = np.array(step_edge, dtype=np.intp)
        self.n_states = len(trie.nodes)
        self.n_edges = len(self.edges)

        rows = np.array([node_index[p] for p, _ in data.pairs], dtype=np.intp)
        ys = np.array([y for _, y in data.pairs])
        counts = np.bincount(rows, minlength=self.n_states).astype(float)
        sums = np.bincount(rows, weights=ys, minlength=self.n_states)
        seen = counts > 0
        self.data_states = np.flatnonzero(seen)
        self.q = counts[seen] / len(ys)
        self.means = sums[seen] / counts[seen]
        resid = ys - (sums / np.maximum(counts, 1.0))[rows]
        self.floor = float(resid @ resid) / len(ys)
        self.w0 = 1.0 / self.n_states
        self.lam, self.kappa = lam, kappa

    def values(self, x: np.ndarray) -> np.ndarray:
        return x[0] + np.bincount(
            self.step_state, weights=x[1:][self.step_edge], minlength=self.n_states
        )

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        v = self.values(x)
        resid = v[self.data_states] - self.means
        neg = np.maximum(-v, 0.0)
        loss = (
            self.w0 * v.sum()
            + 0.5 * self.lam * (self.q @ (resid * resid) + self.floor)
            + self.kappa * self.w0 * (neg @ neg)
        )
        gv = np.full(self.n_states, self.w0) - 2.0 * self.kappa * self.w0 * neg
        gv[self.data_states] += self.lam * self.q * resid
        grad = np.empty(1 + self.n_edges)
        grad[0] = gv.sum()
        grad[1:] = np.bincount(self.step_edge, weights=gv[self.step_state], minlength=self.n_edges)
        return float(loss), grad

    def at_model(self, tp, model_path: str) -> float:
        """The objective at a saved tabular model, for checking its reported loss."""
        model = tp.model.load_model(model_path)
        drawdowns = {edge: tp.model.advantage_transform(model.raw_z(*edge)) for edge in model.edges}
        x = np.array([model.c] + [drawdowns[edge] for edge in self.edges])
        return self(x)[0]

    def projected_residual(self, x: np.ndarray) -> float:
        _, g = self(x)
        step = x - g
        step[1:] = np.minimum(step[1:], 0.0)
        return float(np.max(np.abs(x - step)))

    def solve(self) -> tuple[float, float]:
        """(optimal loss, projected-gradient max-norm at the returned point)."""
        try:
            from scipy.optimize import minimize
        except ImportError as exc:
            raise ReferenceUnavailable(f"scipy is not installed ({exc})") from exc
        x = np.zeros(1 + self.n_edges)
        x[0] = float(self.means.max())
        bounds = [(None, None)] + [(None, 0.0)] * self.n_edges
        for _ in range(1 + RESTARTS):
            res = minimize(
                self, x, jac=True, method="L-BFGS-B", bounds=bounds,
                options={"maxiter": 20_000, "maxfun": 40_000, "maxcor": 30, "ftol": 0.0, "gtol": PG_TOL / 100},
            )
            x, residual = res.x, self.projected_residual(res.x)
            if residual <= PG_TOL:
                break
        return float(res.fun), residual
