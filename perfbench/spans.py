"""Spans around the calls into each tarpath module, recorded from outside it.

``Tracer.install`` replaces, for the duration of a traced pipeline, the
public functions that ``tarpath.cli`` (and, where the CLI reaches a layer only
through another module, that module) looks up by name at call time, plus the
objective callable handed to ``train``. Nothing inside the package changes.
Spans stay in memory; the per-layer summary is computed after the run.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict

# The package's modules; a span's layer is the prefix of its name.
LAYERS = (
    "cli", "instance", "serialize", "pathspace", "oracle",
    "model", "losses", "planner", "attribution", "reduction",
)


def _patch_table(tp):
    """(owner, attribute, span name or None, counter hook) for every wrapped call.

    A span name of None counts without timing (used for generators, whose
    call returns before their work is done).
    """
    cli, losses, serialize = tp.cli, tp.losses, tp.serialize

    def nodes(tr, args, result):
        tr.count("pathspace.trie_nodes", len(result.nodes))

    def rows(tr, args, result):
        tr.count("instance.rows", len(result))

    def steps(tr, args, result):
        tr.count("planner.steps", len(result.path))

    def solved(tr, args, result):
        tr.count("losses.iterations", result.iterations)

    def written(tr, args, result):
        tr.count("serialize.bytes_written", len(args[1]))

    def read(tr, args, result):
        tr.count("serialize.bytes_read", os.path.getsize(args[0]))

    return [
        (cli, "random_instance", "instance.generate", None),
        (cli, "save_instance", "instance.save", None),
        (cli, "load_instance", "instance.load", None),
        (cli, "sample_dataset", "instance.sample", None),
        (cli, "save_dataset", "instance.dataset_save", None),
        (cli, "load_dataset", "instance.dataset_load", rows),
        (serialize, "dump_json", "serialize.dump", None),
        (serialize, "dump_jsonl", "serialize.dump", None),
        (serialize, "atomic_write_text", "serialize.write", written),
        (serialize, "load_json", "serialize.load", read),
        (serialize, "load_jsonl", None, read),
        (tp.pathspace.PrefixTrie, "build", "pathspace.trie_build", nodes),
        (cli, "compute_optimal", "oracle.compute", None),
        (losses, "compute_optimal", "oracle.compute", None),
        (cli, "save_oracle", "oracle.save", None),
        (cli, "check_decomposition", "oracle.decomposition", None),
        (tp.model.TabularAdvantage, "default", "model.init", None),
        (tp.model.TabularAdvantage, "from_oracle", "model.init", None),
        (tp.model.LinearAdvantage, "default", "model.init", None),
        (cli, "save_model", "model.save", None),
        (cli, "load_model", "model.load", None),
        (cli, "tar_objective", "losses.compile", None),
        (cli, "train", "losses.solve", solved),
        (cli, "surrogate_gap", "losses.gap", None),
        (losses, "vlp_loss", "losses.vlp", None),
        (cli, "greedy_path", "planner.greedy", steps),
        (cli, "attribute", "attribution.attribute", None),
        (cli, "build_offline_dataset", "reduction.build", None),
        (cli, "save_rl_dataset", "reduction.save", None),
    ]


class Tracer:
    """Records spans as (name, start, end, parent index, pipeline id)."""

    def __init__(self, tp):
        self._tp = tp
        self.spans: list[tuple | None] = []
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.pipeline = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float) -> None:
        self.counts[(self.pipeline, name)] += amount

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.pipeline)

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            result = fn(*args, **kwargs) if name is None else self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _traced_train(self, train):
        def traced(model, objective, config):
            return train(model, self._wrap(objective, "losses.eval", None), config)

        return traced

    def install(self) -> None:
        for owner, attr, name, hook in _patch_table(self._tp):
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(original.__func__, name, hook))
            elif attr == "train":
                # also wrap the objective it is handed: eval counts and times
                replacement = self._wrap(self._traced_train(original), name, hook)
            else:
                replacement = self._wrap(original, name, hook)
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self, pipelines: list[int], dominant: str) -> tuple[dict[str, float], str]:
        """Per-layer metrics, as medians over the traced pipelines of
        per-pipeline totals, and the layer with the most self time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive = defaultdict(float)  # (pipeline, span name) -> seconds
        calls = defaultdict(int)
        self_time = defaultdict(float)  # (pipeline, layer) -> seconds
        evals = []
        for i, (name, start, end, _, pipe) in enumerate(self.spans):
            inclusive[(pipe, name)] += end - start
            calls[(pipe, name)] += 1
            self_time[(pipe, name.split(".", 1)[0])] += end - start - child[i]
            if name == "losses.eval":
                evals.append(end - start)

        def med(values):
            return statistics.median(values) if values else 0.0

        per_pipe = lambda table, key: med([table[(p, key)] for p in pipelines])  # noqa: E731
        out = {}
        for name in (
            "cli.gen", "cli.oracle", "cli.sample", "cli.train", "cli.plan", "cli.attribute", "cli.verify",
            "instance.generate", "instance.save", "instance.load", "instance.sample",
            "instance.dataset_save", "instance.dataset_load", "serialize.dump", "serialize.write",
            "serialize.load", "pathspace.trie_build", "oracle.compute", "oracle.save",
            "oracle.decomposition", "model.init", "model.save", "model.load", "losses.compile",
            "losses.solve", "losses.gap", "losses.vlp", "planner.greedy",
            "attribution.attribute", "reduction.build", "reduction.save",
        ):
            out[f"{name}_s"] = per_pipe(inclusive, name)
        out["oracle.compute_calls"] = per_pipe(calls, "oracle.compute")
        out["oracle.decomposition_checks"] = per_pipe(calls, "oracle.decomposition")
        out["losses.evals"] = per_pipe(calls, "losses.eval")
        out["losses.eval_s_p50"] = med(evals)
        for name in (
            "instance.rows", "serialize.bytes_written", "serialize.bytes_read",
            "pathspace.trie_nodes", "losses.iterations", "planner.steps",
        ):
            out[name] = per_pipe(self.counts, name)
        total_evals = sum(calls[(p, "losses.eval")] for p in pipelines)
        total_iters = sum(self.counts[(p, "losses.iterations")] for p in pipelines)
        out["losses.accepted_per_eval"] = total_iters / total_evals if total_evals else 0.0
        for layer in LAYERS:
            out[f"self.{layer}_s"] = per_pipe(self_time, layer)
        largest = max(LAYERS, key=lambda layer: out[f"self.{layer}_s"])
        out["trace.dominant_held"] = 1.0 if largest == dominant else 0.0
        return out, largest
