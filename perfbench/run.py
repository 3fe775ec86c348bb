"""tarpath's benchmark: seeded CLI pipelines, timed end to end and traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload small-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload wide-log --seed 1 --seconds 30 --trace 1 --results out.jsonl

One process, one client, closed loop: pipelines of the real CLI
(``tarpath.cli.main``, in-process) run back to back until ``--seconds`` have
passed. numpy/BLAS threads are pinned to 1. Every CLI call's exit code and
outputs are checked; a call that exits nonzero or fails a check counts as
failed. ``--trace 0`` reports the end-to-end metrics declared in
BENCHMARK.json; ``--trace 1`` alternates untraced and traced pipelines and
reports the per-layer metrics from the traced ones. The last line of standard
output is the result as one JSON object. ``--results FILE`` also appends the
full record, with machine info, for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from dataclasses import dataclass, field
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# BLAS reads these once, when numpy is first imported below.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy  # noqa: E402
from reference import PG_TOL, ReferenceUnavailable, TabularObjective  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import KAPPA, LAMBDA, PLAN_PATH, TOL, WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
SETUP_REPS = 7
# A reported training loss must match an independent evaluation of the same
# objective at the saved model to this relative tolerance.
LOSS_CHECK_RTOL = 1e-9
# Units of the metrics a run prints beyond those BENCHMARK.json declares: the
# median stage timings, which vary with this host's load too much to bound, and
# the outcome metrics, which a traced run reports under a layer's name.
UNITS = {
    "pipeline_s_p50": "s", "train_s_p50": "s", "verify_s_p50": "s",
    "failed_frac": "ratio", "converged_frac": "ratio", "regret_mean": "yield",
    "loss_excess_p50": "loss", "loss_excess_max": "loss", "reference_residual_max": "loss/param",
}
LAYER_NAME = {
    "failed_frac": "cli.failed_frac", "converged_frac": "losses.converged_frac",
    "regret_mean": "planner.regret_mean", "loss_excess_p50": "losses.loss_excess_p50",
    "loss_excess_max": "losses.loss_excess_max",
}
# Which stage wrote each artifact, so a byte mismatch is charged to that call.
ARTIFACT_STAGE = {
    "instance.json": "gen", "oracle.json": "oracle", "data.jsonl": "sample", "rl.jsonl": "sample",
    "model.json": "train", "report.json": "train", "linear_model.json": "train_linear",
    "linear_report.json": "train_linear", "plan.json": "plan", "attribution.json": "attribute",
    "verify.json": "verify",
}


@dataclass
class Pipeline:
    index: int
    # the workload pipeline whose inputs this one ran
    inputs: int
    workdir: Path
    traced: bool
    # one directory per instance, in the order the pipeline ran them
    dirs: list[Path] = field(default_factory=list)
    # seconds per stage name, summed over the pipeline's instances
    stages: dict[str, float] = field(default_factory=dict)
    wall: float = 0.0
    attempted: int = 0
    # failed calls, as (instance directory, stage name)
    failed: set[tuple[Path, str]] = field(default_factory=set)

    @property
    def ok(self) -> bool:
        return not self.failed

    def fail(self, d: Path, stage: str, why: str) -> None:
        print(f"perfbench: pipeline {self.index} {d.name} {stage}: {why}", file=sys.stderr)
        self.failed.add((d, stage))


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--results", default=None, help="append the full record to this JSONL file")
    return parser.parse_args(argv)


def load_program() -> types.SimpleNamespace:
    """Import tarpath from this checkout's src/, never from anywhere else."""
    if not (SRC / "tarpath" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no tarpath sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tarpath.cli

    if Path(tarpath.cli.__file__).resolve().parent != SRC / "tarpath":
        raise SystemExit(f"perfbench: imported tarpath from {tarpath.cli.__file__}, not {SRC}")
    from tarpath import instance, losses, model, pathspace, serialize

    return types.SimpleNamespace(
        cli=tarpath.cli, instance=instance, losses=losses, model=model,
        pathspace=pathspace, serialize=serialize,
    )


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing the CLI: the set-up a
    user pays before any ``tarpath`` command does work."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import tarpath.cli"], cwd=ROOT, env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_stage(tp, argv: list[str], tracer) -> int:
    try:
        if tracer is None:
            return tp.cli.main(argv)
        return tracer.span(f"cli.{argv[0]}", tp.cli.main, argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed call; keep measuring and report it
        traceback.print_exc()
        return -1


def run_pipeline(tp, wl, seed: int, index: int, inputs: int, workdir: Path, tracer=None) -> Pipeline:
    """Run the CLI calls of the workload's pipeline ``inputs`` in order; a
    failed call ends the pipeline."""
    pipe = Pipeline(index=index, inputs=inputs, workdir=workdir, traced=tracer is not None)
    plan_path: list[str] = []
    start = time.perf_counter()
    for stage in wl.pipeline(seed, inputs, str(workdir)):
        d = Path(stage.workdir)
        if d not in pipe.dirs:
            d.mkdir(parents=True)
            pipe.dirs.append(d)
        argv = []
        for arg in stage.argv:
            argv.extend(plan_path if arg == PLAN_PATH else [arg])
        pipe.attempted += 1
        t0 = time.perf_counter()
        rc = run_stage(tp, argv, tracer)
        pipe.stages[stage.name] = pipe.stages.get(stage.name, 0.0) + time.perf_counter() - t0
        if rc != 0:
            pipe.fail(d, stage.name, f"exit code {rc}")
            break
        if stage.name == "plan":
            try:
                plan_path = list(read_json(d / "plan.json")["path"])
            except (OSError, ValueError, KeyError, TypeError) as exc:
                pipe.fail(d, "plan", f"unreadable plan.json: {exc!r}")
                break
    pipe.wall = time.perf_counter() - start
    return pipe


def read_json(path: Path):
    return json.loads(path.read_text())


def check_outputs(pipe: Pipeline) -> list[dict]:
    """Check the artifacts of a completed pipeline. Returns, per instance, its
    directory, final tabular loss, reported gradient norms and plan regret."""
    out = []
    for d in pipe.dirs:
        try:
            report = read_json(d / "report.json")
            linear = read_json(d / "linear_report.json") if (d / "linear_report.json").exists() else None
            plan = read_json(d / "plan.json")
            attribution = read_json(d / "attribution.json")
            if not math.isfinite(report["final_loss"]):
                pipe.fail(d, "train", f"non-finite final_loss {report['final_loss']!r}")
            if not plan["regret"] >= 0.0:
                pipe.fail(d, "plan", f"negative regret {plan['regret']!r}")
            if attribution["total"] != plan["predicted"] or attribution["path"] != plan["path"]:
                pipe.fail(d, "attribute", "attribution total differs from the plan's predicted value")
            if read_json(d / "verify.json")["passed"] is not True:
                pipe.fail(d, "verify", "verify report has passed != true")
            grad_norms = [report["grad_norm"]] + ([linear["grad_norm"]] if linear else [])
            out.append({"dir": d, "final_loss": report["final_loss"], "grad_norms": grad_norms,
                        "regret": plan["regret"]})
        except (OSError, ValueError, KeyError, TypeError) as exc:
            pipe.fail(d, "verify", f"missing or malformed artifact: {exc!r}")
    return out


def compare_artifacts(pipe: Pipeline, reference: Path) -> None:
    """Charge every artifact that differs from the reference run's to its stage."""
    files = lambda root: sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())  # noqa: E731
    names = files(reference)
    if names != files(pipe.workdir):
        pipe.fail(pipe.workdir, "gen", "artifact file sets differ from the reference run")
    for name in names:
        other = pipe.workdir / name
        if other.exists() and not filecmp.cmp(reference / name, other, shallow=False):
            pipe.fail(other.parent, ARTIFACT_STAGE[name.name], f"{name} differs byte for byte from the reference run")


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    above it, or the maximum when there are too few samples for one."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "platform": platform.platform(),
    }


def run_loop(tp, wl, seed: int, seconds: float, base: Path, tracer) -> tuple[list[Pipeline], dict]:
    """Run pipelines back to back for ``seconds``. With a tracer, each
    untraced pipeline is followed by a traced one on the same inputs. Returns
    every pipeline (a rerun for the byte comparison has index -1) and, per
    pipeline index, the figures of its checked instances."""
    pipes: list[Pipeline] = []
    figures: dict[int, list[dict]] = {}
    start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.pipeline = k
            tracer.install()
        try:
            inputs = k // 2 if tracer is not None else k
            pipe = run_pipeline(tp, wl, seed, k, inputs, base / f"p{k}", tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        pipes.append(pipe)
        if pipe.ok:
            checked = check_outputs(pipe)
            if pipe.ok:
                figures[k] = checked
        # pipelines that ran the same inputs must write the same bytes
        same = pipes[0] if wl.repeat else pipes[k - 1] if traced else pipe
        if same is not pipe and same.ok and pipe.ok:
            compare_artifacts(pipe, same.workdir)
        if wl.repeat and k > 0:
            shutil.rmtree(pipe.workdir)
        k += 1
        if (tracer is None or k % 2 == 0) and time.perf_counter() - start >= seconds:
            break
    if tracer is None and not wl.repeat and pipes[0].ok:
        rerun = run_pipeline(tp, wl, seed, -1, 0, base / "p0-rerun")
        pipes.append(rerun)
        if rerun.ok:
            compare_artifacts(rerun, pipes[0].workdir)
    return pipes, figures


def loss_excess(tp, wl, pipes: list[Pipeline], figures: dict) -> tuple[list[float], list[float], dict]:
    """Final tabular loss minus the reference optimum, once per distinct
    instance, after every timed region. Also checks each reported loss
    against an independent evaluation of the objective at the saved model."""
    excess, residuals, missing = [], [], {}
    seen = set()
    for pipe in pipes[:1] if wl.repeat else pipes:
        if pipe.inputs in seen or not pipe.ok:
            continue
        seen.add(pipe.inputs)
        for fig in figures.get(pipe.index, []):
            d = fig["dir"]
            objective = TabularObjective(tp, str(d / "instance.json"), str(d / "data.jsonl"), LAMBDA, KAPPA)
            reported = fig["final_loss"]
            at_model = objective.at_model(tp, str(d / "model.json"))
            if abs(at_model - reported) > LOSS_CHECK_RTOL * max(1.0, abs(reported)):
                pipe.fail(d, "train", f"reported final_loss {reported!r}, objective at the model {at_model!r}")
                continue
            if missing:
                continue
            try:
                optimum, residual = objective.solve()
            except ReferenceUnavailable as exc:
                missing["loss_excess"] = str(exc)
                continue
            residuals.append(residual)
            if residual <= PG_TOL:
                excess.append(reported - optimum)
    if residuals and not excess:
        missing["loss_excess"] = f"no reference solve reached a projected-gradient max-norm of {PG_TOL:g}"
    return excess, residuals, missing


def main(argv=None) -> int:
    args = parse_args(argv)
    declared = read_json(ROOT / "BENCHMARK.json")
    tp = load_program()
    wl = WORKLOADS[args.workload]

    setup_s = measure_setup() if args.trace == 0 else None
    base = WORKDIR / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    tracer = Tracer(tp) if args.trace else None
    try:
        pipes, figures = run_loop(tp, wl, args.seed, args.seconds, base, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        excess, residuals, missing = loss_excess(tp, wl, pipes, figures)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()

    attempted = sum(p.attempted for p in pipes)
    failed = sum(len(p.failed) for p in pipes)
    measured = [p for p in pipes if p.index >= 0 and p.ok]
    timed = [p for p in measured if not p.traced]
    traced = [p for p in measured if p.traced and pipes[p.index - 1].ok]
    if not timed or (tracer is not None and not traced):
        print("perfbench: too few pipelines completed; nothing to report", file=sys.stderr)
        return 1
    walls = [p.wall for p in timed]
    checked = [fig for figs in figures.values() for fig in figs]
    grad_norms = [g for fig in checked for g in fig["grad_norms"]]
    outcome = {
        "failed_frac": failed / attempted,
        "converged_frac": sum(g <= TOL for g in grad_norms) / len(grad_norms),
        "regret_mean": statistics.fmean(fig["regret"] for fig in checked),
    }
    if excess:
        outcome["loss_excess_p50"] = statistics.median(excess)
        outcome["loss_excess_max"] = max(excess)
    if residuals:
        outcome["reference_residual_max"] = max(residuals)
    tail_value, tail_pct = tail(walls)
    if args.trace == 0:
        found = dict(outcome)
        found.update({
            "pipeline_s_p50": statistics.median(walls),
            "pipeline_s_tail": tail_value,
            "pipelines_per_s": len(walls) / sum(walls),
            "train_s_p50": statistics.median(p.stages["train"] for p in timed),
            "verify_s_p50": statistics.median(p.stages["verify"] for p in timed),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        })
        section = "end_to_end"
    else:
        found, largest = tracer.summary([p.index for p in traced], wl.dominant)
        found.update((LAYER_NAME.get(name, name), value) for name, value in outcome.items())
        # each traced pipeline against its untraced twin, which ran just before it
        found["trace.overhead_s"] = statistics.median(p.wall - pipes[p.index - 1].wall for p in traced)
        found["trace.cli_coverage"] = statistics.median(sum(p.stages.values()) / p.wall for p in traced)
        section = "per_layer"

    units = dict(UNITS, **{m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]})
    print(f"workload {wl.name} seed {args.seed}: {json.dumps(wl.shape())}")
    tail_is = f"p{tail_pct:.1f}" if tail_pct < 100.0 else "the maximum"
    print(f"untraced pipelines timed: {len(walls)} (pipeline_s_tail is {tail_is}); "
          f"CLI calls attempted: {attempted}, failed: {failed}")
    if args.trace:
        print(f"traced pipelines: {len(traced)}; dominant layer expected {wl.dominant}, "
              f"observed {largest}: {'held' if largest == wl.dominant else 'NOT held'}")
    for name, value in sorted(found.items()):
        print(f"  {name} = {value:.6g} {units[name]}")
    if residuals:
        print(f"  ({len(excess)} of {len(residuals)} reference solves reached a projected-gradient "
              f"max-norm of {PG_TOL:g}; loss excess uses those)")
    for name, why in missing.items():
        print(f"  {name}: missing ({why})")

    metrics = {}
    for m in declared[section]:
        if m["name"] in found:
            metrics[m["name"]] = {"value": found[m["name"]], "unit": m["unit"]}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.results:
        record = dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                      all_metrics=found, missing=missing, shape=wl.shape(), machine=machine_info(),
                      pipelines=[{"index": p.index, "wall": p.wall, "traced": p.traced, "stages": p.stages,
                                  "failed": sorted(f"{d.name}/{stage}" for d, stage in p.failed)}
                                 for p in pipes])
        with open(args.results, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
