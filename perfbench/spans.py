"""Span tracer for the aeroalloc benchmark.

The tracer wraps public functions of the package from outside: for each
instrumented function it replaces every module attribute bound to that
function object, so calls through by-name imports (``from .nncore import
forward`` in ``dynamics``, ``from .allocator import track_sequence`` in
``harness``, ...) are recorded as well as calls through the defining module.

Spans (group, start, end, parent, iteration, raised) live in flat arrays in
memory and are written out once, by :meth:`Tracer.save`, when the run ends.
Nothing here is installed in an untraced run.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np


def _rows(x) -> int:
    return int(x.shape[0]) if getattr(x, "ndim", 1) == 2 else 1


def _net_macs(net) -> int:
    return sum(int(layer.weight.size) for layer in net.layers)


def _count_forward(counts, args, kwargs, result):
    counts["nncore.flops_computed"] += 2 * _rows(np.asarray(args[1])) * _net_macs(args[0])


def _count_backward(counts, args, kwargs, result):
    counts["nncore.flops_computed"] += 4 * _rows(np.asarray(args[1])) * _net_macs(args[0])


def _count_epochs(group):
    def count(counts, args, kwargs, result):
        counts[group + ".epochs"] += int(args[1].epochs)
    return count


def _count_loaded_rows(counts, args, kwargs, result):
    counts["dynamics.csv.rows"] += int(result[0].shape[0])


def _count_saved_rows(counts, args, kwargs, result):
    counts["dynamics.csv.rows"] += int(np.asarray(args[1][0]).shape[0])


def _count_generated_rows(counts, args, kwargs, result):
    # Data rows of every returned CSV except the dynamics conditions companion.
    for path in result:
        if not str(path).endswith("_conditions.csv"):
            with open(path) as fh:
                counts["plant.generate_dataset.rows"] += sum(1 for _ in fh) - 1


def _count_clamped(counts, args, kwargs, result):
    counts["allocator.clamped"] += int(np.count_nonzero(result.clamped))
    counts["allocator.surface_steps"] += int(result.clamped.size)


# (group, module, function, counter). A group pools several functions that
# play one role; its call count and latency use only its outermost spans.
INSTRUMENTED = (
    ("nncore.forward", "nncore", "forward", _count_forward),
    ("nncore.backward", "nncore", "backward", _count_backward),
    ("nncore.step", "nncore", "step", None),
    ("dynamics.train", "dynamics", "train_dynamics", _count_epochs("dynamics.train")),
    ("dynamics.train", "dynamics", "train_unstructured", _count_epochs("dynamics.train")),
    ("dynamics.predict", "dynamics", "predict", None),
    ("dynamics.predict", "dynamics", "predict_batch", None),
    ("dynamics.predict", "dynamics", "predict_wrench_batch", None),
    ("dynamics.affine_at", "dynamics", "affine_at", None),
    ("dynamics.eval", "dynamics", "eval_rmse", None),
    ("dynamics.eval", "dynamics", "per_channel_rmse", None),
    ("dynamics.eval", "dynamics", "symmetry_residual_norm", None),
    ("dynamics.csv", "dynamics", "load_dynamics_csv", _count_loaded_rows),
    ("dynamics.csv", "dynamics", "save_dynamics_csv", _count_saved_rows),
    ("allocator.solve", "allocator", "solve", None),
    ("allocator.track_sequence", "allocator", "track_sequence", _count_clamped),
    ("plant.generate_dataset", "plant", "generate_dataset", _count_generated_rows),
    ("plant.make_observation", "plant", "make_observation", None),
    ("plant.true_wrench", "plant", "true_wrench", None),
    ("plant.true_affine_terms", "plant", "true_affine_terms", None),
    ("plant.probe_pressures", "plant", "probe_pressures", None),
    ("probe.train_calibration", "probe", "train_calibration", _count_epochs("probe.train_calibration")),
    ("probe.estimate_flow", "probe", "estimate_flow", None),
    ("probe.normalize", "probe", "normalize", None),
    ("probe.csv", "probe", "save_calibration_csv", None),
    ("probe.csv", "probe", "load_calibration_csv", None),
    ("harness.run_ablation_suite", "harness", "run_ablation_suite", None),
    ("harness.closed_loop_run", "harness", "closed_loop_run", None),
    ("harness.make_target_sequence", "harness", "make_target_sequence", None),
)

GROUPS = tuple(dict.fromkeys(group for group, *_ in INSTRUMENTED))
PACKAGE = "aeroalloc"
MODULES = ("nncore", "dynamics", "allocator", "plant", "probe", "harness")
# The step boundary of a closed loop: the observation read at its start.
STEP_GROUP, LOOP_GROUP = "plant.make_observation", "allocator.track_sequence"


class Tracer:
    """Records one span per call of every instrumented function."""

    def __init__(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.group = array("q")
        self.iteration = array("q")
        self.raised = array("b")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.current_iteration = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def _wrap(self, gid: int, fn, count):
        start, end, parent, group = self.start, self.end, self.parent, self.group
        iteration, raised, stack, counts = self.iteration, self.raised, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(group)
            group.append(gid)
            parent.append(stack[-1] if stack else -1)
            iteration.append(self.current_iteration)
            raised.append(0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = [sys.modules[PACKAGE]] + [sys.modules[f"{PACKAGE}.{name}"] for name in MODULES]
        for group, modname, fname, count in INSTRUMENTED:
            original = getattr(sys.modules[f"{PACKAGE}.{modname}"], fname)
            wrapper = self._wrap(GROUPS.index(group), original, count)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def bindings(self) -> list[str]:
        """Every ``module.attr`` the installed wrappers replaced."""
        return sorted(f"{mod.__name__}.{attr}" for mod, attr, _ in self._patches)

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "group": np.frombuffer(self.group, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "iteration": np.frombuffer(self.iteration, dtype=np.int64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str | Path) -> None:
        """Write every span and counter to one compressed ``.npz`` file."""
        counters = sorted(self.counts)
        np.savez_compressed(
            path,
            groups=np.asarray(GROUPS),
            counter_names=np.asarray(counters, dtype=str),
            counter_values=np.asarray([self.counts[k] for k in counters], dtype=float),
            **self.arrays(),
        )

    def calls(self) -> dict[str, int]:
        """Outermost-span call count per group."""
        spans = self.arrays()
        outer = _outermost(spans)
        counts = np.bincount(spans["group"][outer], minlength=len(GROUPS))
        return {g: int(counts[i]) for i, g in enumerate(GROUPS)}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over every recorded span (see README.md)."""
        spans = self.arrays()
        group, parent = spans["group"], spans["parent"]
        dur = spans["end"] - spans["start"]
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_time = dur - child
        outer = _outermost(spans)

        def gid(name):
            return GROUPS.index(name)

        def calls(name):
            return int(np.count_nonzero(outer & (group == gid(name))))

        def self_s(name):
            return float(self_time[group == gid(name)].sum())

        def busy_s(name):
            return float(dur[outer & (group == gid(name))].sum())

        def p50_us(name):
            sel = dur[outer & (group == gid(name))]
            return float(np.median(sel) * 1e6) if sel.size else 0.0

        def ratio(num, den):
            return float(num / den) if den else 0.0

        counts = self.counts
        flops = counts.get("nncore.flops_computed", 0.0)
        normalize = group == gid("probe.normalize")
        steps = _step_times(spans)
        m = {}
        for name in ("nncore.forward", "nncore.backward", "nncore.step"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.self_s"] = self_s(name)
        m["nncore.flops_computed"] = flops
        m["nncore.gflops_per_s"] = ratio(
            flops / 1e9, self_s("nncore.forward") + self_s("nncore.backward"))
        m["dynamics.train.calls"] = calls("dynamics.train")
        m["dynamics.train.self_s"] = self_s("dynamics.train")
        m["dynamics.train.epochs_per_s"] = ratio(
            counts.get("dynamics.train.epochs", 0), busy_s("dynamics.train"))
        for name in ("dynamics.predict", "dynamics.affine_at"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.us_p50"] = p50_us(name)
        m["dynamics.eval.self_s"] = self_s("dynamics.eval")
        m["dynamics.csv.self_s"] = self_s("dynamics.csv")
        m["dynamics.csv.rows"] = counts.get("dynamics.csv.rows", 0)
        m["allocator.solve.calls"] = calls("allocator.solve")
        m["allocator.solve.self_s"] = self_s("allocator.solve")
        m["allocator.solve.us_p50"] = p50_us("allocator.solve")
        m["allocator.track_sequence.self_s"] = self_s("allocator.track_sequence")
        m["allocator.track_sequence.step_ms_p99"] = (
            float(np.percentile(steps, 99) * 1e3) if steps.size else 0.0)
        m["allocator.clamped_frac"] = ratio(
            counts.get("allocator.clamped", 0), counts.get("allocator.surface_steps", 0))
        m["plant.generate_dataset.calls"] = calls("plant.generate_dataset")
        m["plant.generate_dataset.self_s"] = self_s("plant.generate_dataset")
        m["plant.generate_dataset.rows_per_s"] = ratio(
            counts.get("plant.generate_dataset.rows", 0), busy_s("plant.generate_dataset"))
        for name in ("plant.make_observation", "plant.true_wrench"):
            m[f"{name}.calls"] = calls(name)
            m[f"{name}.self_s"] = self_s(name)
        m["plant.true_affine_terms.calls"] = calls("plant.true_affine_terms")
        m["plant.probe_pressures.calls"] = calls("plant.probe_pressures")
        m["probe.train_calibration.calls"] = calls("probe.train_calibration")
        m["probe.train_calibration.self_s"] = self_s("probe.train_calibration")
        m["probe.train_calibration.epochs_per_s"] = ratio(
            counts.get("probe.train_calibration.epochs", 0), busy_s("probe.train_calibration"))
        m["probe.estimate_flow.calls"] = calls("probe.estimate_flow")
        m["probe.estimate_flow.us_p50"] = p50_us("probe.estimate_flow")
        m["probe.csv.self_s"] = self_s("probe.csv")
        m["probe.normalize.calls"] = calls("probe.normalize")
        m["probe.normalize.no_flow_frac"] = ratio(
            int(np.count_nonzero(spans["raised"][normalize])), int(np.count_nonzero(normalize)))
        for name in ("harness.run_ablation_suite", "harness.closed_loop_run",
                     "harness.make_target_sequence"):
            m[f"{name}.self_s"] = self_s(name)
        return m


def _outermost(spans) -> np.ndarray:
    """Spans whose parent is not a span of the same group."""
    group, parent = spans["group"], spans["parent"]
    parent_group = np.where(parent >= 0, group[np.maximum(parent, 0)], -1)
    return parent_group != group


def _step_times(spans) -> np.ndarray:
    """Closed-loop step durations in seconds, pooled over every traced loop.

    A step runs from one observation read inside a ``track_sequence`` span to
    the next; the last step of a loop ends with the loop.
    """
    group, parent = spans["group"], spans["parent"]
    start, end = spans["start"], spans["end"]
    loop_gid, step_gid = GROUPS.index(LOOP_GROUP), GROUPS.index(STEP_GROUP)
    out = []
    for loop in np.flatnonzero(group == loop_gid):
        marks = start[(group == step_gid) & (parent == loop)]
        if marks.size:
            out.append(np.diff(np.append(np.sort(marks), end[loop])))
    return np.concatenate(out) if out else np.empty(0)
