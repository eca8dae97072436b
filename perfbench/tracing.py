"""Span recorder for the traced run, installed from outside the program.

``install`` wraps the lincore functions listed in ``TRACED`` and puts the
wrapper everywhere the original is reachable by name: in the module that
defines it, in every lincore module that imported it by name, and in the
package namespace.  Each call records a span (name, tag, start, end,
parent) in memory; ``uninstall`` puts the originals back.  ``layer_metrics``
turns the spans of one traced round into the per-layer metrics.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import time
from pathlib import Path

import numpy as np

LAYERS = (
    "rng",
    "trainers",
    "inference",
    "structured",
    "losses",
    "minimize",
    "consistency",
    "multiclass",
    "datagen",
    "experiments",
)

# The public functions whose calls become spans, per layer.  The entry
# points the workloads call directly are included so that each layer's
# self time covers its own loops.
TRACED = {
    "rng": ("stream_rng",),
    "trainers": ("sgd_train", "sgd_step", "test_hamming_error"),
    "inference": (
        "viterbi",
        "loss_augmented_viterbi",
        "forward_backward",
        "ssvm_loss_and_subgradient",
        "crf_nll_and_gradient",
    ),
    "structured": (
        "structured_sum_loss_exact",
        "enumerate_sequences",
        "all_sequence_scores",
        "structured_conditional_regrets",
    ),
    "losses": ("lc_value", "lc_derivative"),
    "minimize": ("minimize_convex",),
    "consistency": ("weighted_margin_infimum", "transformation_T", "biased_coin_curve", "tau_sweep"),
    "multiclass": ("mc_conditional_regrets", "conditional_surrogate_regret"),
    "datagen": ("generate_hmm_split", "generate_hmm_data", "generate_idn_dataset"),
    "experiments": ("run_rates", "run_stability", "run_noise", "run_train_seq"),
}


def _sgd_step_tag(model, x, y, config, *args, **kwargs):
    return f"{config.objective}.Y{model.n_labels}"


def _minimize_tag(value, derivative, lo, hi, **kwargs):
    return int(np.broadcast(np.atleast_1d(lo), np.atleast_1d(hi)).size)


TAGS = {"trainers.sgd_step": _sgd_step_tag, "minimize.minimize_convex": _minimize_tag}


class Tracer:
    """In-memory spans: parallel lists indexed by span id."""

    def __init__(self) -> None:
        self.name: list[str] = []
        self.tag: list = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        tag_of = TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name)
            self.name.append(name)
            self.tag.append(tag_of(*args, **kwargs) if tag_of else None)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"lincore.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, names in TRACED.items():
            for fname in names:
                fn = getattr(modules[layer], fname)
                wrappers[id(fn)] = self.wrap(f"{layer}.{fname}", fn)
        namespaces = list(modules.values()) + [importlib.import_module("lincore")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._patches.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write_csv(self, path: Path, round_index: int, append: bool) -> None:
        with open(path, "a" if append else "w", newline="") as handle:
            writer = csv.writer(handle)
            if not append:
                writer.writerow(["round", "span", "parent", "name", "tag", "start_s", "end_s"])
            for i, tag in enumerate(self.tag):
                writer.writerow([round_index, i, self.parent[i], self.name[i], "" if tag is None else tag,
                                 repr(self.start[i]), repr(self.end[i])])


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round (counts, per-call times, self times)."""
    names = np.array(tracer.name, dtype=object)
    parent = np.array(tracer.parent, dtype=np.int64)
    duration = np.array(tracer.end) - np.array(tracer.start)
    child_time = np.zeros(len(names))
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], duration[has_parent])
    self_time = duration - child_time
    layer = np.array([n.split(".", 1)[0] for n in names], dtype=object)

    def mask(name):
        return names == name

    def calls(name):
        return int(np.sum(mask(name)))

    def total(name):
        return float(np.sum(duration[mask(name)]))

    def us_per_call(sel):
        n = int(np.sum(sel))
        return float(np.sum(duration[sel]) / n * 1e6) if n else float("nan")

    def self_s(sel):
        return float(np.sum(self_time[sel]))

    out: dict[str, float] = {}
    for lay in LAYERS:
        out[f"{lay}.self_s"] = self_s(layer == lay)

    out["rng.stream_rng.calls"] = calls("rng.stream_rng")
    out["rng.stream_rng.us_per_call"] = us_per_call(mask("rng.stream_rng"))

    tags = np.array([t if isinstance(t, str) else "" for t in tracer.tag], dtype=object)
    step = mask("trainers.sgd_step")
    for objective in ("lincore", "lincore_ksample", "ssvm", "crf"):
        for n_labels in (3, 100, 400):
            sel = step & (tags == f"{objective}.Y{n_labels}")
            out[f"trainers.sgd_step.us_per_call.{objective}.Y{n_labels}"] = us_per_call(sel)
    # A pair-sampler step reaches its update exactly when it evaluates the
    # surrogate derivative; a zero similarity weight returns before that.
    pair_steps = np.nonzero(step & np.array([t.startswith("lincore.Y") for t in tags]))[0]
    derivative_parents = set(parent[mask("losses.lc_derivative")].tolist())
    updated = sum(1 for i in pair_steps if int(i) in derivative_parents)
    out["trainers.pair_update_ratio"] = updated / len(pair_steps) if len(pair_steps) else float("nan")
    out["trainers.test_hamming_error.calls"] = calls("trainers.test_hamming_error")
    out["trainers.test_hamming_error.s"] = total("trainers.test_hamming_error")

    for fname in ("viterbi", "loss_augmented_viterbi", "forward_backward"):
        out[f"inference.{fname}.calls"] = calls(f"inference.{fname}")
        out[f"inference.{fname}.us_per_call"] = us_per_call(mask(f"inference.{fname}"))
    for fname in ("ssvm_loss_and_subgradient", "crf_nll_and_gradient"):
        out[f"inference.{fname}.us_per_call"] = us_per_call(mask(f"inference.{fname}"))

    out["structured.structured_sum_loss_exact.calls"] = calls("structured.structured_sum_loss_exact")
    out["structured.structured_sum_loss_exact.us_per_call"] = us_per_call(
        mask("structured.structured_sum_loss_exact")
    )
    out["structured.enumerate_sequences.calls"] = calls("structured.enumerate_sequences")
    out["structured.all_sequence_scores.calls"] = calls("structured.all_sequence_scores")
    out["structured.structured_conditional_regrets.us_per_call"] = us_per_call(
        mask("structured.structured_conditional_regrets")
    )

    out["losses.lc_value.calls"] = calls("losses.lc_value")
    out["losses.lc_derivative.calls"] = calls("losses.lc_derivative")

    minimize = mask("minimize.minimize_convex")
    out["minimize.minimize_convex.calls"] = calls("minimize.minimize_convex")
    out["minimize.minimize_convex.us_per_call"] = us_per_call(mask("minimize.minimize_convex"))
    problems = [tracer.tag[i] for i in np.nonzero(minimize)[0]]
    out["minimize.minimize_convex.problems_per_call"] = float(np.mean(problems)) if problems else float("nan")

    out["consistency.weighted_margin_infimum.calls"] = calls("consistency.weighted_margin_infimum")
    out["multiclass.mc_conditional_regrets.us_per_call"] = us_per_call(
        mask("multiclass.mc_conditional_regrets")
    )

    out["datagen.generate_hmm_split.s"] = total("datagen.generate_hmm_split")
    out["datagen.generate_idn_dataset.s"] = total("datagen.generate_idn_dataset")
    out["experiments.run_noise.self_s"] = self_s(mask("experiments.run_noise"))
    out["experiments.run_train_seq.self_s"] = self_s(mask("experiments.run_train_seq"))
    return out
