"""In-memory span tracer that wraps fedmoe's public functions from outside.

Each wrapper is installed at the name its caller looks up: ``federation``
imports the expert, data, checkpoint and evaluation functions by name,
``expert`` and ``moe`` call ops as ``ad.<op>``, and methods live on their
classes. A span is ``[name, start, end, parent index]``. Ops recorded on
the active tape also get their ``backward_fn`` wrapped, so backward time
is attributed per op. Nothing is installed until ``install()`` and
``uninstall()`` restores every original, so untraced units run the
program untouched.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from fedmoe import autodiff, data, federation, optim

# ops reported one by one; every other differentiable op is folded into "other"
REPORTED_OPS = ("matmul", "add", "mul", "scale", "layer_norm", "gelu", "softmax",
                "dropout", "gather_rows", "sparse_matmul", "cross_entropy", "select",
                "swapaxes", "reshape")
ALL_OPS = REPORTED_OPS + ("sub", "concat_last", "slice_rows", "take_along_last",
                          "tsum", "tmean", "tlog", "stop_gradient")

# (owner, attribute, span name); owners are modules or classes
_TARGETS = (
    (federation, "backward", "autodiff.backward"),
    (federation, "encode_pair", "expert.encode_pair"),
    (federation, "encode_batch", "expert.encode_batch"),
    (federation, "lookup_table", "expert.lookup_table"),
    (federation, "rec_loss", "expert.rec_loss"),
    (federation, "contrastive_loss", "expert.contrastive_loss"),
    (federation, "gate_forward", "moe.gate_forward"),
    (federation, "fuse", "moe.fuse"),
    (federation, "moe_loss", "moe.moe_loss"),
    (federation, "augment_batch", "data.augment_batch"),
    (data, "generate_synthetic", "data.generate_synthetic"),
    (federation, "checkpoint_from_params", "checkpoint.from_params"),
    (federation, "load_into_params", "checkpoint.load_into_params"),
    (federation, "rank_target", "evaluation.rank_target"),
    (federation, "compute_metrics", "evaluation.compute_metrics"),
    (federation, "client_update", "federation.client_update"),
    (federation, "client_losses", "federation.client_losses"),
    (federation, "_local_branch_losses", "federation.client_losses"),
    (federation, "fedavg_aggregate", "federation.fedavg_aggregate"),
    (federation, "evaluate_all", "federation.evaluate_all"),
    (federation.ClientState, "sync", "federation.sync"),
    (federation.ClientState, "snapshot_parameters", "federation.snapshot_parameters"),
    (federation.ServerCache, "put", "federation.cache_put"),
    (optim.Adam, "step", "optim.adam_step"),
)

MB = 1024.0 * 1024.0


class _TimedBackward:
    """Stands in for a tape node's backward_fn and records one span per call."""

    __slots__ = ("tracer", "name", "fn")

    def __init__(self, tracer: "Tracer", name: str, fn):
        self.tracer, self.name, self.fn = tracer, name, fn

    def __call__(self, grad):
        return self.tracer.call(self.name, self.fn, (grad,), {})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def clear(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def call(self, name, fn, args, kwargs):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        after = _AFTER.get(name)

        def wrapper(*args, **kwargs):
            out = self.call(name, fn, args, kwargs)
            if after is not None:
                after(self.counters, args, kwargs)
            return out

        return wrapper

    def _op(self, name, fn):
        def wrapper(*args, **kwargs):
            tape = autodiff.active_tape()
            before = len(tape.nodes) if tape is not None else 0
            out = self.call(name, fn, args, kwargs)
            if tape is not None and len(tape.nodes) > before:
                node = tape.nodes[-1]
                # composite ops (sub, tmean) end on a node their inner op already wrapped
                if not isinstance(node.backward_fn, _TimedBackward):
                    node.backward_fn = _TimedBackward(self, name + ".bwd", node.backward_fn)
            return out

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _TARGETS:
            if attr in vars(owner):
                self._patch(owner, attr, self._span(name, vars(owner)[attr]))
        for op in ALL_OPS:
            if hasattr(autodiff, op):
                self._patch(autodiff, op, self._op(f"autodiff.{op}", getattr(autodiff, op)))

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds, durations.

        Also the seconds covered by top-level spans (those with no parent).
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl": 0.0, "self": 0.0,
                                                   "durations": []})
        top = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            entry = out[name]
            entry["calls"] += 1
            entry["incl"] += dur
            entry["self"] += dur - child[i]
            entry["durations"].append(dur)
            if parent < 0:
                top += dur
        return {"spans": dict(out), "top_level_s": top, "counters": dict(self.counters)}


def _after_backward(counters, args, kwargs):
    tape = kwargs.get("tape", args[1] if len(args) > 1 else None) or autodiff.active_tape()
    nodes = tape.nodes
    counters["tape_nodes"] += len(nodes)
    counters["tape_bytes"] += sum(n.out.data.nbytes for n in nodes)
    counters["grad_nodes"] += sum(n.out.grad is not None for n in nodes)


def _after_adam(counters, args, kwargs):
    opt = args[0]
    counters["trainable_bytes"] += sum(p.data.nbytes for p in opt.params
                                       if p.trainable and p.tensor.grad is not None)


def _after_put(counters, args, kwargs):
    ckpt = kwargs.get("ckpt", args[2] if len(args) > 2 else None)
    counters["upload_bytes"] += len(ckpt.to_bytes())


_AFTER = {"autodiff.backward": _after_backward, "optim.adam_step": _after_adam,
          "federation.cache_put": _after_put}


def _sum(summaries, name, key):
    return sum(s["spans"].get(name, {}).get(key, 0) for s in summaries)


def layer_metrics(summaries: list[dict], generate_s: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each the mean over the traced units.

    Ops report self time (``sub`` and ``tmean`` nest ``add``, ``scale`` and
    ``tsum``); every other span reports inclusive time.
    """
    k = len(summaries)

    def per_unit(name, key="incl"):
        return _sum(summaries, name, key) / k

    def counter(key):
        return sum(s["counters"].get(key, 0.0) for s in summaries)

    m: dict[str, tuple[float, str]] = {}

    steps = _sum(summaries, "autodiff.backward", "calls")
    m["autodiff.backward_s"] = (per_unit("autodiff.backward"), "s")
    other_ops = [op for op in ALL_OPS if op not in REPORTED_OPS]
    for label, ops in [(op, [op]) for op in REPORTED_OPS] + [("other", other_ops)]:
        m[f"autodiff.{label}.fwd_s"] = (sum(per_unit(f"autodiff.{op}", "self") for op in ops), "s")
        m[f"autodiff.{label}.bwd_s"] = (sum(per_unit(f"autodiff.{op}.bwd", "self") for op in ops), "s")
        m[f"autodiff.{label}.calls"] = (sum(per_unit(f"autodiff.{op}", "calls") for op in ops), "count")
    m["autodiff.tape_nodes_per_step"] = (counter("tape_nodes") / steps if steps else 0.0, "count")
    m["autodiff.tape_mb_per_step"] = (counter("tape_bytes") / MB / steps if steps else 0.0, "MB")
    nodes = counter("tape_nodes")
    m["autodiff.grad_node_share"] = (counter("grad_nodes") / nodes if nodes else 0.0, "ratio")

    for fn in ("encode_pair", "encode_batch", "lookup_table", "rec_loss", "contrastive_loss"):
        m[f"expert.{fn}_s"] = (per_unit(f"expert.{fn}"), "s")
    for fn in ("gate_forward", "fuse", "moe_loss"):
        m[f"moe.{fn}_s"] = (per_unit(f"moe.{fn}"), "s")
        m[f"moe.{fn}.calls"] = (per_unit(f"moe.{fn}", "calls"), "count")

    adam_steps = _sum(summaries, "optim.adam_step", "calls")
    m["optim.adam_step_s"] = (per_unit("optim.adam_step"), "s")
    m["optim.adam_steps"] = (adam_steps / k, "count")
    m["optim.trainable_mb"] = (counter("trainable_bytes") / MB / adam_steps if adam_steps else 0.0,
                               "MB")

    m["data.augment_batch_s"] = (per_unit("data.augment_batch"), "s")
    m["data.generate_synthetic_s"] = (statistics.median(generate_s), "s")

    m["checkpoint.from_params_s"] = (per_unit("checkpoint.from_params"), "s")
    m["checkpoint.load_into_params_s"] = (per_unit("checkpoint.load_into_params"), "s")
    m["checkpoint.upload_bytes"] = (counter("upload_bytes") / k, "B")

    updates = [d for s in summaries
               for d in s["spans"].get("federation.client_update", {}).get("durations", [])]
    m["federation.client_update_p50_s"] = (statistics.median(updates) if updates else 0.0, "s")
    m["federation.client_update_max_s"] = (max(updates, default=0.0), "s")
    for fn in ("client_losses", "sync", "fedavg_aggregate", "snapshot_parameters",
               "evaluate_all"):
        m[f"federation.{fn}_s"] = (per_unit(f"federation.{fn}"), "s")
    m["federation.sync.calls"] = (per_unit("federation.sync", "calls"), "count")
    m["federation.steps"] = (steps / k, "count")

    m["evaluation.rank_target_s"] = (per_unit("evaluation.rank_target"), "s")
    m["evaluation.rank_target_calls"] = (per_unit("evaluation.rank_target", "calls"), "count")
    m["evaluation.compute_metrics_s"] = (per_unit("evaluation.compute_metrics"), "s")
    return m
