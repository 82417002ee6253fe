"""Span tracer for the traced run (``--trace 1``).

Spans come only from this file: ``install`` rebinds the public layer
functions in each importing module's namespace (``network.conv3d`` and
``nrm.conv3d`` are separate bindings of ``nnops.conv3d``) to wrappers
that record a span around the call.  ``src/diffumamba`` is not edited.

A span is ``[name, start, end, parent, step, origin]``: ``parent`` is
the span open when it started, ``step`` the traced op's index and
``origin`` is None for a call span.  Backward work is attributed by
walking the tape from a layer's output back to its inputs when the
layer returns; every node met that no inner layer already owns gets
its backward closure wrapped.  When that closure runs during
``Tensor.backward`` it records a span whose ``origin`` is the forward
span that created the node, so a layer's ``bwd_s`` is the time spent
in the closures of the nodes its forward span created.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import time
from collections import defaultdict

from diffumamba import data, metrics, network, nrm, ssm, tensor, train

now = time.perf_counter

WALK = "trace.walk"          # the tracer's own graph walks and counting
BACKWARD = "tensor.backward"
CONV = "nnops.conv3d"
MODEL_FORWARD = "network.Network.forward"

# (namespace, attribute, layer name, creates tape nodes)
BINDINGS = [
    (network, "conv3d", CONV, True),
    (nrm, "conv3d", CONV, True),
    (network, "conv_transpose3d", "nnops.conv_transpose3d", True),
    (network, "instance_norm", "nnops.instance_norm", True),
    (network, "leaky_relu", "nnops.leaky_relu", True),
    (nrm, "relu", "nnops.relu", True),
    (nrm, "adaptive_avg_pool3d", "nnops.adaptive_avg_pool3d", True),
    (train, "dice_ce_loss", "nnops.dice_ce_loss", True),
    (network, "mamba_block", "ssm.mamba_block", True),
    (nrm, "mamba_block", "ssm.mamba_block", True),
    (ssm, "selective_scan_t", "ssm.selective_scan_t", True),
    (network, "nrm_forward", "nrm.nrm_forward", True),
    (nrm, "downsample_stage", "nrm.downsample_stage", True),
    (network, "residual_block", "network.residual_block", True),
    (network.Network, "forward", MODEL_FORWARD, True),
    (train, "save_checkpoint", "network.save_checkpoint", False),
    (network, "load_checkpoint", "network.load_checkpoint", False),
    (data, "gen_phantoms", "data.gen_phantoms", False),
    (metrics, "predict_labels", "metrics.predict_labels", False),
    (metrics, "evaluate_masks", "metrics.evaluate_masks", False),
    (metrics, "hd95", "metrics.hd95", False),
    (metrics, "evaluate_model", "metrics.evaluate_model", False),
    (metrics, "perturbation_grid", "metrics.perturbation_grid", False),
    (train, "train_run", "train.train_run", False),
    (train.SGD, "step", "train.SGD.step", False),
    (train.SGD, "grad_norm", "train.SGD.grad_norm", False),
]
# layers whose forward builds tape nodes report fwd_s/bwd_s, the rest s
TAPED = sorted({name for _, _, name, taped in BINDINGS if taped})
UNTAPED = sorted({name for _, _, name, taped in BINDINGS if not taped}
                 | {"data.noise_hook"})


def _tensors(obj, depth=0):
    """Tensors reachable from call arguments or results (shallow)."""
    if isinstance(obj, tensor.Tensor):
        yield obj
    elif depth > 3:
        return
    elif isinstance(obj, (list, tuple)):
        for o in obj:
            yield from _tensors(o, depth + 1)
    elif isinstance(obj, dict):
        for o in obj.values():
            yield from _tensors(o, depth + 1)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _tensors(getattr(obj, f.name), depth + 1)


def _conv_work(x, p, out):
    """Computed FLOPs and compulsory bytes of one conv3d, forward and backward.

    Counts the multiply-adds of the GEMM view (2 * M * K * C_out) and
    the bytes of every array the op reads or writes at its interface;
    im2col buffers and cache misses are not counted.
    """
    c_out = p.weight.shape[0]
    k = p.weight.size // c_out
    m = out.size // c_out
    item = out.dtype.itemsize
    gemm = 2.0 * m * k * c_out
    fwd = (gemm, (x.size + p.weight.size + out.size) * item)
    dx = x.requires_grad or bool(x._parents)
    bwd = (gemm * (2 if dx else 1) + m * c_out,
           (out.size + x.size * (2 if dx else 1) + 2 * p.weight.size) * item)
    return fwd, bwd


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.step = 0
        self.owner = {}            # id(node) -> (forward span index, node)
        self.inputs_of = {}        # forward span index -> its non-leaf input tensors
        self.claimed = {}          # forward span index -> nodes it created
        self.pending_work = {}     # id(conv output node) -> backward work
        self.work = defaultdict(float)
        self.tape_nodes = []       # per Tensor.backward call
        self.unowned_nodes = 0     # closures that ran outside every layer
        self._saved = []

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        self.spans.append([name, now(), None, self.stack[-1] if self.stack else None,
                           self.step, None])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = now()
        self.stack.pop()

    def _call(self, fn, name, taped, args, kwargs):
        idx = self._open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._close(idx)
        if taped:
            w = self._open(WALK)
            if name == CONV:
                self._count_conv(args, out)
            self._claim(idx, out, args, kwargs)
            self._close(w)
        return out

    def _wrap(self, fn, name, taped):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(fn, name, taped, args, kwargs)
        return traced

    # -- backward attribution ----------------------------------------------

    def _claim(self, idx, out, args, kwargs):
        roots = [t for t in _tensors(out) if t._parents]
        if not roots:
            return
        given = [t for t in _tensors((args, kwargs)) if t._parents]
        self.inputs_of[idx] = given
        inputs = {id(t) for t in given}
        seen = set()
        todo = roots
        created = 0
        while todo:
            node = todo.pop()
            key = id(node)
            if key in seen or key in inputs or not node._parents:
                continue
            seen.add(key)
            rec = self.owner.get(key)
            if rec is None:
                self.owner[key] = (idx, node)
                created += 1
                fn = node._backward_fn
                if fn is not None:
                    node._backward_fn = functools.partial(
                        self._run_backward, fn, idx, self.pending_work.pop(key, None))
            elif rec[0] < idx:
                continue           # made before this span opened: not ours
            else:                  # made by a layer this one called: skip
                todo.extend(self.inputs_of[rec[0]])     # to that layer's inputs
                continue
            todo.extend(node._parents)
        self.claimed[idx] = created

    def _run_backward(self, fn, origin, work, g):
        t0 = now()
        fn(g)
        t1 = now()
        self.spans.append([self.spans[origin][0], t0, t1, self.stack[-1], self.step, origin])
        if work is not None:
            self.work["conv_flop"] += work[0]
            self.work["conv_byte"] += work[1]

    def _count_conv(self, args, out):
        fwd, bwd = _conv_work(args[0], args[1], out)
        self.work["conv_flop"] += fwd[0]
        self.work["conv_byte"] += fwd[1]
        if out._parents:
            self.pending_work[id(out)] = bwd

    def _count_tape(self, root):
        seen, todo = set(), [root]
        nodes = unowned = 0
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            fn = node._backward_fn
            if fn is not None:
                nodes += 1
                unowned += not (isinstance(fn, functools.partial)
                                and fn.func == self._run_backward)
            todo.extend(node._parents)
        self.tape_nodes.append(nodes)
        self.unowned_nodes += unowned

    def _traced_backward(self, orig):
        tracer = self

        @functools.wraps(orig)
        def backward(root):
            w = tracer._open(WALK)
            tracer._count_tape(root)
            tracer._close(w)
            idx = tracer._open(BACKWARD)
            try:
                orig(root)
            finally:
                tracer._close(idx)
                tracer._forget()
        return backward

    def _traced_noise_hook(self, orig):
        @functools.wraps(orig)
        def noise_hook(spec):
            return self._wrap(orig(spec), "data.noise_hook", False)
        return noise_hook

    # -- install -----------------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = [(owner, attr, self._wrap(getattr(owner, attr), name, taped))
                   for owner, attr, name, taped in BINDINGS]
        targets.append((metrics, "noise_hook", self._traced_noise_hook(metrics.noise_hook)))
        targets.append((tensor.Tensor, "backward",
                        self._traced_backward(tensor.Tensor.backward)))
        for owner, attr, wrapper in targets:
            self._saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        self._forget()

    def _forget(self):
        """Drop the references that keep a finished graph alive."""
        self.owner.clear()
        self.inputs_of.clear()
        self.pending_work.clear()

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "start", "end", "parent", "step", "origin"])
            for s in self.spans:
                w.writerow([s[0], f"{s[1]:.9f}", f"{s[2]:.9f}",
                            "" if s[3] is None else s[3], s[4],
                            "" if s[5] is None else s[5]])

    def summarize(self, window_s, n_ops):
        """Per-layer table per traced op.

        Inclusive forward time excludes the tracer's own walks; backward
        time of a layer includes the closures of nodes made by the
        layers it called.  Self times, the walks and ``unattributed_s``
        sum to the traced window.
        """
        spans = self.spans
        child = defaultdict(float)
        walk_in = defaultdict(float)
        for s in spans:
            p, d = s[3], s[2] - s[1]
            if p is not None:
                child[p] += d
            if s[0] == WALK:
                while p is not None:
                    walk_in[p] += d
                    p = spans[p][3]

        chains = {}

        def chain(i):
            if i not in chains:
                names, j = set(), i
                while j is not None:
                    names.add(spans[j][0])
                    j = spans[j][3]
                chains[i] = names
            return chains[i]

        self_s = defaultdict(float)
        incl = defaultdict(float)
        bwd = defaultdict(float)
        calls = defaultdict(int)
        top = 0.0
        for i, s in enumerate(spans):
            d = s[2] - s[1]
            self_s[s[0]] += d - child[i]
            if s[3] is None:
                top += d
            if s[5] is None:
                incl[s[0]] += d - walk_in[i]
                calls[s[0]] += 1
            else:
                for name in chain(s[5]):
                    bwd[name] += d

        unattributed = window_s - top
        residual = window_s - (sum(self_s.values()) + unattributed)
        scan_calls = [n for i, n in self.claimed.items()
                      if spans[i][0] == "ssm.selective_scan_t" and n]

        per = 1.0 / n_ops
        out = {}
        for name in TAPED:
            # the model entry point's forward is its whole call: ".s"
            fwd_key = f"{name}.s" if name == MODEL_FORWARD else f"{name}.fwd_s"
            out[fwd_key] = (incl[name] * per, "s")
            out[f"{name}.bwd_s"] = (bwd[name] * per, "s")
            out[f"{name}.self_s"] = (self_s[name] * per, "s")
        for name in UNTAPED:
            out[f"{name}.s"] = (incl[name] * per, "s")
            out[f"{name}.self_s"] = (self_s[name] * per, "s")
        conv_s = incl[CONV] + bwd[CONV]
        out.update({
            "tensor.backward_s": (incl[BACKWARD] * per, "s"),
            "tensor.backward.self_s": (self_s[BACKWARD] * per, "s"),
            "tensor.tape_nodes": (sum(self.tape_nodes) / len(self.tape_nodes)
                                  if self.tape_nodes else 0, "count"),
            "ssm.selective_scan_t.tape_nodes": (sum(scan_calls) / len(scan_calls)
                                                if scan_calls else 0, "count"),
            f"{CONV}.calls": (calls[CONV] * per, "count"),
            f"{CONV}.gflop": (self.work["conv_flop"] * per / 1e9, "GFLOP"),
            f"{CONV}.gbyte": (self.work["conv_byte"] * per / 1e9, "GB"),
            f"{CONV}.gflop_per_s": (self.work["conv_flop"] / 1e9 / conv_s if conv_s else 0.0,
                                    "GFLOP/s"),
            "trace.walk.self_s": (self_s[WALK] * per, "s"),
            "unattributed_s": (unattributed * per, "s"),
        })
        check = {"window_s": window_s, "ops": n_ops, "top_level_s": top,
                 "self_sum_plus_unattributed_s": sum(self_s.values()) + unattributed,
                 "residual_s": residual, "spans": len(spans),
                 "backward_calls": len(self.tape_nodes)}
        return out, check
