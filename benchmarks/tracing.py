"""Outside-in layer tracing of zenogate.

Every public function of the six modules is wrapped from outside, and the
wrapper is patched in under each name that refers to it in any zenogate
module (``gate`` imports ``mat_power`` by name, ``cli`` imports ``convert``,
``enhancement`` imports ``pump_safe``), so calls are caught where they are
looked up.  Each call records a span (name, start, end, parent, op id) in
compact in-memory arrays; the spans are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

LAYERS = ("numerics", "gate", "absorber", "enhancement", "optimizer", "cli")
OP_SPAN = "bench.op"


def matmul_count(n: int) -> int:
    """Matrix products binary exponentiation makes for m**n."""
    return bin(n).count("1") + max(n.bit_length() - 1, 0) if n > 0 else 0


class Tracer:
    """Span recorder; patch() installs it into the imported zenogate modules."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        # counts computed from the call arguments
        self.matmuls = 0
        self.flops = 0
        self.bytes = 0
        self.trials = 0

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.raised.append(0)
        self._stack.append(i)
        return i

    def _close(self, i: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[i] = t0
        self.end[i] = t1

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as op `op_id` under a root span."""
        self.op_id = op_id
        i = self._open(self._nid(OP_SPAN))
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._close(i, t0, time.perf_counter())

    def wrap(self, name: str, fn, note=None):
        nid = self._nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                note(args, kwargs)
            i = self._open(nid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.raised[i] = 1
                raise
            finally:
                self._close(i, t0, time.perf_counter())

        return traced

    def _note_mat_power(self, args, kwargs):
        m = args[0] if args else kwargs["m"]
        n = int(args[1] if len(args) > 1 else kwargs["n"])
        d = len(m)
        k = matmul_count(n)
        self.matmuls += k
        self.flops += k * 8 * d**3          # complex multiply-add = 8 real flops
        self.bytes += k * 3 * d * d * 16    # two complex operands read, one written

    def _note_trials(self, args, kwargs):
        self.trials += int(args[4] if len(args) > 4 else kwargs["trials"])

    def patch(self) -> None:
        """Wrap the public functions of every layer module; undo with unpatch()."""
        modules = {layer: importlib.import_module(f"zenogate.{layer}") for layer in LAYERS}
        notes = {
            "numerics.mat_power": self._note_mat_power,
            "enhancement.random_phase_sum": self._note_trials,
        }
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, fn, notes.get(name))
                for other in modules.values():
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            self._undo.append((other, other_attr, fn))
                            setattr(other, other_attr, wrapper)

    def unpatch(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def save(self, path) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            raised=np.frombuffer(self.raised, dtype=np.int8),
        )


def self_times(start, end, parent, lo: int = 0, hi: int | None = None) -> list[float]:
    """Self time of spans lo..hi-1: duration minus the union of its children.

    Children are the spans whose parent index points at the span; their
    intervals are clipped to the parent's before the union is taken.  Every
    child must lie in the same index range as its parent.
    """
    hi = len(start) if hi is None else hi
    children = defaultdict(list)
    for i in range(lo, hi):
        if parent[i] >= 0:
            children[parent[i]].append((start[i], end[i]))
    out = []
    for i in range(lo, hi):
        s, e = start[i], end[i]
        covered = 0.0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, s), min(ce, e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((e - s) - covered)
    return out


class LayerTotals:
    """Per-name call counts, inclusive and self seconds, summed over ops."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.raised = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.op_s = 0.0        # traced wall time: sum of op root spans
        self.uncovered_s = 0.0  # part of it no zenogate span covers
        self.ops = 0

    def add(self, tracer: Tracer, lo: int, hi: int) -> None:
        """Fold spans lo..hi-1 (whole ops) into the totals."""
        selfs = self_times(tracer.start, tracer.end, tracer.parent, lo, hi)
        for k, i in enumerate(range(lo, hi)):
            name = tracer.names[tracer.name_id[i]]
            dur = tracer.end[i] - tracer.start[i]
            if name == OP_SPAN:
                self.ops += 1
                self.op_s += dur
                self.uncovered_s += selfs[k]
                continue
            self.calls[name] += 1
            self.raised[name] += tracer.raised[i]
            self.total_s[name] += dur
            self.self_s[name] += selfs[k]

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))
