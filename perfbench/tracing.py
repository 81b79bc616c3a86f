"""Per-layer tracing by replacing the package's module attributes.

Every public function of each layer module is wrapped, and the wrapper is
put in place of the original wherever a ``polyshift`` module holds it, so
calls through names imported into another module (``cli``, ``socle`` and
``fuzzlab`` import ``betti_table``) and calls inside one module (``betti_table``
calls ``lcm_lattice``) are both seen.  ``MonomialIdeal.__init__`` is wrapped
to count ideal constructions.

A span is (name, start, end, parent span, item id, nested), kept in memory
in flat arrays; ``nested`` marks a call made inside a call of the same
function, so recursive calls are not counted twice in inclusive times.
Counts that need an argument or a result (lattice points, matrix sizes) are
taken by hooks after the call returns.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "textio", "fuzzlab", "families", "quotients", "socle", "oracle", "_kernels", "monomials")


def layer_name(module: str) -> str:
    return module.lstrip("_")


def _hook_lattice(counts, args, out):
    counts["oracle.lattice_points"] += len(out)


def _hook_koszul(counts, args, out):
    counts["oracle.faces"] += len(out.face_masks)


def _hook_homology(counts, args, out):
    if out:
        counts["oracle.frames_nonzero"] += 1


def _hook_contains(counts, args, out):
    m, n = np.shape(args[0])
    counts["kernels.contains_cells"] += np.shape(args[1])[0] * m * n


def _hook_rank(counts, args, out):
    rows, cols = np.shape(args[0])
    counts["kernels.rank_entries"] += rows * cols
    # the elimination updates the rows below each pivot across all columns
    counts["kernels.rank_ops"] += cols * (out * rows - out * (out + 1) // 2)
    counts["kernels.rank_max_rows"] = max(counts["kernels.rank_max_rows"], rows)
    counts["kernels.rank_max_cols"] = max(counts["kernels.rank_max_cols"], cols)


def _hook_exchange(counts, args, out):
    m = args[0].num_gens
    counts["families.exchange_pairs"] += m * (m - 1)


HOOKS = {
    "oracle.lcm_lattice": _hook_lattice,
    "oracle.upper_koszul": _hook_koszul,
    "oracle.reduced_homology_ranks": _hook_homology,
    "kernels.contains_mask": _hook_contains,
    "kernels.rank_mod_p": _hook_rank,
    "families.check_exchange": _hook_exchange,
}


class Tracer:
    """Installs wrappers on the layer modules and records spans and counts."""

    def __init__(self):
        self.item = -1
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.item_id = array("i")
        self.nested = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for column in (self.name, self.parent, self.item_id, self.nested, self.start, self.end):
            del column[:]
        self.counts.clear()
        self.item = -1

    def _wrap(self, span: str, fn):
        nid = len(self.names)
        self.names.append(span)
        self._active.append(0)
        hook = HOOKS.get(span)
        name, parent, item_id, nested = self.name, self.parent, self.item_id, self.nested
        start, end, stack, active, counts = self.start, self.end, self._stack, self._active, self.counts
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            item_id.append(tracer.item)
            nested.append(1 if active[nid] else 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            active[nid] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                start[i] = t0
                end[i] = t1
                stack.pop()
                active[nid] -= 1
            if hook is not None:
                hook(counts, args, out)
            return out

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for module_name in LAYERS:
            module = importlib.import_module(f"polyshift.{module_name}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{layer_name(module_name)}.{attr}", obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "polyshift" and not module_name.startswith("polyshift."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        ideal = importlib.import_module("polyshift.monomials").MonomialIdeal
        self._patches.append((ideal, "__init__", ideal.__init__))
        ideal.__init__ = self._wrap("monomials.ideal_init", ideal.__init__)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> "Trace":
        return Trace(
            list(self.names),
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.item_id, dtype=np.int32).copy(),
            np.frombuffer(self.nested, dtype=np.int8).astype(bool),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
            Counter(self.counts),
        )


class Trace:
    """The spans and counts of one traced pass, as arrays."""

    def __init__(self, names, name, parent, item_id, nested, start, end, counts):
        self.names = names
        self.name = name
        self.parent = parent
        self.item_id = item_id
        self.nested = nested
        self.start = start
        self.end = end
        self.counts = counts
        self.duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=self.duration[has_parent], minlength=len(name)
        )
        self.self_time = self.duration - covered

    def _id(self, span: str) -> int:
        return self.names.index(span)

    def calls(self, span: str) -> int:
        return int(np.count_nonzero(self.name == self._id(span)))

    def outer_calls(self, span: str) -> int:
        """Calls of ``span`` not made inside another call of it."""
        return int(np.count_nonzero((self.name == self._id(span)) & ~self.nested))

    def inclusive_s(self, span: str) -> float:
        """Time in outermost calls of ``span``."""
        mask = (self.name == self._id(span)) & ~self.nested
        return float(self.duration[mask].sum())

    def self_s(self, span: str) -> float:
        return float(self.self_time[self.name == self._id(span)].sum())

    def layer_self_s(self, layer: str) -> float:
        per_name = np.bincount(self.name, weights=self.self_time, minlength=len(self.names))
        return float(sum(t for s, t in zip(self.names, per_name) if s.split(".")[0] == layer))

    def calls_under(self, span: str, parent_span: str) -> int:
        """Calls of ``span`` made directly by ``parent_span``."""
        mine = self.name == self._id(span)
        parents = self.parent[mine]
        parents = parents[parents >= 0]
        return int(np.count_nonzero(self.name[parents] == self._id(parent_span)))

    def call_counts(self) -> dict[str, int]:
        """Calls per span name plus every hook count; equal across repeats."""
        per_name = np.bincount(self.name, minlength=len(self.names))
        out = {s: int(c) for s, c in zip(self.names, per_name)}
        out.update({k: int(v) for k, v in self.counts.items()})
        return out

    def top_self(self, k: int = 8) -> list[tuple[str, float]]:
        per_name = np.bincount(self.name, weights=self.self_time, minlength=len(self.names))
        order = np.argsort(per_name)[::-1][:k]
        return [(self.names[i], float(per_name[i])) for i in order]

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=self.name,
            parent=self.parent,
            item=self.item_id,
            nested=self.nested,
            start=self.start,
            end=self.end,
        )


# (name, unit); order is the order of BENCHMARK.json's per_layer list
PER_LAYER = [
    ("oracle.lcm_lattice_s", "s"),
    ("oracle.lattice_points", "count"),
    ("oracle.upper_koszul_s", "s"),
    ("oracle.frames", "count"),
    ("oracle.faces", "count"),
    ("kernels.contains_mask_s", "s"),
    ("kernels.contains_mask.calls", "count"),
    ("kernels.contains_cells", "count"),
    ("oracle.reduced_homology_self_s", "s"),
    ("oracle.frames_nonzero", "count"),
    ("oracle.nonzero_frame_ratio", "ratio"),
    ("kernels.rank_mod_p_s", "s"),
    ("kernels.rank_mod_p.calls", "count"),
    ("kernels.rank_entries", "count"),
    ("kernels.rank_ops", "count"),
    ("kernels.rank_max_rows", "count"),
    ("kernels.rank_max_cols", "count"),
    ("oracle.betti_table.calls", "count"),
    ("oracle.tables_per_item", "ratio"),
    ("socle.max_pd_s", "s"),
    ("families.check_exchange_s", "s"),
    ("families.check_exchange.calls", "count"),
    ("families.exchange_pairs", "count"),
    ("families.random_polymatroidal_s", "s"),
    ("families.realize.calls", "count"),
    ("families.draw_yield", "ratio"),
    ("quotients.certify_lex_s", "s"),
    ("quotients.certify_lex.calls", "count"),
    ("quotients.homological_shift_s", "s"),
    ("quotients.homological_shift.calls", "count"),
    ("quotients.shifts_by_distance_s", "s"),
    ("quotients.shifts_by_distance.calls", "count"),
    ("socle.socle_colon_s", "s"),
    ("socle.socle_colon.calls", "count"),
    ("socle.socle_exchange_s", "s"),
    ("socle.socle_exchange.calls", "count"),
    ("monomials.ideal_init_s", "s"),
    ("monomials.ideal_init.calls", "count"),
    ("textio.parse_ideal_s", "s"),
    ("fuzzlab.check_instance_self_s", "s"),
] + [(f"{layer_name(m)}.self_s", "s") for m in LAYERS] + [
    ("trace.spans", "count"),
    ("trace.overhead_ratio", "ratio"),
]


# spans whose time in outermost calls is reported as <span>_s
INCLUSIVE = (
    "oracle.lcm_lattice", "oracle.upper_koszul", "kernels.contains_mask",
    "kernels.rank_mod_p", "socle.max_pd", "families.check_exchange",
    "families.random_polymatroidal", "quotients.certify_lex",
    "quotients.homological_shift", "quotients.shifts_by_distance",
    "socle.socle_colon", "socle.socle_exchange", "monomials.ideal_init",
    "textio.parse_ideal",
)
HOOK_COUNTS = (
    "oracle.lattice_points", "oracle.faces", "oracle.frames_nonzero",
    "kernels.contains_cells", "kernels.rank_entries", "kernels.rank_ops",
    "kernels.rank_max_rows", "kernels.rank_max_cols", "families.exchange_pairs",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: Trace, items: int, overhead_ratio: float) -> dict[str, float]:
    """Every PER_LAYER value from one traced pass of ``items`` items."""
    out: dict[str, float] = {f"{span}_s": trace.inclusive_s(span) for span in INCLUSIVE}
    for metric, _ in PER_LAYER:
        if metric.endswith(".calls"):
            out[metric] = trace.calls(metric[: -len(".calls")])
    for module in LAYERS:
        out[f"{layer_name(module)}.self_s"] = trace.layer_self_s(layer_name(module))
    for key in HOOK_COUNTS:
        out[key] = trace.counts.get(key, 0)
    out["oracle.reduced_homology_self_s"] = trace.self_s("oracle.reduced_homology_ranks")
    out["fuzzlab.check_instance_self_s"] = trace.self_s("fuzzlab.check_instance")
    out["oracle.frames"] = trace.calls("oracle.upper_koszul")
    out["oracle.nonzero_frame_ratio"] = _ratio(out["oracle.frames_nonzero"], out["oracle.frames"])
    out["oracle.tables_per_item"] = _ratio(trace.outer_calls("oracle.betti_table"), items)
    # draw attempts: realizations made by the draw itself, not nested ones
    attempts = trace.calls_under("families.realize", "families.random_polymatroidal")
    out["families.realize.calls"] = attempts
    out["families.draw_yield"] = _ratio(trace.calls("families.random_polymatroidal"), attempts)
    out["trace.spans"] = len(trace.name)
    out["trace.overhead_ratio"] = overhead_ratio
    return {metric: out[metric] for metric, _ in PER_LAYER}
