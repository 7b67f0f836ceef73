"""Span tracer for the benchmark's traced runs.

The tracer wraps mclab's public functions where the calling module looks
them up (a module global, a class attribute or a ``GENERATORS`` entry), so
the library itself is not modified. Each call records one span: name,
start, end, parent span and, for the distance and walk layers, the size of
the state space. Spans stay in flat in-memory arrays during the run and are
written once, at exit. A layer's self time is its span's duration minus the
durations of its direct children; calls nest strictly because the benchmark
runs single-threaded.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


def _matrix_rows(args) -> int:
    return int(args[0].shape[0])


def _sequence_states(args) -> int:
    return int(args[0].space.size)


def _layer_sites(mclab) -> list[tuple[object, str, str, object]]:
    """``(owner, attribute, span name, size function)`` for every wrapped call."""
    m = mclab
    zoo_sites = [(owner, attr, "zoo." + attr, None)
                 for owner, names in (
                     (m.scenarios, ("constant_rate_bd", "general_bd", "perturbed_stick_pair",
                                    "lazy_stick", "random_weights", "graph_kernel")),
                     (m.cli, ("constant_rate_bd", "perturbed_stick_pair", "lazy_stick",
                              "random_weights", "graph_kernel")),
                     (m.spectral, ("graph_kernel",)))
                 for attr in names]
    rng_sites = [(owner, "substream", "rng.substream", None)
                 for owner in (m.rng, m.scenarios, m.zoo, m.stability)]
    return [
        (m.chain_core.KernelSequence, "kernel_at", "chain_core.kernel_at", None),
        (m.merging, "product", "chain_core.product", None),
        (m.singular, "evolve", "chain_core.evolve", None),
        (m.scenarios, "first_passage", "merging.first_passage", _sequence_states),
        (m.cli, "merging_time", "merging.merging_time", _sequence_states),
        (m.merging, "tv_between_rows", "merging.tv_between_rows", _matrix_rows),
        (m.merging, "relsup_between_rows", "merging.relsup_between_rows", _matrix_rows),
        (m.merging, "contraction_coefficient", "merging.contraction_coefficient", None),
        (m.merging, "doeblin_bound", "merging.doeblin_bound", None),
        # merging_time builds its block certificate through this helper; it
        # is the block-contraction bound as the merging layer computes it
        (m.merging, "_block_trajectory", "merging.block_contraction_bound", None),
        (m.cli, "singular_value_bounds", "singular.singular_value_bounds", None),
        (m.singular, "step_sigma", "singular.step_sigma", None),
        (m.cli, "ratio_envelope", "stability.ratio_envelope", None),
        (m.cli, "comparison_check", "spectral.comparison_check", None),
        (m.cli, "srw_spectrum", "spectral.srw_spectrum", None),
        (m.spectral, "srw_spectrum", "spectral.srw_spectrum", None),
        (m.scenarios, "run_scenario", "scenarios.run_scenario", None),
        (m.cli, "main", "cli.main", None),
        *zoo_sites,
        *rng_sites,
    ]


class Tracer:
    """Records nested spans around wrapped callables while patches are installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.size = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object, bool]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, size_of=None):
        nid = self._id(name)
        clock = time.perf_counter
        name_id, parent, size, start, end, stack = (
            self.name_id, self.parent, self.size, self.start, self.end, self._stack)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            size.append(size_of(args) if size_of is not None else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self, mclab) -> None:
        """Wrap every layer site; ``GENERATORS`` entries become ``scenarios.generate``."""
        for owner, attr, name, size_of in _layer_sites(mclab):
            self._undo.append((owner, attr, getattr(owner, attr), False))
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), size_of))
        generators = mclab.scenarios.GENERATORS
        for family, fn in list(generators.items()):
            self._undo.append((generators, family, fn, True))
            generators[family] = self.wrap("scenarios.generate", fn)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original, is_item = self._undo.pop()
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "size": np.frombuffer(self.size, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str), **self.arrays())

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics over every span recorded so far."""
        a = self.arrays()
        nid, parent, size = a["name_id"], a["parent"], a["size"]
        dur = a["end"] - a["start"]
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        n_names = len(self.names)
        self_s = np.bincount(nid, weights=own, minlength=n_names) / passes
        calls = np.bincount(nid, minlength=n_names) / passes

        def ident(name):  # -2 matches neither a span nor the root marker -1
            return self._ids.get(name, -2)

        def s(name):
            i = ident(name)
            return float(self_s[i]) if i >= 0 else 0.0

        def c(name):
            i = ident(name)
            return float(calls[i]) if i >= 0 else 0.0

        parent_name = np.where(nested, nid[np.maximum(parent, 0)], -1)
        parent_size = np.where(nested, size[np.maximum(parent, 0)], 0).astype(np.float64)
        kernel_at = nid == ident("chain_core.kernel_at")
        walk_step = kernel_at & np.isin(parent_name, [ident("merging.first_passage"),
                                                      ident("merging.merging_time")])
        tv = nid == ident("merging.tv_between_rows")

        def tv_us_per_call(states: int) -> float:
            sel = tv & (size == states)
            return float(own[sel].mean() * 1e6) if sel.any() else 0.0

        # Dense operation counts computed from state-space sizes, not
        # measured: a walk step is an n x n matmul (2 n^3) plus the row
        # renormalisation (2 n^2); the worst-pair TV kernel does a subtract,
        # abs and add per entry of every row pair, 3 n^3 in its broadcast
        # branch (n <= 128) and 3 n^2 (n - 1) / 2 in its row loop.
        n = parent_size[walk_step]
        product_flops = float((2 * n ** 3 + 2 * n ** 2).sum()) / passes
        n = size[tv].astype(np.float64)
        tv_flops = float(np.where(n <= 128, 3 * n ** 3, 1.5 * n * n * (n - 1)).sum()) / passes

        zoo_self = sum(float(self_s[i]) for name, i in self._ids.items() if name.startswith("zoo."))
        return {
            "chain_core.kernel_at.calls": c("chain_core.kernel_at"),
            "chain_core.kernel_at.self_s": s("chain_core.kernel_at"),
            "chain_core.product.calls": c("chain_core.product"),
            "chain_core.product.self_s": s("chain_core.product"),
            "chain_core.evolve.self_s": s("chain_core.evolve"),
            "merging.first_passage.calls": c("merging.first_passage"),
            "merging.first_passage.self_s": s("merging.first_passage"),
            "merging.first_passage.kernel_steps": float(
                (kernel_at & (parent_name == ident("merging.first_passage"))).sum()) / passes,
            "merging.merging_time.self_s": s("merging.merging_time"),
            "merging.tv_between_rows.calls": c("merging.tv_between_rows"),
            "merging.tv_between_rows.self_s": s("merging.tv_between_rows"),
            "merging.tv_between_rows.us_per_call.N64": tv_us_per_call(65),
            "merging.tv_between_rows.us_per_call.N256": tv_us_per_call(257),
            "merging.relsup_between_rows.calls": c("merging.relsup_between_rows"),
            "merging.relsup_between_rows.self_s": s("merging.relsup_between_rows"),
            "merging.contraction_coefficient.calls": c("merging.contraction_coefficient"),
            "merging.contraction_coefficient.self_s": s("merging.contraction_coefficient"),
            "merging.doeblin_bound.self_s": s("merging.doeblin_bound"),
            "merging.block_contraction_bound.self_s": s("merging.block_contraction_bound"),
            "merging.product_step.flops_computed": product_flops,
            "merging.tv.flops_computed": tv_flops,
            "singular.singular_value_bounds.self_s": s("singular.singular_value_bounds"),
            "singular.step_sigma.calls": c("singular.step_sigma"),
            "singular.step_sigma.self_s": s("singular.step_sigma"),
            "stability.ratio_envelope.self_s": s("stability.ratio_envelope"),
            "spectral.comparison_check.self_s": s("spectral.comparison_check"),
            "spectral.srw_spectrum.self_s": s("spectral.srw_spectrum"),
            "scenarios.run_scenario.self_s": s("scenarios.run_scenario"),
            "scenarios.generate.self_s": s("scenarios.generate"),
            "scenarios.points": c("scenarios.generate"),
            "zoo.self_s": zoo_self,
            "rng.substream.calls": c("rng.substream"),
            "rng.substream.self_s": s("rng.substream"),
            "cli.main.self_s": s("cli.main"),
            "bench.pass.self_s": s("bench.pass"),
        }
