"""Per-layer timers for the traced run.

The traced run wraps the public functions of each layer (and a few
call sites the layer exposes no public hook for) from the benchmark's
own files: nothing inside ``src/`` records anything for it.  Each
wrapper adds its wall time and call count to a named metric while the
recorder is armed, so set-up and output checks stay out of the
figures.  Nested calls that map to the metric already running count
once (``aes_reference_checksum`` calls ``aes_reference_ciphertext``,
``compiled_graph`` may decode), and the time spent in the recorder's
own bookkeeping hooks is subtracted from every metric running around
them.

``ilp.root_lp_s`` is the ``root_relaxation_seconds`` every solve
reports, moved out of ``ilp.solve_s``.  The ``bnb`` engine times its
own root LP; the default ``highs`` engine solves one only when asked,
so timed solves run with ``SolveOptions.root_relaxation`` set.  That
extra LP is the traced run's main overhead and is why no end-to-end
figure is ever taken from a traced run.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import sys
import time
from collections import defaultdict

#: the fuzz oracle's default config matrix, one timer each.
FUZZ_CONFIGS = (
    "ref",
    "no-opt",
    "ssu-off",
    "sim-compiled",
    "alloc-highs",
    "alloc-bnb",
    "alloc-baseline",
)

#: every per-layer metric the traced run prints, with its unit, in the
#: order of ``per_layer`` in BENCHMARK.json.
PER_LAYER_UNITS = {
    "nova.front_s": "s",
    "cps.passes_s": "s",
    "ixp.select_s": "s",
    "alloc.model_s": "s",
    "alloc.model_vars": "count",
    "alloc.model_rows": "count",
    "alloc.model_nonzeros": "count",
    "ilp.root_lp_s": "s",
    "ilp.solve_s": "s",
    "ilp.solves": "count",
    "ilp.nodes": "count",
    "ilp.objective": "count",
    "ilp.timeouts": "count",
    "alloc.finish_s": "s",
    "alloc.fallbacks": "count",
    "alloc.moves": "count",
    "ixp.tier_build_s": "s",
    "ixp.engine_s": "s",
    "ixp.slices": "count",
    "ixp.instructions_per_slice": "ratio",
    "ixp.net.loop_s": "s",
    "ixp.net.init_s": "s",
    "apps.refimpl_s": "s",
    "sim.ips": "1/s",
    "sim.aes.cycles_per_packet": "cycles",
    "sim.kasumi.cycles_per_packet": "cycles",
    "sim.nat.cycles_per_packet": "cycles",
    "sim.mbps": "Mb/s",
    "sim.latency_p95_cycles": "cycles",
    "sim.mem_stall_cycles": "cycles",
    "sim.engine_imbalance": "ratio",
    "ixp.net.rx_high_water": "count",
    "ixp.net.tx_stalls": "count",
    "fuzz.gen_s": "s",
    **{f"fuzz.config.{name}_s": "s" for name in FUZZ_CONFIGS},
    "netfuzz.check_s": "s",
    "netfuzz.probes_s": "s",
    "trace.wall_s": "s",
    "trace.ops_per_s": "1/s",
}


class LayerRecorder:
    """Wall time, call counts and counters per layer metric."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.rx_high_water = 0
        self.armed = False
        self._running: dict[str, int] = defaultdict(int)
        #: cumulative seconds spent in bookkeeping hooks; every timer
        #: running around a hook subtracts the part it covered.
        self._hook_seconds = 0.0
        #: fuzz seed whose program is being checked (timeout blame).
        self.fuzz_seed: int | None = None
        self.timeout_seeds: dict[int, float] = {}

    # -- wrapping ------------------------------------------------------------

    def timed(self, fn, metric, after=None):
        """``fn`` wrapped to time into ``metric`` (a name, or a callable
        of the call's arguments returning one); ``after(result, args,
        kwargs, seconds)`` runs outside every timer."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.armed:
                return fn(*args, **kwargs)
            name = metric(*args, **kwargs) if callable(metric) else metric
            if recorder._running[name]:
                return fn(*args, **kwargs)
            recorder._running[name] += 1
            hooks_before = recorder._hook_seconds
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = (
                    time.perf_counter()
                    - start
                    - (recorder._hook_seconds - hooks_before)
                )
                recorder._running[name] -= 1
                recorder.seconds[name] += seconds
                recorder.calls[name] += 1
            if after is not None:
                hook_start = time.perf_counter()
                after(result, args, kwargs, seconds)
                recorder._hook_seconds += time.perf_counter() - hook_start
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer entry point the per-layer metrics read."""
        # Modules that copy a wrapped name (``from x import f``) are
        # imported first, so the rebinding below reaches their copies.
        for copier in ("repro.compiler", "repro.fuzz.driver"):
            importlib.import_module(copier)
        config_of_first = lambda config, *a, **k: _config_metric(config)
        config_of_second = lambda comp, config, *a, **k: _config_metric(config)
        for module, name, metric, after in (
            ("repro.nova.parser", "parse_program", "nova.front_s", None),
            ("repro.nova.typecheck", "typecheck_program", "nova.front_s", None),
            ("repro.cps.convert", "cps_convert", "cps.passes_s", None),
            ("repro.cps.deproc", "deproceduralize", "cps.passes_s", None),
            ("repro.cps.optimize", "optimize", "cps.passes_s", None),
            ("repro.cps.ssu", "to_ssu", "cps.passes_s", None),
            ("repro.ixp.select", "select_instructions", "ixp.select_s", None),
            ("repro.alloc.ilpmodel", "build_model", "alloc.model_s", self._after_model),
            ("repro.alloc.allocator", "allocate", "alloc.allocate_s", self._after_allocate),
            ("repro.ilp.solve", "solve_model", "ilp.solve_s", self._after_solve),
            ("repro.ixp.machine", "decoded_graph", "ixp.tier_build_s", None),
            ("repro.ixp.codegen", "compiled_graph", "ixp.tier_build_s", None),
            ("repro.apps.aes_nova", "aes_reference_checksum", "apps.refimpl_s", None),
            ("repro.apps.aes_nova", "aes_reference_ciphertext", "apps.refimpl_s", None),
            ("repro.apps.kasumi_nova", "kasumi_reference_ciphertext", "apps.refimpl_s", None),
            ("repro.apps.kasumi_nova", "kasumi_reference_sum", "apps.refimpl_s", None),
            ("repro.apps.refimpl.nat", "translate_ipv6_to_ipv4", "apps.refimpl_s", None),
            ("repro.fuzz.gen", "generate", "fuzz.gen_s", self._after_generate),
            ("repro.fuzz.oracle", "_compile_config", config_of_first, None),
            ("repro.fuzz.oracle", "_run_vector", config_of_second, None),
            ("repro.fuzz.oracle", "_verify_allocation", config_of_second, None),
            ("repro.fuzz.netgen", "check_scenario", "netfuzz.check_s", None),
            ("repro.fuzz.netgen", "validation_probes", "netfuzz.probes_s", None),
        ):
            self._wrap_function(module, name, metric, after)
        self._wrap_root_lp()
        machine = importlib.import_module("repro.ixp.machine")
        net = importlib.import_module("repro.ixp.net")
        self._wrap_method(machine.Machine, "service", "ixp.engine_s")
        self._wrap_method(net.NetRuntime, "__init__", "ixp.net.init_s")
        self._wrap_method(net.NetRuntime, "run", "ixp.net.run_s", self._after_stream)

    def _wrap_function(self, module, name, metric, after=None) -> None:
        """Rebind ``module.name`` and every ``from module import name``
        copy in an already imported ``repro`` module."""
        original = getattr(importlib.import_module(module), name)
        _rebind(original, self.timed(original, metric, after))

    def _wrap_method(self, cls, name, metric, after=None) -> None:
        setattr(cls, name, self.timed(getattr(cls, name), metric, after))

    def _wrap_root_lp(self) -> None:
        """Make every timed solve report its root-relaxation time."""
        solve = importlib.import_module("repro.ilp.solve")
        timed_solve = solve.solve_model
        recorder = self

        def solve_model(model, options=None, tracer=None):
            if recorder.armed:
                options = dataclasses.replace(
                    options or solve.SolveOptions(), root_relaxation=True
                )
            return timed_solve(model, options, tracer)

        _rebind(timed_solve, solve_model)

    # -- bookkeeping hooks ---------------------------------------------------

    def _after_model(self, am, args, kwargs, seconds) -> None:
        self.counts["alloc.model_vars"] += am.model.num_vars
        self.counts["alloc.model_rows"] += len(am.model.constraints)
        self.counts["alloc.model_nonzeros"] += am.model.nonzeros()

    def _after_solve(self, solution, args, kwargs, seconds) -> None:
        self.counts["ilp.solves"] += 1
        self.seconds["ilp.solve_s"] -= solution.root_relaxation_seconds
        self.seconds["ilp.root_lp_s"] += solution.root_relaxation_seconds
        self.counts["ilp.nodes"] += solution.nodes
        if math.isfinite(solution.objective):
            self.counts["ilp.objective"] += solution.objective
        options = args[1] if len(args) > 1 else kwargs.get("options")
        budget = None if options is None else options.time_limit
        # A zero budget is the fuzz matrix's way to force the baseline
        # allocator, not a solve that ran out of time.
        if solution.status == "timeout" and budget != 0:
            self.counts["ilp.timeouts"] += 1
            if self.fuzz_seed is not None:
                self.timeout_seeds[self.fuzz_seed] = (
                    self.timeout_seeds.get(self.fuzz_seed, 0.0) + seconds
                )

    def _after_allocate(self, result, args, kwargs, seconds) -> None:
        if result.fallback is not None:
            self.counts["alloc.fallbacks"] += 1
        self.counts["alloc.moves"] += result.moves

    def _after_stream(self, result, args, kwargs, seconds) -> None:
        runtime = args[0]
        self.counts["sim.instructions"] += sum(result.engine_instructions)
        self.counts["sim.mem_stall_cycles"] += sum(
            thread.stats.mem_stall_cycles
            for machine in runtime.machines
            for thread in machine.threads
        )
        self.rx_high_water = max(self.rx_high_water, result.rx_high_water)
        self.counts["ixp.net.tx_stalls"] += sum(
            packet.tx_stalls for packet in result.packets
        )

    def _after_generate(self, program, args, kwargs, seconds) -> None:
        self.fuzz_seed = args[0] if args else kwargs.get("seed")

    # -- the report ----------------------------------------------------------

    def metrics(self, rounds: int, wall_s: float, ops: int) -> dict:
        """Every per-layer metric per round (0 where the workload never
        reaches a layer), with the ratios derived from the totals."""
        s = self.seconds
        out = {name: 0.0 for name in PER_LAYER_UNITS}
        for name in PER_LAYER_UNITS:
            if name in s:
                out[name] = s[name] / rounds
            elif name in self.counts:
                out[name] = self.counts[name] / rounds
        out["ixp.net.rx_high_water"] = self.rx_high_water
        # allocate() less what it spent building and solving the model.
        out["alloc.finish_s"] = max(
            0.0,
            s["alloc.allocate_s"]
            - s["alloc.model_s"]
            - s["ilp.solve_s"]
            - s["ilp.root_lp_s"],
        ) / rounds
        # NetRuntime.run() less engine slices and the reference model.
        out["ixp.net.loop_s"] = max(
            0.0,
            s["ixp.net.run_s"] - s["ixp.engine_s"] - s["apps.refimpl_s"],
        ) / rounds
        slices = self.calls["ixp.engine_s"]
        instructions = self.counts["sim.instructions"]
        out["ixp.slices"] = slices / rounds
        if slices:
            out["ixp.instructions_per_slice"] = instructions / slices
            out["sim.ips"] = instructions / s["ixp.engine_s"]
        out["trace.wall_s"] = wall_s / rounds
        out["trace.ops_per_s"] = ops / wall_s
        return out


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and (
            getattr(module, original.__name__, None) is original
        ):
            setattr(module, original.__name__, replacement)


def _config_metric(config) -> str:
    return f"fuzz.config.{config.name}_s"
