"""The benchmark's workloads.

Each workload builds its inputs from the benchmark seed in ``__init__``
(the set-up), then runs whole rounds of the same operations through the
entry points a user reaches: ``compile_nova``, ``run_stream``,
``run_campaign`` and ``run_net_campaign``, always at the program's own
defaults.  A round times only the operations, in process CPU seconds,
and checks every output afterwards against results computed apart from
the program: the reference implementations in ``repro.apps.refimpl``,
the interpreter, or sums the benchmark computes itself.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro import compile_nova
from repro.apps import build_aes_app, build_kasumi_app, build_nat_app
from repro.apps.aes_nova import aes_reference_checksum, aes_reference_ciphertext
from repro.apps.kasumi_nova import (
    kasumi_reference_ciphertext,
    kasumi_reference_sum,
)
from repro.apps.nat_nova import nat_reference_output
from repro.apps.refimpl.nat import nat_table_index
from repro.errors import NovaError, SimulatorError
from repro.fuzz.driver import run_campaign
from repro.fuzz.netgen import run_net_campaign
from repro.ixp.machine import Machine
from repro.ixp.memory import MemorySystem
from repro.ixp.net import NetConfig, NetRuntime, run_stream, stream_app

ROOT = Path(__file__).resolve().parent.parent
#: IXP1200 core clock of the paper's Section 11 figures.
CLOCK_HZ = 233e6
#: scratch words the allocator's decoder reserves for spill slots;
#: physical runs may write there, virtual runs never do.
SPILL_WINDOW = range(960, 1024)


class Clock:
    """Times operations in process CPU seconds, per kind of operation;
    checks run outside it.  In a traced run it also arms the layer
    recorder, so per-layer figures cover exactly the timed operations."""

    def __init__(self, recorder=None):
        self.cpu_s: Counter[str] = Counter()
        self.recorder = recorder

    @contextmanager
    def timing(self, kind: str):
        if self.recorder is not None:
            self.recorder.armed = True
        start = time.process_time()
        try:
            yield
        finally:
            self.cpu_s[kind] += time.process_time() - start
            if self.recorder is not None:
                self.recorder.armed = False


@dataclass
class Round:
    """One round: operations attempted per kind, and how many failed."""

    ops: Counter[str] = field(default_factory=Counter)
    failed: int = 0
    #: why operations failed, and global faults (non-determinism,
    #: broken invariants) that make the run incorrect.
    failures: list[str] = field(default_factory=list)
    faults: list[str] = field(default_factory=list)
    #: deterministic outcomes; every round of a run must repeat them.
    facts: dict[str, float] = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return sum(self.ops.values())


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- running compiled code -----------------------------------------------------


def _memory(image: dict) -> MemorySystem:
    memory = MemorySystem.create()
    for space, chunks in image.items():
        for addr, words in chunks:
            memory[space].load_words(addr, words)
    return memory


def _run(machine: Machine) -> list[tuple[int, ...]]:
    return [values for _, values in machine.run().results]


def run_allocated(comp, image: dict, **inputs):
    """The allocated code on the default simulator tier; returns the
    halt values and the memory afterwards."""
    memory = _memory(image)
    registers = {}
    locations = comp.alloc.decoded.input_locations
    for temp, value in comp.make_inputs(**inputs).items():
        location = locations.get(temp)
        if location is None:
            continue
        kind, where = location
        if kind == "reg":
            registers[(where.bank, where.index)] = value
        else:
            memory["scratch"].load_words(where, [value])
    machine = Machine(
        comp.physical,
        memory=memory,
        physical=True,
        input_provider=lambda tid, it: dict(registers) if it == 0 else None,
    )
    return _run(machine), memory


def run_interpreted(comp, image: dict, **inputs):
    """The pre-allocation flowgraph on the reference interpreter."""
    memory = _memory(image)
    raw = comp.make_inputs(**inputs)
    machine = Machine(
        comp.flowgraph,
        memory=memory,
        physical=False,
        input_provider=lambda tid, it: dict(raw) if it == 0 else None,
        mode="interp",
    )
    return _run(machine), memory


def _nonzero_words(memory: MemorySystem) -> dict:
    out = {}
    for name, space in memory.spaces.items():
        words = {
            addr: word
            for addr, word in space.words.items()
            if word and not (name == "scratch" and addr in SPILL_WINDOW)
        }
        out[name] = words
    return out


# -- compile -------------------------------------------------------------------


def _compile(clock: Clock, source: str, filename: str):
    """One timed cold compile; a structured compile error is returned
    (the operation failed) rather than raised."""
    with clock.timing("compile"):
        try:
            return compile_nova(source, filename)
        except NovaError as exc:
            return exc


#: FIPS-197 Appendix B: key, plaintext and the published ciphertext.
FIPS197_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
FIPS197_PLAIN = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
FIPS197_CIPHER = [0x3925841D, 0x02DC09FB, 0xDC118597, 0x196A0B32]

#: the example programs compiled by the ``compile`` workload, each with
#: a generator of (inputs, memory image) for the interpreter check.
EXAMPLES = ("classify.nova", "ring_sum.nova", "ttl_decrement.nova")
RING_WORDS = 16


def _example_inputs(name: str, rng: random.Random):
    if name == "ttl_decrement.nova":
        return {"w": rng.getrandbits(32)}, {}
    ring_base = rng.randrange(0x2000, 0x30000)
    ring = [
        (rng.choice((4, 6, rng.getrandbits(4))) << 28) | rng.getrandbits(28)
        for _ in range(RING_WORDS)
    ]
    image = {"sram": [(ring_base, ring)]}
    if name == "classify.nova":
        return {"ring_base": ring_base, "n": RING_WORDS}, image
    out_addr = rng.randrange(256, 900)
    return {"ring_base": ring_base, "n": RING_WORDS, "out_addr": out_addr}, image


def _nat_packet(rng: random.Random):
    """A random IPv6 header whose two addresses both have a mapping in
    distinct slots of the direct-mapped translation table."""
    while True:
        src = (0x20010DB8, rng.getrandbits(32), rng.getrandbits(32), rng.getrandbits(32))
        dst = (0x20010DB8, rng.getrandbits(32), rng.getrandbits(32), rng.getrandbits(32))
        if nat_table_index(list(src)) != nat_table_index(list(dst)):
            break
    mappings = {
        src: 0x0A000000 | rng.getrandbits(24),
        dst: 0x0A000000 | rng.getrandbits(24),
    }
    w0 = (6 << 28) | (rng.getrandbits(8) << 20) | rng.getrandbits(20)
    w1 = (rng.randrange(0, 1024) << 16) | (rng.getrandbits(8) << 8) | rng.randrange(1, 256)
    return [w0, w1, *src, *dst], mappings


class CompileWorkload:
    """Cold ``compile_nova`` of the three Section 11 apps and the
    example programs, default options (ILP allocator on)."""

    def __init__(self, seed: int):
        rng = random.Random(f"compile-{seed}")
        self.sources = [
            (f"{name}.nova", build().source)
            for name, build in (
                ("aes", build_aes_app),
                ("kasumi", build_kasumi_app),
                ("nat", build_nat_app),
            )
        ]
        self.sources += [
            (name, (ROOT / "examples" / name).read_text()) for name in EXAMPLES
        ]
        self.aes_payload = bytes(rng.getrandbits(8) for _ in range(32))
        self.kasumi_payload = bytes(rng.getrandbits(8) for _ in range(16))
        self.nat_packet = _nat_packet(rng)
        self.example_inputs = {name: _example_inputs(name, rng) for name in EXAMPLES}

    def run_round(self, clock: Clock) -> Round:
        rnd = Round()
        comps = [
            (filename, _compile(clock, source, filename))
            for filename, source in self.sources
        ]
        moves = 0
        for filename, comp in comps:
            rnd.ops["compile"] += 1
            if isinstance(comp, NovaError):
                problem = f"compile failed: {comp}"
            elif comp.alloc.status != "optimal":
                problem = f"allocation ended '{comp.alloc.status}'"
            else:
                moves += comp.alloc.moves
                try:
                    problem = self._check(filename, comp)
                except SimulatorError as exc:
                    problem = f"simulation failed: {exc}"
            if problem is not None:
                rnd.failed += 1
                rnd.failures.append(f"{filename}: {problem}")
        rnd.facts = {"alloc.moves": moves}
        return rnd

    def _check(self, filename: str, comp) -> str | None:
        if filename == "aes.nova":
            return self._check_aes(comp)
        if filename == "kasumi.nova":
            payload = self.kasumi_payload
            app = build_kasumi_app(payload=payload)
            results, memory = run_allocated(comp, app.memory_image, **app.inputs)
            words = memory["sdram"].dump_words(app.payload_base, len(payload) // 4)
            if words != kasumi_reference_ciphertext(payload):
                return "ciphertext differs from the reference"
            if results != [(kasumi_reference_sum(payload),)]:
                return f"result {results} differs from the reference"
            return None
        if filename == "nat.nova":
            words, mappings = self.nat_packet
            app = build_nat_app(ipv6_words=words, mappings=mappings)
            results, memory = run_allocated(comp, app.memory_image, **app.inputs)
            header, checksum = nat_reference_output(words, mappings)
            if memory["sdram"].dump_words(app.payload_base + 5, 5) != header:
                return "IPv4 header differs from the reference"
            if results != [(checksum,)]:
                return f"result {results} differs from the reference"
            return None
        inputs, image = self.example_inputs[filename]
        got, got_memory = run_allocated(comp, image, **inputs)
        want, want_memory = run_interpreted(comp, image, **inputs)
        if got != want:
            return f"allocated code returned {got}, interpreter {want}"
        if _nonzero_words(got_memory) != _nonzero_words(want_memory):
            return "allocated code left memory the interpreter did not"
        return None

    def _check_aes(self, comp) -> str | None:
        payload = self.aes_payload
        app = build_aes_app(payload=payload)
        results, memory = run_allocated(comp, app.memory_image, **app.inputs)
        words = memory["sdram"].dump_words(app.payload_base, len(payload) // 4)
        if words != aes_reference_ciphertext(payload):
            return "ciphertext differs from the reference"
        if results != [(aes_reference_checksum(payload),)]:
            return f"result {results} differs from the reference"
        app = build_aes_app(key=FIPS197_KEY, payload=FIPS197_PLAIN)
        _, memory = run_allocated(comp, app.memory_image, **app.inputs)
        if memory["sdram"].dump_words(app.payload_base, 4) != FIPS197_CIPHER:
            return "FIPS-197 Appendix B vector fails"
        return None


# -- stream --------------------------------------------------------------------

STREAM_APPS = ("aes", "kasumi", "nat")
#: closed loop: every packet is queued at cycle 0 (saturated throughput).
BACKLOG_PACKETS = 96
#: open loop: Poisson arrivals at a fixed mean gap, about twice each
#: app's saturated per-packet time on the full chip, so queues stay short.
POISSON_PACKETS = 400
POISSON_MEAN_GAP = {"aes": 760.0, "kasumi": 660.0, "nat": 110.0}
#: the open-loop streams replay one fixed arrival schedule: idle workers
#: re-poll their rings every few cycles, so a stream's host time grows
#: with its simulated length, and a Poisson schedule drawn per benchmark
#: seed would move that length (and packets_per_s) by about 5%.
POISSON_SEED = 20030609
#: per-engine RX ring capacity: at least every backlog packet, so no
#: packet can ever be tail-dropped.
RX_CAPACITY = 96


class StreamWorkload:
    """The allocated Section 11 apps on the full 6x4 chip through
    ``run_stream``: backlog streams for throughput, open-loop Poisson
    streams for latency."""

    def __init__(self, seed: int):
        self.streams = []
        for index, name in enumerate(STREAM_APPS):
            build = {"aes": build_aes_app, "kasumi": build_kasumi_app, "nat": build_nat_app}[name]
            comp = compile_nova(build().source, f"{name}.nova")
            if comp.alloc.status != "optimal":
                raise RuntimeError(f"{name}: allocation ended '{comp.alloc.status}'")
            app = stream_app(name, comp)
            backlog = NetConfig(
                packets=BACKLOG_PACKETS,
                arrival="backlog",
                rx_capacity=RX_CAPACITY,
                seed=seed * 8 + index,
            )
            poisson = NetConfig(
                packets=POISSON_PACKETS,
                arrival="poisson",
                mean_gap=POISSON_MEAN_GAP[name],
                rx_capacity=RX_CAPACITY,
                seed=POISSON_SEED + index,
            )
            # Constructing a runtime builds the simulator tier for the
            # app's code once; later runs reuse it, as a user's would.
            NetRuntime(app, backlog)
            self.streams.append((name, app, backlog, poisson))

    def run_round(self, clock: Clock) -> Round:
        rnd = Round()
        results = []
        for name, app, backlog, poisson in self.streams:
            for kind, config in (("backlog", backlog), ("poisson", poisson)):
                with clock.timing("packet"):
                    result = run_stream(app, config)
                results.append((name, kind, result))
        mbps, p95, imbalance = [], [], []
        for name, kind, result in results:
            self._check(rnd, name, kind, result)
            if kind == "backlog":
                mbps.append(result.mbps)
                rnd.facts[f"sim.{name}.cycles_per_packet"] = result.cycles / result.completed
                imbalance.append(max(result.engine_cycles) / min(result.engine_cycles))
            else:
                p95.append(result.percentile(95))
        rnd.facts["sim.mbps"] = geomean(mbps)
        rnd.facts["sim.latency_p95_cycles"] = geomean(p95)
        rnd.facts["sim.engine_imbalance"] = max(imbalance)
        return rnd

    @staticmethod
    def _check(rnd: Round, name: str, kind: str, result) -> None:
        where = f"{name} {kind}"
        rnd.ops["packet"] += result.generated
        bad = {
            packet.seq for packet in result.packets if packet.status != "done"
        }
        rnd.failed += len(bad)
        if bad:
            rnd.failures.append(
                f"{where}: {len(result.mismatches)} mismatched, "
                f"{result.dropped} dropped, {result.inflight} in flight"
            )
        if result.generated != result.completed + result.dropped + result.inflight:
            rnd.faults.append(f"{where}: packet conservation broken")
        bits = sum(
            32 * len(packet.payload_words)
            for packet in result.packets
            if packet.status == "done"
        )
        if bits != result.payload_bits:
            rnd.faults.append(
                f"{where}: {result.payload_bits} payload bits reported, "
                f"{bits} counted"
            )
        if kind == "backlog":
            mbps = bits / (result.cycles / CLOCK_HZ) / 1e6
            if not math.isclose(mbps, result.mbps, rel_tol=1e-9):
                rnd.faults.append(
                    f"{where}: {result.mbps} Mb/s reported, {mbps} recomputed"
                )


# -- fuzz ----------------------------------------------------------------------

#: Both fuzz windows are fixed: per-program and per-scenario cost is
#: heavy-tailed (0.03 s to over 1.5 s per program), so windows drawn
#: per benchmark seed moved the throughput by 11% (interquartile range
#: of 450-scenario windows over five seeds), more than the change under
#: test would.
FUZZ_FIRST_SEED = 0
FUZZ_PROGRAMS = 30
NETFUZZ_FIRST_SEED = 1_000_000
NETFUZZ_SCENARIOS = 600


class FuzzWorkload:
    """``run_campaign(jobs=1)`` over the full default config matrix,
    then ``run_net_campaign(jobs=1)`` with no corpus."""

    def __init__(self, seed: int):
        """Nothing to draw: both windows are fixed (see above)."""

    def run_round(self, clock: Clock) -> Round:
        rnd = Round()
        with clock.timing("program"):
            programs = run_campaign(seed=FUZZ_FIRST_SEED, count=FUZZ_PROGRAMS, jobs=1)
        with clock.timing("scenario"):
            scenarios = run_net_campaign(
                seed=NETFUZZ_FIRST_SEED, count=NETFUZZ_SCENARIOS, jobs=1
            )
        rnd.ops["program"] = len(programs.units)
        rnd.ops["scenario"] = len(scenarios.units)
        for unit in programs.units:
            if not unit.ok:
                rnd.failed += 1
                rnd.failures.append(
                    f"seed {unit.seed}: {unit.invalid or unit.divergences[:1]}"
                )
        for unit in scenarios.units:
            if not unit.ok:
                rnd.failed += 1
                rnd.failures.append(
                    f"net seed {unit.seed}: {unit.invalid or unit.violations[:1]}"
                )
        for failure in scenarios.probe_failures:
            rnd.faults.append(f"validation probe: {failure}")
        if rnd.ops != Counter(program=FUZZ_PROGRAMS, scenario=NETFUZZ_SCENARIOS):
            rnd.faults.append(f"verdicts {dict(rnd.ops)} do not match the windows")
        return rnd


WORKLOADS = {
    "compile": CompileWorkload,
    "stream": StreamWorkload,
    "fuzz": FuzzWorkload,
}
