"""Per-layer tracing of the simulator, installed from outside ``src/``.

Every wrapper is set on a class or a module attribute, never on an
instance: ``Engine._run`` only leaves its quiet send path for hooks it
can see (sink, metrics, profiler, fabric, or instance-level patches of
``_do_send``/``_finish_delivery``), so class-level wrapping keeps each
engine run on exactly the path the untraced run takes.  The wrappers
only read the host clock; the simulated results are unchanged, which
``run.py`` checks by comparing digests and event counts.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import defaultdict

_now = time.perf_counter


class Patcher:
    """Sets class/module attributes and puts the originals back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def method(self, cls, name: str, wrap) -> None:
        """Wrap ``cls.name``, keeping static/class method kinds."""
        raw = vars(cls)[name]
        if isinstance(raw, (staticmethod, classmethod)):
            self.set(cls, name, type(raw)(wrap(raw.__func__)))
        else:
            self.set(cls, name, wrap(raw))

    def everywhere(self, fn, wrapped) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that names it.

        Modules import functions by name (``from x import f``), so the
        call sites look ``f`` up in their own globals.
        """
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, wrapped)

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


@dataclasses.dataclass
class EngineCounts:
    """Sums of the engine's own counters over the simulated mpiruns."""

    runs: int = 0
    events: int = 0
    messages: int = 0
    bytes: int = 0
    gate_deferrals: int = 0
    rendezvous_stalls: int = 0
    max_queue_depth: int = 0
    fabric_priced_runs: int = 0
    quiet_runs: int = 0

    def add(self, engine) -> None:
        self.runs += 1
        self.events += engine.events_processed
        self.messages += engine.messages_delivered
        self.bytes += engine.bytes_delivered
        self.gate_deferrals += engine.gate_deferrals
        self.rendezvous_stalls += engine.rendezvous_stalls
        self.max_queue_depth = max(
            self.max_queue_depth, engine.max_queue_depth
        )
        self.fabric_priced_runs += engine.extra_node_latency is not None
        self.quiet_runs += bool(engine._quiet)

    def minus(self, other: "EngineCounts") -> "EngineCounts":
        """Counts since ``other``; ``max_queue_depth`` stays the maximum."""
        out = EngineCounts()
        for f in dataclasses.fields(self):
            setattr(out, f.name,
                    getattr(self, f.name) - getattr(other, f.name))
        out.max_queue_depth = self.max_queue_depth
        return out


def count_engine_runs(patcher: Patcher, counts: EngineCounts) -> None:
    """Read each in-process ``Simulation.run``'s engine counters.

    One wrapper call per simulated mpirun; it is the only hook the
    untraced runs carry.  Runs inside ``--jobs`` worker processes are
    not seen here.
    """
    from repro.simmpi.simulation import Simulation

    def wrap(run):
        @functools.wraps(run)
        def counted(sim, main):
            result = run(sim, main)
            counts.add(sim.engine)
            return result
        return counted

    patcher.method(Simulation, "run", wrap)


class Tracer:
    """Call counts, inclusive and self (exclusive) host time per layer.

    A key's inclusive time counts only its outermost active call, so a
    recursive layer (H2HCA running HCA3 inside its own ``sync_clocks``)
    is not counted twice; self time is inclusive time minus the time of
    wrapped calls nested inside it.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.job_s: list[float] = []
        self._active: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []

    def _enter(self, key: str) -> None:
        self._active[key] += 1
        self._stack.append([key, _now(), 0.0])

    def _exit(self) -> float:
        key, start, child = self._stack.pop()
        elapsed = _now() - start
        self._active[key] -= 1
        if not self._active[key]:
            self.incl[key] += elapsed
        self.self_s[key] += elapsed - child
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    def call(self, key: str):
        """Decorator factory timing a plain function."""
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not self._active[key]:
                    self.calls[key] += 1
                self._enter(key)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._exit()
            return traced
        return wrap

    def steps(self, key: str):
        """Decorator factory timing each step of a generator function.

        Only the host time spent inside the generator's own steps counts
        (the simulated process's compute); time between steps belongs to
        the engine and to other ranks.
        """
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not self._active[key]:
                    self.calls[key] += 1
                return self._step_through(key, fn(*args, **kwargs))
            return traced
        return wrap

    def _step_through(self, key: str, gen):
        value, error = None, None
        while True:
            self._enter(key)
            try:
                cmd = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self._exit()
            try:
                value, error = (yield cmd), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:
                value, error = None, exc

    def _timed_job(self, fn):
        @functools.wraps(fn)
        def job(*args, **kwargs):
            self._enter("parallel.job")
            try:
                return fn(*args, **kwargs)
            finally:
                self.job_s.append(self._exit())
        return job

    def install(self, patcher: Patcher, experiment) -> None:
        """Wrap the public functions of each layer the workloads touch."""
        from repro.analysis import accuracy
        from repro.bench import runner, suites
        from repro.cluster import fabric
        from repro.parallel import executor
        from repro.service import core, driver, epoch
        from repro.simmpi.network import NetworkModel
        from repro.simmpi.simulation import Simulation
        from repro.simtime.hardware import HardwareClock
        from repro.sync.base import ClockSyncAlgorithm
        from repro.sync.linear_model import LinearDriftModel
        from repro.sync import registry  # noqa: F401  (loads every algorithm)

        call, steps = self.call, self.steps
        patcher.set(experiment, "run",
                    call("experiments.run")(experiment.run))
        patcher.set(experiment, "format_result",
                    call("experiments.format")(experiment.format_result))

        def traced_run_jobs(run_jobs):
            @functools.wraps(run_jobs)
            def run(specs, *args, **kwargs):
                specs = [
                    dataclasses.replace(s, fn=self._timed_job(s.fn))
                    for s in specs
                ]
                return run_jobs(specs, *args, **kwargs)
            return run

        patcher.everywhere(executor.run_jobs,
                           traced_run_jobs(executor.run_jobs))

        patcher.method(Simulation, "__init__", call("simmpi.init"))
        patcher.method(Simulation, "run", call("simmpi.run"))
        for name in ("delay_from_pool", "delay", "base_delay"):
            patcher.method(NetworkModel, name, call("network.delay"))
        for cls in (fabric.FlatFabric, fabric.TorusFabric):
            patcher.method(cls, "extra_latency", call("cluster.fabric"))
        patcher.method(HardwareClock, "read", call("simtime.read"))
        patcher.method(HardwareClock, "read_many",
                       call("simtime.read_many"))

        for cls in _subclasses(ClockSyncAlgorithm):
            if "sync_clocks" in vars(cls):
                patcher.method(cls, "sync_clocks", steps("sync.sync"))
        patcher.method(LinearDriftModel, "fit", call("sync.fit"))

        patcher.everywhere(
            accuracy.check_clock_accuracy,
            steps("analysis.accuracy")(accuracy.check_clock_accuracy),
        )
        patcher.everywhere(
            runner.run_latency_benchmark,
            call("bench.latency")(runner.run_latency_benchmark),
        )
        for name in ("osu_report", "imb_report", "skampi_report",
                     "reprompi_report"):
            fn = getattr(suites, name)
            patcher.everywhere(fn, steps("bench.suite")(fn))

        for name in ("now_batch", "translate_batch", "compare_batch"):
            patcher.method(core.ClockService, name, call("service.batch"))
        patcher.everywhere(epoch.compile_epoch,
                           call("service.compile")(epoch.compile_epoch))
        patcher.method(driver.SimulatedCluster, "sync", call("service.sync"))
        patcher.everywhere(driver.run_service,
                           call("service.run")(driver.run_service))

    def layer_metrics(self, counts: EngineCounts, queries: int) -> dict:
        """The per-layer metrics (name -> value) of one traced unit."""
        c, t, s = self.calls, self.incl, self.self_s
        sim_self = s["simmpi.run"]
        return {
            "experiments.run_s": t["experiments.run"],
            "experiments.format_s": t["experiments.format"],
            "parallel.jobs": len(self.job_s),
            "parallel.job_sum_s": sum(self.job_s),
            "parallel.job_max_s": max(self.job_s, default=0.0),
            "simmpi.init_calls": c["simmpi.init"],
            "simmpi.init_s": t["simmpi.init"],
            "simmpi.run_calls": c["simmpi.run"],
            "simmpi.run_s": t["simmpi.run"],
            "simmpi.self_s": sim_self,
            "simmpi.events": counts.events,
            "simmpi.messages": counts.messages,
            "simmpi.bytes": counts.bytes,
            "simmpi.gate_deferrals": counts.gate_deferrals,
            "simmpi.rendezvous_stalls": counts.rendezvous_stalls,
            "simmpi.max_queue_depth": counts.max_queue_depth,
            "simmpi.ns_per_event": (
                sim_self * 1e9 / counts.events if counts.events else 0.0
            ),
            "simmpi.fabric_priced_runs": counts.fabric_priced_runs,
            "simmpi.quiet_runs": counts.quiet_runs,
            "network.delay_calls": c["network.delay"],
            "network.delay_s": t["network.delay"],
            "cluster.fabric_calls": c["cluster.fabric"],
            "cluster.fabric_s": t["cluster.fabric"],
            "simtime.read_calls": c["simtime.read"],
            "simtime.read_s": t["simtime.read"],
            "simtime.read_many_calls": c["simtime.read_many"],
            "simtime.read_many_s": t["simtime.read_many"],
            "sync.sync_calls": c["sync.sync"],
            "sync.busy_s": t["sync.sync"],
            "sync.fit_calls": c["sync.fit"],
            "sync.fit_s": t["sync.fit"],
            "analysis.accuracy_calls": c["analysis.accuracy"],
            "analysis.accuracy_busy_s": t["analysis.accuracy"],
            "bench.latency_calls": c["bench.latency"],
            "bench.latency_s": t["bench.latency"],
            "bench.self_s": s["bench.latency"] + s["bench.suite"],
            "service.queries": queries,
            "service.batch_calls": c["service.batch"],
            "service.batch_s": t["service.batch"],
            "service.epoch_compiles": c["service.compile"],
            "service.compile_s": t["service.compile"],
            "service.sync_calls": c["service.sync"],
            "service.sync_s": t["service.sync"],
            "service.self_s": s["service.run"],
        }


def _subclasses(cls) -> list[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out
