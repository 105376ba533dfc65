"""Property tests: critical-path walk invariants over random traced runs.

Hypothesis drives small randomized synchronizations (machine shape,
seed, algorithm family) through a traced simulation and asserts the
walk's structural invariants on whatever DAG comes out:

* the path tiles the analysis window exactly — its length equals the
  run (or round) duration, segments are chronological and contiguous;
* the length dominates every single message delay it traversed *and*
  every waited edge in the window (a chain is at least as long as its
  longest link);
* depth never exceeds the algorithm's structural bound on these
  uncongested networks (ratio <= 1).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.netmodels import infiniband_qdr
from repro.obs.causal import analyze_run, critical_path
from repro.obs.spans import SpanRecorder
from repro.simmpi.simulation import Simulation
from tests.conftest import run_spmd

EPS = 1e-9

shapes = st.tuples(
    st.integers(min_value=2, max_value=4),  # nodes
    st.integers(min_value=1, max_value=4),  # ranks per node
)


def _traced_sync(nodes, rpn, seed, label):
    from repro.sync.registry import algorithm_from_label

    algorithm = algorithm_from_label(label, fitpoint_spacing=1e-3)

    def main(ctx, comm):
        yield from algorithm.sync_clocks(comm, ctx.hardware_clock)
        return ctx.now

    _, untraced = run_spmd(
        main, num_nodes=nodes, ranks_per_node=rpn,
        network=infiniband_qdr(), seed=seed,
    )
    # Identical run with the recorder attached: tracing is passive, so
    # the simulated results must be bit-identical to the untraced run.
    from repro.cluster.topology import Machine

    recorder = SpanRecorder()
    machine = Machine(
        num_nodes=nodes, sockets_per_node=2,
        cores_per_socket=max(1, (rpn + 1) // 2),
        ranks_per_node=rpn, name="testbox",
    )
    sim = Simulation(
        machine=machine, network=infiniband_qdr(), seed=seed,
        sink=recorder,
    )
    traced = sim.run(main)
    assert traced.values == untraced.values
    recorder.finalize()
    (run,) = recorder.completed_runs()
    return run


class TestCriticalPathProperties:
    @given(
        shape=shapes,
        seed=st.integers(min_value=0, max_value=500),
        label=st.sampled_from([
            "hca/3/skampi_offset/2",
            "hca2/3/skampi_offset/2",
            "jk/3/skampi_offset/2",
        ]),
    )
    @settings(max_examples=12, deadline=None)
    def test_path_tiles_window_and_dominates_edges(self, shape, seed, label):
        nodes, rpn = shape
        run = _traced_sync(nodes, rpn, seed, label)
        segments = critical_path(run)
        assert segments

        # Chronological, contiguous, spanning [0, t_end].
        assert segments[0].start == 0.0
        assert segments[-1].end == run.t_end
        for prev, nxt in zip(segments, segments[1:]):
            assert abs(prev.end - nxt.start) < EPS
            assert prev.duration >= -EPS

        # length == run duration, >= any waited edge delay in the window.
        length = segments[-1].end - segments[0].start
        assert abs(length - run.duration()) < EPS
        max_waited = max(
            (e.deliver_time - e.send_time
             for e in run.edges.values() if e.waited),
            default=0.0,
        )
        assert length + EPS >= max_waited

    @given(
        shape=shapes,
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=8, deadline=None)
    def test_round_paths_bounded_by_round_duration(self, shape, seed):
        nodes, rpn = shape
        run = _traced_sync(nodes, rpn, seed, "hca/3/skampi_offset/2")
        analysis = analyze_run(run)
        for row in analysis["rounds"]:
            path_len = row["path_msg_s"] + row["path_compute_s"]
            # Path length == round duration (tiling), and at least the
            # slowest single hop the round waited on.
            assert path_len <= row["duration_s"] + 1e-6
            assert path_len + 1e-6 >= row["max_edge_s"]
        # Uncongested network: depth stays within the structural bound.
        assert analysis["depth"]["ratio"] <= 1.0 + EPS
