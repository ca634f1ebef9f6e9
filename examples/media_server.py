"""Domain scenario: a media-processing phase inside a larger program.

The paper motivates LFU with media-management applications: large
regions of blocks used exactly once (frames streaming through) mixed
with commonly accessed data (tables, code-adjacent structures). This
example models a video-processing pipeline that alternates between a
streaming phase and a lookup-heavy phase, and measures full end-to-end
performance (CPI) through the timing model — L1, branch predictors,
store buffer and all.

Run:  python examples/media_server.py
"""

from repro import CacheConfig, SetAssociativeCache, make_adaptive, make_policy
from repro.cpu.config import ProcessorConfig
from repro.cpu.timing import compile_workload, simulate
from repro.workloads.builder import BranchProfile, WorkloadBuilder
from repro.workloads.phases import concat_phases
from repro.workloads.synth import scan_with_hot, working_set


def build_pipeline_trace(l2_config, frames=6, refs_per_frame=8_000):
    """Alternate streaming-decode and table-lookup phases."""
    phases = []
    for frame in range(frames):
        # Decode: stream the frame through while consulting hot tables.
        phases.append(
            scan_with_hot(
                hot_lines=int(0.3 * l2_config.num_lines),
                scan_lines=4 * l2_config.num_lines,
                accesses=refs_per_frame,
                hot_fraction=0.45,
                seed=100 + frame,
            )
        )
        # Post-process: temporal reuse over the working buffers.
        phases.append(
            working_set(
                hot_lines=int(0.7 * l2_config.num_lines),
                accesses=refs_per_frame // 2,
                seed=200 + frame,
                locality=0.4,
            )
        )
    stream = concat_phases(*phases)
    builder = WorkloadBuilder(
        seed=7,
        mean_gap=3.0,
        write_fraction=0.3,
        branches=BranchProfile(density=0.6, random_fraction=0.1),
        line_bytes=l2_config.line_bytes,
    )
    return builder.build("media-pipeline", stream)


def main():
    l2 = CacheConfig(size_bytes=64 * 1024, ways=8, line_bytes=64, hit_latency=15)
    l1 = CacheConfig(size_bytes=4 * 1024, ways=4, line_bytes=64, hit_latency=2)
    processor = ProcessorConfig(l1d=l1, l1i=l1, l2=l2)

    trace = build_pipeline_trace(l2)
    print(
        f"pipeline trace: {trace.instruction_count} instructions, "
        f"{trace.memory_access_count()} memory references, "
        f"{trace.footprint_lines()} distinct lines"
    )

    compiled = compile_workload(trace, processor)
    print("\n  L2 policy     MPKI     CPI")
    results = {}
    for label, policy in [
        ("LRU", make_policy("lru", l2.num_sets, l2.ways)),
        ("LFU", make_policy("lfu", l2.num_sets, l2.ways)),
        ("Adaptive", make_adaptive(l2.num_sets, l2.ways, ("lru", "lfu"))),
    ]:
        result = simulate(compiled, SetAssociativeCache(l2, policy), processor)
        results[label] = result
        print(f"  {label:10s} {result.mpki:7.2f}  {result.cpi:.3f}")

    best_fixed = min(results["LRU"].cpi, results["LFU"].cpi)
    delta = 100.0 * (best_fixed - results["Adaptive"].cpi) / best_fixed
    print(
        f"\nAdaptive vs best fixed policy: {delta:+.2f}% CPI "
        "(positive = adaptive wins by exploiting the phase changes)"
    )


if __name__ == "__main__":
    main()
