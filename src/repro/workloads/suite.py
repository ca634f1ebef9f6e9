"""The named workload suite.

The paper simulates 100 application/input pairs from SPECcpu2000,
MediaBench, MiBench, BioBench, pointer-intensive codes and graphics
programs, and focuses on a *primary set* of 26 whose LRU-managed 512 KB
L2 suffers more than 1 MPKI. This module mirrors that structure with
synthetic stand-ins: every benchmark name from the paper's Figures 3-8
appears here with a recipe matching the locality class the paper
reports for it (lucas is strongly LRU-friendly, art is loop/LFU
friendly, ammp and mgrid switch behaviour over time and across sets,
unepic dithers, ...). The extended set fills out the remaining 74
programs, mostly with cache-resident footprints, to reproduce the
paper's robustness claim (adaptivity never hurts by more than ~1%).

Footprints are expressed relative to the target cache's capacity, so
the suite scales from the benchmark-friendly 16 KB configuration up to
the paper's 512 KB one.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.cache.config import CacheConfig
from repro.workloads.builder import BranchProfile, WorkloadBuilder
from repro.workloads.phases import concat_phases, confine_to_sets, interleave_streams
from repro.workloads.synth import (
    drifting_working_set,
    linear_loop,
    pointer_chase,
    scan_with_hot,
    strided_sweep,
    working_set,
    zipf_stream,
)
from repro.workloads.trace import Trace

Recipe = Callable[[CacheConfig, int, int], List[int]]


@dataclass(frozen=True)
class WorkloadSpec:
    """A named synthetic benchmark.

    Attributes:
        name: benchmark name (paper's naming, input pairs suffixed).
        suite: origin suite in the paper (spec-fp, spec-int, mediabench,
            mibench, biobench, pointer, graphics).
        locality: dominant locality class — ``"lru"``, ``"lfu"``,
            ``"mru"``, ``"phase"``, ``"stream"``, ``"dither"`` or
            ``"low"`` (fits in cache); used by tests and reports.
        recipe: ``(config, accesses, seed) -> line stream``.
        mean_gap: mean plain instructions between records.
        write_fraction: store fraction of memory references.
        branches: branch stream shape.
    """

    name: str
    suite: str
    locality: str
    recipe: Recipe
    mean_gap: float = 3.0
    write_fraction: float = 0.3
    branches: BranchProfile = field(default_factory=BranchProfile)


def workload_seed(name: str, offset: int = 0) -> int:
    """Stable per-name seed (crc32 of the name plus an offset)."""
    return (zlib.crc32(name.encode()) + offset) & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# Recipe factories. Footprints scale with config.num_lines (cache capacity
# in lines) so behaviour classes survive cache-size scaling.
# ---------------------------------------------------------------------------


def drift_recipe(hot_scale: float, drift: float = 8.0) -> Recipe:
    """Sliding hot window (LRU-friendly, LFU-hostile)."""

    def recipe(config: CacheConfig, accesses: int, seed: int) -> List[int]:
        hot = max(config.ways, int(hot_scale * config.num_lines))
        return drifting_working_set(hot, accesses, drift, seed=seed)

    return recipe


def zipf_recipe(universe_scale: float, alpha: float = 1.2) -> Recipe:
    """Frequency-skewed references (LFU-friendly)."""

    def recipe(config: CacheConfig, accesses: int, seed: int) -> List[int]:
        universe = max(2 * config.ways, int(universe_scale * config.num_lines))
        return zipf_stream(universe, accesses, alpha=alpha, seed=seed)

    return recipe


def scan_hot_recipe(hot_scale: float, hot_fraction: float = 0.5) -> Recipe:
    """Reused hot set + one-pass scan (media pattern, LFU-friendly)."""

    def recipe(config: CacheConfig, accesses: int, seed: int) -> List[int]:
        hot = max(config.ways, int(hot_scale * config.num_lines))
        scan = max(4 * config.num_lines, accesses)
        return scan_with_hot(hot, scan, accesses, hot_fraction, seed=seed)

    return recipe


def chase_recipe(nodes_scale: float) -> Recipe:
    """Pointer graph walk (pointer-intensive codes)."""

    def recipe(config: CacheConfig, accesses: int, seed: int) -> List[int]:
        nodes = max(2 * config.ways, int(nodes_scale * config.num_lines))
        return pointer_chase(nodes, accesses, seed=seed)

    return recipe


def stride_recipe(footprint_scale: float, stride_lines: int) -> Recipe:
    """Strided array sweep (FP array codes).

    The footprint is nudged to be coprime with the stride: otherwise a
    stride dividing the footprint silently collapses coverage to
    ``footprint/stride`` lines (e.g. stride 3 over 1.5 x a power-of-two
    cache), turning an intended streaming workload into a resident one.
    """

    def recipe(config: CacheConfig, accesses: int, seed: int) -> List[int]:
        footprint = max(config.ways + 1, int(footprint_scale * config.num_lines))
        from math import gcd

        while gcd(footprint, stride_lines) != 1:
            footprint += 1
        return strided_sweep(footprint, stride_lines, accesses)

    return recipe


def resident_recipe(hot_scale: float = 0.4, locality: float = 0.3) -> Recipe:
    """Working set that fits in the cache (low-MPKI extended programs)."""

    def recipe(config: CacheConfig, accesses: int, seed: int) -> List[int]:
        hot = max(config.ways, int(hot_scale * config.num_lines))
        return working_set(hot, accesses, seed=seed, locality=locality)

    return recipe


def dither_recipe(
    loop_scale: float = 1.25,
    hot_scale: float = 0.3,
    phase_per_set: float = 3.0,
) -> Recipe:
    """Rapidly alternating LRU/LFU-friendly micro-phases.

    Phases shorter than the adaptation window make the selector chase a
    moving target — the worst realistic case for adaptivity. Models the
    paper's unepic (max CPI deterioration, 1.2%) and tigr (max miss
    increase, 2.7%). Phase length scales with the set count
    (``phase_per_set`` accesses per set) so each set sees only a few
    decisive events per phase regardless of cache size; loop and hot
    phases alternate at equal length.
    """

    def recipe(config: CacheConfig, accesses: int, seed: int) -> List[int]:
        loop = max(config.ways + 1, int(loop_scale * config.num_lines))
        hot = max(config.ways, int(hot_scale * config.num_lines))
        phase_accesses = max(48, int(phase_per_set * config.num_sets))
        phases: List[List[int]] = []
        produced = 0
        phase_index = 0
        loop_cursor = 0  # the loop resumes where it stopped, so it
        # keeps cycling its full footprint across phases
        while produced < accesses:
            n = min(phase_accesses, accesses - produced)
            if phase_index % 2 == 0:
                segment = [
                    (loop_cursor + i) % loop for i in range(n)
                ]
                loop_cursor = (loop_cursor + n) % loop
                phases.append(segment)
            else:
                phases.append(
                    drifting_working_set(hot, n, 24.0, seed=seed + phase_index)
                )
            produced += n
            phase_index += 1
        return concat_phases(*phases)

    return recipe


def ammp_recipe(config: CacheConfig, accesses: int, seed: int) -> List[int]:
    """ammp: set-dependent behaviour early, then LFU phase, then LRU.

    Mirrors Figure 7(a): at first the best policy differs per set (one
    half of the sets sees a scan-with-hot region while the other half
    sees a drifting working set); a clearly LFU-favourable phase follows
    (~34M-46M cycles in the paper); LRU wins for the rest of the run.
    """
    num_sets = config.num_sets
    third = accesses // 3
    half = num_sets // 2 or 1
    lfu_half = confine_to_sets(
        scan_with_hot(
            max(config.ways, config.num_lines // 4),
            4 * config.num_lines,
            third // 2,
            hot_fraction=0.55,
            seed=seed,
        ),
        0,
        half,
        num_sets,
    )
    lru_half = confine_to_sets(
        drifting_working_set(
            max(config.ways, config.num_lines // 3), third - third // 2, 12.0,
            seed=seed + 1,
        ),
        half,
        num_sets,
        num_sets,
    )
    phase1 = interleave_streams([lfu_half, lru_half], seed=seed + 2)
    phase2 = scan_with_hot(
        max(config.ways, config.num_lines // 3),
        4 * config.num_lines,
        third,
        hot_fraction=0.5,
        seed=seed + 3,
    )
    phase3 = drifting_working_set(
        max(config.ways, int(0.75 * config.num_lines)),
        accesses - len(phase1) - len(phase2),
        max(30.0, 2000.0 * config.num_lines / accesses),
        seed=seed + 4,
    )
    return concat_phases(phase1, phase2, phase3)


def mgrid_recipe(config: CacheConfig, accesses: int, seed: int) -> List[int]:
    """mgrid: LFU-favourable strided phase fading into LRU behaviour.

    Mirrors Figure 7(b): subroutines like RPRJ3 skip elements but touch
    neighbours (strided sweep + hot neighbourhood -> LFU-friendly), while
    ZERO3/NORM2U3 traverse linearly; over the run the balance moves
    towards linear/temporal (LRU) behaviour at a per-set-varying rate.
    """
    third = accesses // 3
    strided = interleave_streams(
        [
            strided_sweep(2 * config.num_lines, config.num_sets // 4 or 1, third // 2),
            zipf_stream(config.num_lines // 2 or 1, third - third // 2,
                        alpha=1.3, seed=seed),
        ],
        seed=seed + 1,
    )
    mixed = interleave_streams(
        [
            strided_sweep(2 * config.num_lines, config.num_sets // 4 or 1, third // 2),
            drifting_working_set(
                max(config.ways, config.num_lines // 3),
                third - third // 2, 10.0, seed=seed + 2,
            ),
        ],
        seed=seed + 3,
    )
    tail = drifting_working_set(
        max(config.ways, int(0.8 * config.num_lines)),
        accesses - len(strided) - len(mixed),
        16.0,
        seed=seed + 4,
    )
    return concat_phases(strided, mixed, tail)


def gcc1_recipe(config: CacheConfig, accesses: int, seed: int) -> List[int]:
    """gcc-1: large linear loops mixed with temporal reuse (MRU-friendly
    in the FIFO/MRU pairing of Figure 8)."""
    return interleave_streams(
        [
            linear_loop(int(1.4 * config.num_lines), accesses // 2),
            working_set(
                max(config.ways, config.num_lines // 4),
                accesses - accesses // 2,
                seed=seed,
                locality=0.3,
            ),
        ],
        weights=[0.7, 0.3],
        seed=seed + 1,
    )


def art_recipe(config: CacheConfig, accesses: int, seed: int) -> List[int]:
    """art: neural-net weight sweeps — loops slightly larger than the
    cache interleaved with a frequency-skewed kernel (LFU and MRU
    friendly).

    The kernel's per-set reuse distance exceeds the associativity, so
    recency cannot hold it against the loop's pollution while frequency
    counts can — and the loop itself favours MRU (Figure 8 shows MRU
    beneficial for art).
    """
    return interleave_streams(
        [
            linear_loop(int(1.3 * config.num_lines), accesses * 13 // 20),
            zipf_stream(
                max(4 * config.ways, config.num_lines // 2),
                accesses - accesses * 13 // 20,
                alpha=1.3,
                seed=seed,
            ),
        ],
        weights=[0.65, 0.35],
        seed=seed + 1,
    )


# ---------------------------------------------------------------------------
# The primary set: the 26 programs of Figures 3, 4, 6, 8.
# ---------------------------------------------------------------------------

_FP = BranchProfile(density=0.35, loop_bias=0.97, random_fraction=0.08)
_INT = BranchProfile(density=0.9, loop_bias=0.92, random_fraction=0.2)
_PTR = BranchProfile(density=1.0, loop_bias=0.9, random_fraction=0.3)
_MEDIA = BranchProfile(density=0.6, loop_bias=0.95, random_fraction=0.12)

PRIMARY_SET: List[WorkloadSpec] = [
    WorkloadSpec("ammp", "spec-fp", "phase", ammp_recipe, 4.0, 0.28, _FP),
    WorkloadSpec("applu", "spec-fp", "stream", stride_recipe(1.6, 5), 5.0, 0.3, _FP),
    WorkloadSpec("art-1", "spec-fp", "lfu", art_recipe, 4.0, 0.2, _FP),
    WorkloadSpec(
        "art-2", "spec-fp", "lfu",
        lambda cfg, n, seed: art_recipe(cfg, n, seed + 17), 4.0, 0.2, _FP,
    ),
    WorkloadSpec("bzip2", "spec-int", "lru", drift_recipe(0.7, 14.0), 2.5, 0.3, _INT),
    WorkloadSpec("equake", "spec-fp", "stream", stride_recipe(1.8, 3), 4.5, 0.25, _FP),
    WorkloadSpec("facerec", "spec-fp", "lru", drift_recipe(0.8, 10.0), 4.0, 0.25, _FP),
    WorkloadSpec("fma3d", "spec-fp", "lru", drift_recipe(0.9, 9.0), 4.5, 0.3, _FP),
    WorkloadSpec("ft", "pointer", "lfu", chase_recipe(1.6), 2.0, 0.2, _PTR),
    WorkloadSpec("gap", "spec-int", "lru", drift_recipe(0.6, 12.0), 2.5, 0.3, _INT),
    WorkloadSpec("gcc-1", "spec-int", "mru", gcc1_recipe, 2.5, 0.3, _INT),
    WorkloadSpec("gcc-2", "spec-int", "lru", drift_recipe(0.8, 16.0), 2.5, 0.3, _INT),
    WorkloadSpec("lucas", "spec-fp", "lru", drift_recipe(0.9, 20.0), 5.0, 0.25, _FP),
    WorkloadSpec("mcf", "spec-int", "lfu", chase_recipe(3.0), 1.5, 0.2, _PTR),
    WorkloadSpec("mgrid", "spec-fp", "phase", mgrid_recipe, 5.0, 0.3, _FP),
    WorkloadSpec("parser", "spec-int", "lru", drift_recipe(0.75, 13.0), 2.0, 0.3, _INT),
    WorkloadSpec("swim", "spec-fp", "stream", stride_recipe(2.0, 7), 5.5, 0.35, _FP),
    WorkloadSpec(
        "tiff2rgba", "mibench", "lfu", scan_hot_recipe(0.3, 0.45), 3.0, 0.35, _MEDIA,
    ),
    WorkloadSpec("twolf", "spec-int", "phase",
                 dither_recipe(1.2, 0.5, phase_per_set=32.0), 2.0, 0.3, _INT),
    WorkloadSpec("unepic", "mediabench", "dither",
                 dither_recipe(1.25, 0.3, phase_per_set=3.0), 3.0, 0.25, _MEDIA),
    WorkloadSpec("vpr-1", "spec-int", "lru", drift_recipe(0.7, 11.0), 2.5, 0.3, _INT),
    WorkloadSpec("vpr-2", "spec-int", "lru", drift_recipe(0.8, 15.0), 2.5, 0.3, _INT),
    WorkloadSpec("wupwise", "spec-fp", "stream", stride_recipe(1.5, 3), 5.0, 0.3, _FP),
    WorkloadSpec(
        "x11quake-1", "graphics", "lfu", scan_hot_recipe(0.35, 0.5), 3.0, 0.25, _MEDIA,
    ),
    WorkloadSpec(
        "x11quake-2", "graphics", "lfu", scan_hot_recipe(0.4, 0.55), 3.0, 0.25, _MEDIA,
    ),
    WorkloadSpec("xanim", "graphics", "lfu",
                 scan_hot_recipe(0.3, 0.5), 3.0, 0.3, _MEDIA),
]


# ---------------------------------------------------------------------------
# The extended set: 74 further programs, mostly cache-resident, completing
# the paper's 100-application robustness suite.
# ---------------------------------------------------------------------------


def _low(name: str, suite: str, hot: float) -> WorkloadSpec:
    gap = 4.0 if suite in ("spec-fp",) else 2.5
    return WorkloadSpec(
        name, suite, "low",
        resident_recipe(hot, 0.3),
        gap, 0.3, _INT if suite.endswith("int") else _MEDIA,
    )


_EXTENDED_EXTRA: List[WorkloadSpec] = [
    # SPEC CPU2000 integer, cache-resident inputs.
    _low("gzip-1", "spec-int", 0.35), _low("gzip-2", "spec-int", 0.5),
    _low("crafty", "spec-int", 0.3), _low("eon", "spec-int", 0.25),
    _low("perlbmk-1", "spec-int", 0.4), _low("perlbmk-2", "spec-int", 0.45),
    _low("vortex-1", "spec-int", 0.5), _low("vortex-2", "spec-int", 0.55),
    _low("vortex-3", "spec-int", 0.6),
    WorkloadSpec("gcc-3", "spec-int", "low", resident_recipe(0.55, 0.35),
                 2.5, 0.3, _INT),
    # SPEC CPU2000 floating point, resident or gently streaming.
    _low("mesa", "spec-fp", 0.4), _low("galgel", "spec-fp", 0.55),
    _low("apsi", "spec-fp", 0.5), _low("sixtrack", "spec-fp", 0.35),
    WorkloadSpec("ft-fft", "spec-fp", "low", stride_recipe(0.9, 3),
                 5.0, 0.3, _FP),
    # MediaBench codec pairs.
    WorkloadSpec("epic", "mediabench", "lfu", scan_hot_recipe(0.25, 0.5),
                 3.0, 0.25, _MEDIA),
    _low("g721enc", "mediabench", 0.2), _low("g721dec", "mediabench", 0.2),
    _low("gsmenc", "mediabench", 0.25), _low("gsmdec", "mediabench", 0.25),
    WorkloadSpec("jpegenc", "mediabench", "lfu", scan_hot_recipe(0.2, 0.4),
                 3.0, 0.3, _MEDIA),
    WorkloadSpec("jpegdec", "mediabench", "lfu", scan_hot_recipe(0.2, 0.45),
                 3.0, 0.3, _MEDIA),
    WorkloadSpec("mpeg2enc", "mediabench", "lfu", scan_hot_recipe(0.3, 0.4),
                 3.5, 0.3, _MEDIA),
    WorkloadSpec("mpeg2dec", "mediabench", "lfu", scan_hot_recipe(0.3, 0.5),
                 3.5, 0.3, _MEDIA),
    _low("pegwitenc", "mediabench", 0.3), _low("pegwitdec", "mediabench", 0.3),
    _low("rasta", "mediabench", 0.35),
    # MiBench embedded kernels.
    _low("basicmath", "mibench", 0.15), _low("bitcount", "mibench", 0.1),
    _low("qsort", "mibench", 0.45), _low("susan-s", "mibench", 0.3),
    _low("susan-e", "mibench", 0.3), _low("susan-c", "mibench", 0.3),
    WorkloadSpec("dijkstra", "mibench", "low", chase_recipe(0.5),
                 2.0, 0.2, _PTR),
    WorkloadSpec("patricia", "mibench", "low", chase_recipe(0.6),
                 2.0, 0.25, _PTR),
    _low("stringsearch", "mibench", 0.2), _low("blowfish", "mibench", 0.2),
    _low("rijndael", "mibench", 0.25), _low("sha", "mibench", 0.15),
    _low("adpcm", "mibench", 0.1), _low("crc32", "mibench", 0.1),
    WorkloadSpec("fft-mi", "mibench", "low", stride_recipe(0.8, 2),
                 4.0, 0.3, _FP),
    _low("gsm-mi", "mibench", 0.25), _low("lame", "mibench", 0.45),
   
    # BioBench.
    WorkloadSpec("tigr", "biobench", "dither", dither_recipe(1.2, 0.25, phase_per_set=2.5),
                 2.5, 0.25, _INT),
    WorkloadSpec("blastn", "biobench", "lru", drift_recipe(0.5, 9.0),
                 2.5, 0.25, _INT),
    WorkloadSpec("blastp", "biobench", "lru", drift_recipe(0.55, 8.0),
                 2.5, 0.25, _INT),
    _low("clustalw", "biobench", 0.4), _low("fasta-dna", "biobench", 0.5),
    _low("fasta-prot", "biobench", 0.45), _low("hmmer", "biobench", 0.5),
    WorkloadSpec("mummer", "biobench", "lfu", zipf_recipe(2.5, 1.25),
                 2.5, 0.2, _INT),
    _low("phylip", "biobench", 0.3),
    # Pointer-intensive suite (Austin et al.).
    WorkloadSpec("anagram", "pointer", "low", chase_recipe(0.4), 2.0, 0.2, _PTR),
    WorkloadSpec("bc", "pointer", "low", chase_recipe(0.5), 2.0, 0.25, _PTR),
    WorkloadSpec("ks", "pointer", "lfu", chase_recipe(1.3), 2.0, 0.2, _PTR),
    WorkloadSpec("yacr2", "pointer", "low", chase_recipe(0.6), 2.0, 0.25, _PTR),
    WorkloadSpec("tsp", "pointer", "lfu", chase_recipe(1.5), 2.0, 0.2, _PTR),
    WorkloadSpec("bh", "pointer", "low", chase_recipe(0.7), 2.5, 0.25, _PTR),
    WorkloadSpec("em3d", "pointer", "stream", stride_recipe(1.4, 3),
                 2.5, 0.25, _PTR),
    WorkloadSpec("health", "pointer", "lfu", chase_recipe(1.8), 2.0, 0.25, _PTR),
    WorkloadSpec("mst", "pointer", "low", chase_recipe(0.8), 2.0, 0.2, _PTR),
    WorkloadSpec("perimeter", "pointer", "low", chase_recipe(0.5),
                 2.0, 0.2, _PTR),
    WorkloadSpec("power", "pointer", "low", chase_recipe(0.45), 2.5, 0.25, _PTR),
    WorkloadSpec("treeadd", "pointer", "stream", stride_recipe(1.2, 1),
                 2.0, 0.2, _PTR),
    WorkloadSpec("tsort", "pointer", "low", chase_recipe(0.55), 2.0, 0.25, _PTR),
    # Graphics: 3D games and ray tracing.
    WorkloadSpec("quake3-1", "graphics", "lfu", scan_hot_recipe(0.4, 0.5),
                 3.0, 0.25, _MEDIA),
    WorkloadSpec("quake3-2", "graphics", "lfu", scan_hot_recipe(0.45, 0.55),
                 3.0, 0.25, _MEDIA),
    WorkloadSpec("raytrace-1", "graphics", "lru", drift_recipe(0.6, 10.0),
                 3.5, 0.2, _MEDIA),
    WorkloadSpec("raytrace-2", "graphics", "lru", drift_recipe(0.7, 12.0),
                 3.5, 0.2, _MEDIA),
    WorkloadSpec("povray", "graphics", "low", resident_recipe(0.5, 0.4),
                 3.5, 0.2, _MEDIA),
    WorkloadSpec("unreal", "graphics", "lfu", scan_hot_recipe(0.35, 0.45),
                 3.0, 0.25, _MEDIA),
    WorkloadSpec("doom3", "graphics", "lfu", scan_hot_recipe(0.4, 0.5),
                 3.0, 0.25, _MEDIA),
    WorkloadSpec("viewperf", "graphics", "stream", stride_recipe(1.3, 2),
                 3.5, 0.3, _MEDIA),
]

EXTENDED_SET: List[WorkloadSpec] = PRIMARY_SET + _EXTENDED_EXTRA

_BY_NAME: Dict[str, WorkloadSpec] = {spec.name: spec for spec in EXTENDED_SET}
if len(_BY_NAME) != len(EXTENDED_SET):
    raise RuntimeError("duplicate workload names in the suite")


def workload_names(primary_only: bool = False) -> List[str]:
    """Names of the suite's workloads, in figure order."""
    specs = PRIMARY_SET if primary_only else EXTENDED_SET
    return [spec.name for spec in specs]


def get_spec(name: str) -> WorkloadSpec:
    """Look up a workload by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}") from None


def build_workload(
    name: str,
    config: CacheConfig,
    accesses: int = 100_000,
    seed_offset: int = 0,
) -> Trace:
    """Materialize a named workload as a full instruction trace.

    Args:
        name: a suite workload name (see :func:`workload_names`).
        config: the target L2 configuration footprints scale against.
        accesses: number of memory references to generate.
        seed_offset: perturbs the per-name deterministic seed, for
            generating independent samples of the same workload.
    """
    if accesses <= 0:
        raise ValueError(f"accesses must be positive, got {accesses}")
    spec = get_spec(name)
    seed = workload_seed(name, seed_offset)
    stream = spec.recipe(config, accesses, seed)
    builder = WorkloadBuilder(
        seed=seed + 1,
        mean_gap=spec.mean_gap,
        write_fraction=spec.write_fraction,
        branches=spec.branches,
        line_bytes=config.line_bytes,
    )
    return builder.build(name, stream)
