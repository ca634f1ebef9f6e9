"""Synthetic workload traces.

The paper evaluates on ~100 SimPoint samples of SPEC2000 / MediaBench /
MiBench / BioBench / pointer-intensive / graphics programs compiled for
Alpha — binaries and simulation infrastructure we cannot rerun. What the
adaptive cache responds to, however, is each program's *locality class*
(temporal-reuse vs frequency-skew vs streaming loops vs phase changes),
so this package substitutes parameterized synthetic generators and gives
each named benchmark of the paper the locality class the paper reports
for it (see DESIGN.md, Section 2).
"""
