"""Experiment drivers, one per paper table/figure.

A sweep experiment's module declares its simulator cells
(``cells(setup, workloads)``) and renders their results
(``render(setup, sweep)``); any other module has a ``run``. Each
returns an ``ExperimentResult`` with the rows/series the paper
reports. ``repro-experiments`` (:mod:`repro.experiments.cli`, through
``run_experiment``) is their one caller.

Index (see DESIGN.md Section 4 for the full mapping):

========  ==================================================
fig3      L2 MPKI per benchmark, adaptive vs LRU vs LFU
fig4      CPI per benchmark, adaptive vs LRU vs LFU
fig5      partial-tag width sweep (MPKI/CPI vs full tags)
fig6      adaptive vs larger conventional caches
fig7      per-set policy-choice maps (ammp, mgrid)
fig8      FIFO/MRU adaptivity
fig9      benefit vs associativity
fig10     benefit vs store-buffer capacity
sec44     five-policy adaptivity
sec46     adaptivity at the L1 level
sec47     SBAR-like set sampling
storage   Section 3.2 SRAM accounting
theory    Appendix 2x miss bound, empirically
========  ==================================================
"""
