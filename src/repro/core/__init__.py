"""The paper's contribution: adaptive cache replacement.

* :class:`~repro.core.partial.PartialTagScheme` — Section 3.1's
  partial tags.
* :class:`~repro.core.history.BitVectorHistory` /
  :class:`~repro.core.history.CounterHistory` /
  :class:`~repro.core.history.SaturatingCounterHistory` — Section
  2.2's miss history buffers.
* :class:`~repro.core.adaptive.AdaptivePolicy` — Algorithm 1,
  generalized to N components.
* :func:`~repro.core.multi.make_adaptive` /
  :func:`~repro.core.multi.five_policy_adaptive` — convenience
  constructors (Section 4.4's design-space exploration).
* :class:`~repro.core.sbar.SbarPolicy` — the set-sampling variant of
  Section 4.7.
* :class:`~repro.core.selector.PolicySelector` /
  :class:`~repro.core.selector.GlobalSelector` — the adaptation
  decisions themselves, decoupled from set indexing so the online
  key-value engine (:mod:`repro.online`) can reuse them per shard.
* :mod:`repro.core.theory` — empirical checks of the Appendix's 2x bound.
"""
