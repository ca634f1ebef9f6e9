"""A fault-tolerant distributed cache cluster over the online engine.

Routes keyspace fingerprints across a consistent-hash ring of
single-shard :class:`~repro.online.engine.AdaptiveKVCache` members
(optionally persistent), with N-way replication, write quorums,
versioned read-repair, hedged reads and crash/partition recovery, all
in the one router; members fault through their own lifecycle. See
``docs/cluster.md`` for the architecture and the invariants the
cluster must keep.
"""
