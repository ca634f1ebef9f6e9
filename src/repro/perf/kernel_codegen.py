"""Code generation for the columnar duel kernels.

One specialized function is generated (and compiled once, per process)
per (kindA, kindB) duel pair. The per-kind snippets below are spliced
into _TEMPLATE with the component suffix ({x} = "A"/"B") substituted, so
both shadows, the selector and the real directory are simulated in a
single fused loop with every piece of state in a local.

Identity obligations of each snippet set:

* ``prelude`` — bind the component's tables once per batch;
* ``imp``     — lift one set's shadow directory into loop-local form;
* ``step``    — advance the shadow one access, defining ``m{x}`` (missed)
  and ``v{x}`` (evicted shadow tag, None if filled into a free way);
* ``export``  — write the set's shadow state back, byte-identical to the
  scalar path's incremental updates;
* ``batch``   — whole-batch fixups (global clocks, fill stamps).

See :mod:`repro.perf.kernel` for the identity contract and the driver
that feeds these functions, and docs/performance.md for the design.
"""

from __future__ import annotations

from textwrap import dedent, indent

_SNIPPETS = {
    # LRU shadow: a recency-ordered dict tag->way (oldest first). Hits
    # pop+reinsert; the victim is the first key. The real per-set dict
    # and tag list are rebuilt at export in recency order.
    "lru": {
        "prelude": """\
            nTab{x} = comp{x}._nxt
            pTab{x} = comp{x}._prv
            """,
        "imp": """\
            ss{x} = sets{x}[s]
            nx{x} = nTab{x}[s]
            tg{x} = ss{x}._tags
            od{x} = {{}}
            _w = nx{x}[W]
            while _w != W:
                od{x}[tg{x}[_w]] = _w
                _w = nx{x}[_w]
            fre{x} = None
            if len(od{x}) < W:
                fre{x} = sorted((w for w in WAYS if tg{x}[w] is None), reverse=True)
            res{x} = od{x}
            miss{x} = 0
            """,
        "step": """\
            w{x} = od{x}.pop(tag, None)
            if w{x} is None:
                miss{x} += 1
                m{x} = True
                if fre{x}:
                    w{x} = fre{x}.pop()
                    v{x} = None
                else:
                    for v{x} in od{x}:
                        break
                    w{x} = od{x}.pop(v{x})
                od{x}[tag] = w{x}
            else:
                m{x} = False
                od{x}[tag] = w{x}
            """,
        "export": """\
            pr{x} = pTab{x}[s]
            _b = W
            for _w in od{x}.values():
                nx{x}[_b] = _w
                pr{x}[_w] = _b
                _b = _w
            nx{x}[_b] = W
            pr{x}[W] = _b
            for _w in WAYS:
                tg{x}[_w] = None
            _nd = {{}}
            for _t, _w in od{x}.items():
                tg{x}[_w] = _t
                _nd[_t] = _w
            ss{x}._tag_to_way = _nd
            psm{x}[s] += miss{x}
            miss{x}T += miss{x}
            """,
        "batch": "",
    },
    # FIFO shadow: dict insertion order *is* fill order in both the
    # scalar and columnar paths, so the real per-set dict is mutated in
    # place; only the intrusive queue is rebuilt at export.
    "fifo": {
        "prelude": """\
            nTab{x} = comp{x}._nxt
            pTab{x} = comp{x}._prv
            """,
        "imp": """\
            ss{x} = sets{x}[s]
            d{x} = ss{x}._tag_to_way
            tg{x} = ss{x}._tags
            fre{x} = None
            if len(d{x}) < W:
                fre{x} = sorted((w for w in WAYS if tg{x}[w] is None), reverse=True)
            res{x} = d{x}
            miss{x} = 0
            """,
        "step": """\
            w{x} = d{x}.get(tag)
            if w{x} is None:
                miss{x} += 1
                m{x} = True
                if fre{x}:
                    w{x} = fre{x}.pop()
                    v{x} = None
                else:
                    for v{x} in d{x}:
                        break
                    w{x} = d{x}.pop(v{x})
                d{x}[tag] = w{x}
                tg{x}[w{x}] = tag
            else:
                m{x} = False
            """,
        "export": """\
            nx{x} = nTab{x}[s]
            pr{x} = pTab{x}[s]
            _b = W
            for _w in d{x}.values():
                nx{x}[_b] = _w
                pr{x}[_w] = _b
                _b = _w
            nx{x}[_b] = W
            pr{x}[W] = _b
            psm{x}[s] += miss{x}
            miss{x}T += miss{x}
            """,
        "batch": "",
    },
    # LFU shadow: one composite int key per way, count*BIG + fill rank,
    # so the victim (min count, oldest fill, lowest way) is a single
    # min()/index() over a flat list. Absolute fill stamps are
    # reconstructed at batch end from the global fill order.
    "lfu": {
        "prelude": """\
            cTab{x} = comp{x}._count
            sTab{x} = comp{x}._fill_stamp
            clk0{x} = comp{x}._clock
            sat{x} = comp{x}._max_count * BIG
            aFill{x} = []
            eLfu{x} = []
            """,
        "imp": """\
            ss{x} = sets{x}[s]
            d{x} = ss{x}._tag_to_way
            tg{x} = ss{x}._tags
            cr{x} = cTab{x}[s]
            st{x} = sTab{x}[s]
            key{x} = [0] * W
            ls{x} = 0
            for _w in sorted((w for w in WAYS if tg{x}[w] is not None), key=st{x}.__getitem__):
                ls{x} += 1
                key{x}[_w] = cr{x}[_w] * BIG + ls{x}
            ls0{x} = ls{x}
            fre{x} = None
            if ls{x} < W:
                fre{x} = sorted((w for w in WAYS if tg{x}[w] is None), reverse=True)
            fil{x} = []
            res{x} = d{x}
            miss{x} = 0
            """,
        "step": """\
            w{x} = d{x}.get(tag)
            if w{x} is None:
                miss{x} += 1
                m{x} = True
                if fre{x}:
                    w{x} = fre{x}.pop()
                    v{x} = None
                else:
                    w{x} = key{x}.index(min(key{x}))
                    v{x} = tg{x}[w{x}]
                    del d{x}[v{x}]
                d{x}[tag] = w{x}
                tg{x}[w{x}] = tag
                ls{x} += 1
                key{x}[w{x}] = BIG + ls{x}
                fil{x}.append(gi)
            else:
                m{x} = False
                _k = key{x}[w{x}]
                if _k < sat{x}:
                    key{x}[w{x}] = _k + BIG
            """,
        "export": """\
            for _w in WAYS:
                _k = key{x}[_w]
                if _k:
                    cr{x}[_w] = _k // BIG
            if fil{x}:
                eLfu{x}.append((st{x}, key{x}, ls0{x}, fil{x}))
                aFill{x}.extend(fil{x})
            psm{x}[s] += miss{x}
            miss{x}T += miss{x}
            """,
        "batch": """\
            if aFill{x}:
                _mk = np.zeros(n, dtype=np.int64)
                _mk[aFill{x}] = 1
                _rk = _mk.cumsum().tolist()
                _c0 = clk0{x}
                for _st, _key, _l0, _fl in eLfu{x}:
                    for _w in WAYS:
                        _ls = _key[_w] % BIG
                        if _ls > _l0:
                            _st[_w] = _c0 + _rk[_fl[_ls - _l0 - 1]]
            comp{x}._clock = clk0{x} + len(aFill{x})
            """,
    },
    # MRU shadow: absolute global stamps written straight into the
    # policy's stamp rows (every access touches, so the clock advance per
    # access equals the arrival rank).
    "mru": {
        "prelude": """\
            sTab{x} = comp{x}._stamp
            base{x} = comp{x}._clock + 1
            """,
        "imp": """\
            ss{x} = sets{x}[s]
            d{x} = ss{x}._tag_to_way
            tg{x} = ss{x}._tags
            lt{x} = sTab{x}[s]
            fre{x} = None
            if len(d{x}) < W:
                fre{x} = sorted((w for w in WAYS if tg{x}[w] is None), reverse=True)
            res{x} = d{x}
            miss{x} = 0
            """,
        "step": """\
            w{x} = d{x}.get(tag)
            if w{x} is None:
                miss{x} += 1
                m{x} = True
                if fre{x}:
                    w{x} = fre{x}.pop()
                    v{x} = None
                else:
                    w{x} = lt{x}.index(max(lt{x}))
                    v{x} = tg{x}[w{x}]
                    del d{x}[v{x}]
                d{x}[tag] = w{x}
                tg{x}[w{x}] = tag
            else:
                m{x} = False
            lt{x}[w{x}] = gi + base{x}
            """,
        "export": """\
            psm{x}[s] += miss{x}
            miss{x}T += miss{x}
            """,
        "batch": """\
            comp{x}._clock += n
            """,
    },
}

# Selector step: the bit-vector window as one int (bit=1 means component
# A missed the decisive event), counts and best as scalars. A full,
# unanimous window shifts into itself when the event blames the same
# loser again (win stays WMASK or 0): counts, window and best are
# unchanged, so the guards elide that provable no-op update.
_SELECTOR_STEP = """\
if mA != mB:
    if nev == WIN:
        if mA:
            if win != WMASK:
                cntA += 1 - ((win >> WIN1) & 1)
                win = ((win << 1) | 1) & WMASK
                nb = 0 if cntA + cntA <= nev else 1
                if nb != best:
                    best = nb
                    switches += 1
        elif win != 0:
            cntA -= (win >> WIN1) & 1
            win = (win << 1) & WMASK
            nb = 0 if cntA + cntA <= nev else 1
            if nb != best:
                best = nb
                switches += 1
    else:
        if mA:
            win = (win << 1) | 1
            cntA += 1
        else:
            win = win << 1
        nev += 1
        nb = 0 if cntA + cntA <= nev else 1
        if nb != best:
            best = nb
            switches += 1
"""

# Real-directory step, Algorithm 1's victim selection inlined: imitate
# the chosen component's eviction when resident, else the first way not
# resident in the chosen shadow, else the LRU fallback.
_REAL_STEP_RO = """\
wR = dR.get(tag)
if wR is not None:
    hitsR += 1
    ltR[wR] = gi + baseAd
    if rec is not None:
        rec[gi] = True
    continue
missR += 1
if freR:
    wR = freR.pop()
else:
    evR += 1
    if cntA + cntA <= nev:
        d0 += 1
        cm = mA
        cv = vA
        resC = resA
    else:
        d1 += 1
        cm = mB
        cv = vB
        resC = resB
    wR = dR.get(cv) if cm and cv is not None else None
    if wR is None:
        for wR in WAYS:
            if tgR[wR] not in resC:
                break
        else:
            fb += 1
            wR = ltR.index(min(ltR))
    del dR[tgR[wR]]
    if dyR[wR]:
        wbR += 1
dR[tag] = wR
tgR[wR] = tag
dyR[wR] = False
ltR[wR] = gi + baseAd
"""

_REAL_STEP_RW = """\
wR = dR.get(tag)
if wR is not None:
    hitsR += 1
    ltR[wR] = gi + baseAd
    if is_write:
        dyR[wR] = True
    if rec is not None:
        rec[gi] = True
    continue
missR += 1
if freR:
    wR = freR.pop()
else:
    evR += 1
    if cntA + cntA <= nev:
        d0 += 1
        cm = mA
        cv = vA
        resC = resA
    else:
        d1 += 1
        cm = mB
        cv = vB
        resC = resB
    wR = dR.get(cv) if cm and cv is not None else None
    if wR is None:
        for wR in WAYS:
            if tgR[wR] not in resC:
                break
        else:
            fb += 1
            wR = ltR.index(min(ltR))
    del dR[tgR[wR]]
    if dyR[wR]:
        wbR += 1
dR[tag] = wR
tgR[wR] = tag
dyR[wR] = is_write
ltR[wR] = gi + baseAd
"""

_TEMPLATE = """\
def _kernel(cache, n, touched, starts, tagsL, gisL, writesL, rec):
    policy = cache.policy
    compA = policy.components[0]
    compB = policy.components[1]
    shadowA = policy.shadows[0]
    shadowB = policy.shadows[1]
    selectors = policy.selectors
    setsR = cache.sets
    setsA = shadowA.sets
    setsB = shadowB.sets
    stampT = policy._stamp
    decisions = policy._decisions
    psmR = cache.stats.per_set_misses
    psmA = shadowA.per_set_misses
    psmB = shadowB.per_set_misses
    W = cache.config.ways
    WAYS = range(W)
    BIG = n + W + 2
    baseAd = policy._clock + 1
    hitsT = missT = evT = wbT = fbT = 0
    missAT = missBT = 0
{prelude_a}
{prelude_b}
    for s in touched:
        lo = starts[s]
        hi = starts[s + 1]
        csR = setsR[s]
        dR = csR._tag_to_way
        tgR = csR._tags
        dyR = csR._dirty
        ltR = stampT[s]
        freR = None
        if len(dR) < W:
            freR = sorted((w for w in WAYS if tgR[w] is None), reverse=True)
{imp_a}
{imp_b}
        sel = selectors[s]
        hist = sel.history
        WIN = hist.window
        WIN1 = WIN - 1
        WMASK = (1 << WIN) - 1
        win = 0
        for _ev in hist._events:
            win = (win << 1) | (1 if _ev[0] else 0)
        nev = len(hist._events)
        cntA = hist._counts[0]
        best = sel._best
        switches = 0
        d0 = d1 = 0
        vA = vB = None
        missR = hitsR = fb = evR = wbR = 0
        if writesL is None:
            for tag, gi in zip(tagsL[lo:hi], gisL[lo:hi]):
{step_a_ro}
{step_b_ro}
{selector_ro}
{real_ro}
        else:
            for tag, gi, is_write in zip(tagsL[lo:hi], gisL[lo:hi], writesL[lo:hi]):
{step_a_rw}
{step_b_rw}
{selector_rw}
{real_rw}
        hitsT += hitsR
        missT += missR
        evT += evR
        wbT += wbR
        fbT += fb
        psmR[s] += missR
        if d0:
            decisions[s][0] += d0
        if d1:
            decisions[s][1] += d1
{export_a}
{export_b}
        _evq = deque(maxlen=WIN)
        for _j in range(nev - 1, -1, -1):
            _b = (win >> _j) & 1
            _evq.append((_b == 1, _b == 0))
        hist._events = _evq
        hist._counts = [cntA, nev - cntA]
        sel._best = best
        if switches:
            sel.switches += switches
{batch_a}
{batch_b}
    shadowA.accesses += n
    shadowB.accesses += n
    shadowA.misses += missAT
    shadowB.misses += missBT
    policy._clock += n
    policy.fallback_evictions += fbT
    policy.drop_derived_state()
    stats = cache.stats
    stats.accesses += n
    stats.hits += hitsT
    stats.misses += missT
    stats.evictions += evT
    stats.writebacks += wbT
    return hitsT
"""


def _splice(snippet: str, x: str, depth: int) -> str:
    """Substitute the component suffix and indent to the splice depth."""
    return indent(dedent(snippet).rstrip("\n").format(x=x), " " * depth)


def build_duel_source(kind_a: str, kind_b: str) -> str:
    """The generated source of the (kind_a, kind_b) duel kernel
    (exposed for tests and for reading alongside docs/performance.md)."""
    snip_a = _SNIPPETS[kind_a]
    snip_b = _SNIPPETS[kind_b]
    fixed = indent(_SELECTOR_STEP.rstrip("\n"), " " * 16)
    return _TEMPLATE.format(
        prelude_a=_splice(snip_a["prelude"], "A", 4),
        prelude_b=_splice(snip_b["prelude"], "B", 4),
        imp_a=_splice(snip_a["imp"], "A", 8),
        imp_b=_splice(snip_b["imp"], "B", 8),
        step_a_ro=_splice(snip_a["step"], "A", 16),
        step_b_ro=_splice(snip_b["step"], "B", 16),
        selector_ro=fixed,
        real_ro=indent(_REAL_STEP_RO.rstrip("\n"), " " * 16),
        step_a_rw=_splice(snip_a["step"], "A", 16),
        step_b_rw=_splice(snip_b["step"], "B", 16),
        selector_rw=fixed,
        real_rw=indent(_REAL_STEP_RW.rstrip("\n"), " " * 16),
        export_a=_splice(snip_a["export"], "A", 8),
        export_b=_splice(snip_b["export"], "B", 8),
        batch_a=_splice(snip_a["batch"], "A", 4),
        batch_b=_splice(snip_b["batch"], "B", 4),
    )


