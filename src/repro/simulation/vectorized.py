"""Vectorized engine backend: columnar state, event-driven round batches.

Third engine core next to the sparse and dense modes of the round
driver in :mod:`repro.simulation.engine`.  The design
splits the work by batch width, because numpy only pays for itself on
wide operands (per-call dispatch overhead is ~1µs, which dwarfs the work
on a handful of colors):

* **Construction** ("compile") reads the sequence's per-boundary
  arrival counts (``arrival_counts``, the same counts the sparse and
  dense modes read, derived once per sequence) into round-indexed
  arrival events and per-color batch columns; the run loop walks the
  boundary rounds of the calendar every batched engine builds.  This
  happens once in ``__init__`` — outside the timed run loop, the same
  place the other cores build their ``ColorState`` maps.
* **The run loop** visits only boundary rounds (integral multiples of
  some color's delay bound — the only rounds where drop/arrival/state
  change; see the sparse-core exactness argument).  Between boundaries,
  execution drains in closed form ``min(pending, copies · speed · dt)``,
  with the reconfiguration kernel re-run only at drain events that can
  change admissions.  Per-boundary updates touch a handful of colors and
  run as unboxed scalar operations over the working columns.
* **The stable tail** is the genuinely columnar phase: once no uncached
  color can ever become eligible again (no remaining arrivals for any
  uncached color — always reached on dense EXP-S cells, where capacity
  covers every color), the cache is provably frozen for the rest of the
  horizon and every remaining boundary of every color is settled in one
  batch of numpy column operations per color (vectorized drop/execute
  accounting over its whole remaining arrival column).

Exactness
---------
The fast path replicates the dense core event for event:

* Arrivals only land on the arriving color's own boundaries (the
  instance validates it), so per-boundary arrival counts are a complete
  description of the workload.
* Within a span between consecutive boundary rounds, eligibility,
  deadlines, and timestamps are frozen; only ``pending`` decreases.  The
  three supported kernels are no-ops whenever there is no eligible
  uncached color, and can only act mid-span when an eligible uncached
  color is nonidle — which is exactly when the loop re-runs the kernel
  (at pending-drain events).
* The kernels replicate the scheme ``reconfigure`` passes verbatim
  (insertion and eviction *order* included, since
  :meth:`CachePool.insert` prefers slots physically holding the color
  and order therefore decides physical reconfiguration costs).

The fast path is only taken for ``record="costs"`` runs with no
instrumentation attached (no tracer/profiler/registry) and one
of the four paper schemes; anything else — full-record runs, attached
monitors, randomized and credit schemes — falls back to the faithful
sparse core, which honors the ``stationary``/``reset(seed)`` contract
for every scheme and emits the identical obs stream.  A
``reconfig_observer`` *is* supported on the fast path (reduction
pipelines stream outer costs through it in ``record="costs"`` mode).
"""

from __future__ import annotations

from bisect import insort

import numpy as np

from repro.algorithms.dlru import DeltaLRU
from repro.algorithms.dlru_edf import DeltaLRUEDF
from repro.algorithms.edf import EDF
from repro.algorithms.seq_edf import SeqEDF
from repro.simulation.engine import BatchedEngine

__all__ = ["VectorizedEngine"]

#: Scheme types with a hand-vectorized kernel.  Matched by *exact* type:
#: a subclass may override ``reconfigure`` and must fall back to the
#: faithful core.
_KERNEL_SCHEMES = (DeltaLRU, EDF, DeltaLRUEDF, SeqEDF)


class VectorizedEngine(BatchedEngine):
    """Columnar costs-mode engine with a faithful sparse fallback.

    Accepts the same arguments as :class:`BatchedEngine` except
    ``engine`` (the fallback is always the sparse mode; the dense mode
    is reachable as its own backend).  Results are bit-identical to
    both existing cores: same ``CostBreakdown`` counters, same schedule
    and trace on the fallback path, same obs stream.
    """

    def __init__(
        self,
        instance,
        scheme,
        num_resources: int,
        *,
        copies: int = 2,
        speed: int = 1,
        record: str = "full",
        start_round: int = 0,
        tracer=None,
        registry=None,
        profiler=None,
        reconfig_observer=None,
    ) -> None:
        super().__init__(
            instance,
            scheme,
            num_resources,
            copies=copies,
            speed=speed,
            record=record,
            start_round=start_round,
            tracer=tracer,
            registry=registry,
            profiler=profiler,
            reconfig_observer=reconfig_observer,
        )
        self.engine_name = "vectorized"
        # The columnar path compiles the *whole* request sequence up
        # front and assumes it owns the run from round 0 with empty
        # initial state.  An engine started mid-run runs the faithful
        # sparse core under the vectorized backend name, which is
        # cost-exact by the parity property tests.  (Streaming sessions
        # build the sparse core directly: the compile is O(total jobs),
        # which contradicts their O(pending) bound.)
        self._vector_path = (
            start_round == 0
            and record == "costs"
            and self.tracer is None
            and self.profiler is None
            and self.obs is None
            and type(scheme) in _KERNEL_SCHEMES
        )
        if self._vector_path:
            self._compile()

    def import_state(self, state: dict) -> None:
        """Restore a checkpoint; forces the faithful sparse core.

        The columnar compile bakes in empty initial state (zero
        counters, empty cache columns), so a restored engine must run
        the sparse fallback — it honors arbitrary initial state and is
        bit-identical on costs.
        """
        super().import_state(state)
        self._vector_path = False

    # ------------------------------------------------------------ compile

    def _compile(self) -> None:
        """Ingest the instance as columns; build the arrival events and
        per-color state."""
        instance = self.instance
        colors = sorted(instance.spec.delay_bounds)
        C = len(colors)
        self._colors = colors
        self._C = C
        bounds_arr = np.asarray(
            [instance.spec.delay_bounds[c] for c in colors], dtype=np.int64
        )
        self._bounds_arr = bounds_arr

        #: Authoritative per-color state store.  The run loop works on
        #: unboxed column views (plain lists) and writes the final state
        #: back; the stable tail operates on the numpy columns directly.
        self._state = np.zeros(
            C,
            dtype=[
                ("delay_bound", np.int64),
                ("cnt", np.int64),
                ("pending", np.int64),
                ("last_wrap", np.int64),
                ("prev_wrap", np.int64),
                ("eligible", np.bool_),
                ("cached", np.bool_),
            ],
        )
        self._state["delay_bound"] = bounds_arr
        self._state["last_wrap"] = -1
        self._state["prev_wrap"] = -1

        # Round-indexed view for the event loop, round -> [(i, count)]
        # in color order, and color-indexed columns for the stable tail:
        # per color, the ascending rounds and sizes of its batches.
        index = {color: i for i, color in enumerate(colors)}
        counts = instance.sequence.arrival_counts
        arrival_events: dict[int, list[tuple[int, int]]] = {}
        rounds_by_color: list[list[int]] = [[] for _ in colors]
        sizes_by_color: list[list[int]] = [[] for _ in colors]
        for k in sorted(counts):
            events = sorted((index[c], a) for c, a in counts[k].items() if a)
            if events:
                arrival_events[k] = events
            for i, a in events:
                rounds_by_color[i].append(k)
                sizes_by_color[i].append(a)
        self._arrival_events = arrival_events
        self._batch_rounds_by_color = [
            np.asarray(r, dtype=np.int64) for r in rounds_by_color
        ]
        self._batch_sizes_by_color = [
            np.asarray(a, dtype=np.int64) for a in sizes_by_color
        ]

    # ---------------------------------------------------------------- run

    def _run_rounds(self) -> None:
        if self._vector_path:
            self._run_vector()
        else:
            super()._run_rounds()

    def _run_vector(self) -> None:
        instance = self.instance
        horizon = instance.horizon
        delta = self.delta
        copies = self.copies
        speed = self.speed
        colors = self._colors
        C = self._C
        cache = self.cache
        capacity = cache.capacity
        scheme = self.scheme
        observer = self._reconfig_observer

        # Unboxed working columns (list indexing is ~4x cheaper than
        # numpy scalar indexing; the per-boundary batches are narrow).
        D = self._state["delay_bound"].tolist()
        cnt = self._state["cnt"].tolist()
        pend = self._state["pending"].tolist()
        last_wrap = self._state["last_wrap"].tolist()
        prev_wrap = self._state["prev_wrap"].tolist()
        eligible = self._state["eligible"].tolist()
        cached = self._state["cached"].tolist()

        eligible_sorted: list[int] = []
        cached_set: set[int] = set()
        num_elig_uncached = 0
        pending_set: set[int] = set()
        # Colors that are uncached and still have arrival batches ahead:
        # while any exist, an uncached color may still wrap eligible and
        # wake the kernel, so the columnar tail cannot start.
        batches_left = [len(r) for r in self._batch_rounds_by_color]
        num_uncached_live = sum(1 for b in batches_left if b)

        # Cost accumulators, folded into self.cost at the end.  One
        # record_* call per color keeps the Counter contents identical
        # to the per-event dense-core calls (sums and zero entries both).
        exec_acc = [0] * C
        drop_elig_acc = [0] * C
        drop_inel_acc = [0] * C
        reconfig_acc = [0] * C
        reconfig_called = [False] * C

        kernel = {
            DeltaLRU: self._kernel_dlru,
            EDF: self._kernel_edf,
            SeqEDF: self._kernel_edf,
            DeltaLRUEDF: self._kernel_dlru_edf,
        }[type(scheme)]

        def insert(i: int) -> None:
            nonlocal num_elig_uncached, num_uncached_live
            _slot, reconfigured, _old = cache.insert(colors[i])
            if observer is not None and reconfigured:
                observer(colors[i], reconfigured)
            cached[i] = True
            cached_set.add(i)
            reconfig_called[i] = True
            reconfig_acc[i] += len(reconfigured)
            if eligible[i]:
                num_elig_uncached -= 1
            if batches_left[i]:
                num_uncached_live -= 1

        def evict(i: int) -> None:
            nonlocal num_elig_uncached, num_uncached_live
            cache.evict(colors[i])
            cached[i] = False
            cached_set.discard(i)
            if eligible[i]:
                num_elig_uncached += 1
            if batches_left[i]:
                num_uncached_live += 1

        ctx = _KernelContext(
            D=D,
            pend=pend,
            last_wrap=last_wrap,
            prev_wrap=prev_wrap,
            cached=cached,
            cached_set=cached_set,
            eligible_sorted=eligible_sorted,
            lru=None,
            capacity=capacity,
            insert=insert,
            evict=evict,
            is_full=cache.is_full,
        )

        boundary_rounds = self._event_rounds
        arrival_events = self._arrival_events
        nB = len(boundary_rounds)
        rounds_processed = 0
        tail_from: int | None = None

        for bi in range(nB):
            k = boundary_rounds[bi]
            rounds_processed += 1
            if k:
                # Drop phase: only colors with pending work can drop ...
                if pending_set:
                    for i in [j for j in pending_set if k % D[j] == 0]:
                        p = pend[i]
                        if eligible[i]:
                            drop_elig_acc[i] += p
                        else:
                            drop_inel_acc[i] += p
                        pend[i] = 0
                        pending_set.discard(i)
                # ... and only eligible uncached colors lose eligibility.
                if num_elig_uncached:
                    for i in [
                        j
                        for j in eligible_sorted
                        if not cached[j] and k % D[j] == 0
                    ]:
                        eligible[i] = False
                        cnt[i] = 0
                        num_elig_uncached -= 1
                        eligible_sorted.remove(i)
            arrs = arrival_events.get(k)
            if arrs:
                for i, a in arrs:
                    c = cnt[i] + a
                    if c >= delta:
                        c %= delta
                        prev_wrap[i] = last_wrap[i]
                        last_wrap[i] = k
                        if not eligible[i]:
                            eligible[i] = True
                            insort(eligible_sorted, i)
                            num_elig_uncached += 1
                    cnt[i] = c
                    if not pend[i]:
                        pending_set.add(i)
                    pend[i] += a
                    batches_left[i] -= 1
                    if not batches_left[i] and not cached[i]:
                        num_uncached_live -= 1

            if not num_elig_uncached and not num_uncached_live:
                # Cache provably frozen for the rest of the horizon:
                # settle every remaining boundary columnar.
                tail_from = k
                rounds_processed += nB - bi - 1
                break

            if not pending_set and not num_elig_uncached:
                continue

            next_k = boundary_rounds[bi + 1] if bi + 1 < nB else horizon
            minis = (next_k - k) * speed
            ctx.lru = None  # eligibility or timestamps may have moved
            t = 0
            while t < minis:
                if num_elig_uncached:
                    kernel(ctx, k)
                drain = [i for i in pending_set if cached[i]]
                if not drain:
                    break
                if num_elig_uncached and any(
                    not cached[i] and pend[i] for i in eligible_sorted
                ):
                    # An eligible uncached color is nonidle: a drain
                    # event can change admissions, so step to it.
                    dt = min(minis - t, min(-(-pend[i] // copies) for i in drain))
                else:
                    dt = minis - t
                cap = copies * dt
                for i in drain:
                    p = pend[i]
                    if p <= cap:
                        exec_acc[i] += p
                        pend[i] = 0
                        pending_set.discard(i)
                    else:
                        exec_acc[i] += cap
                        pend[i] = p - cap
                t += dt

        if tail_from is not None:
            cps = copies * speed
            for i in range(C):
                left = batches_left[i]
                rounds_i = self._batch_rounds_by_color[i]
                if cached[i]:
                    d = D[i]
                    p0 = pend[i]
                    if p0:
                        nb = (tail_from // d + 1) * d
                        window = min(nb, horizon) - tail_from
                        done = min(p0, cps * window)
                        exec_acc[i] += done
                        pend[i] = p0 - done
                        if nb < horizon and pend[i]:
                            drop_elig_acc[i] += pend[i]
                            pend[i] = 0
                    if left:
                        r = rounds_i[-left:]
                        a = self._batch_sizes_by_color[i][-left:]
                        window = np.minimum(r + d, horizon) - r
                        done = np.minimum(a, cps * window)
                        exec_acc[i] += int(done.sum())
                        leftover = a - done
                        dropped = leftover[r + d < horizon]
                        drop_elig_acc[i] += int(dropped.sum())
                        # The final batch's remainder (if any) survives
                        # past the horizon undropped.
                        pend[i] = int(leftover.sum() - dropped.sum())
                elif pend[i]:
                    # Uncached colors have no arrivals left (tail
                    # precondition); their pending drops ineligible at
                    # their next boundary, if one exists.
                    if (tail_from // D[i] + 1) * D[i] < horizon:
                        drop_inel_acc[i] += pend[i]
                        pend[i] = 0

        cost = self.cost
        for i in range(C):
            if reconfig_called[i]:
                cost.record_reconfig(colors[i], reconfig_acc[i])
            if drop_elig_acc[i]:
                cost.record_drop(colors[i], drop_elig_acc[i], eligible=True)
            if drop_inel_acc[i]:
                cost.record_drop(colors[i], drop_inel_acc[i], eligible=False)
            if exec_acc[i]:
                cost.record_execution(colors[i], exec_acc[i])

        self.rounds_executed = rounds_processed
        self.round_index = horizon

        state = self._state
        state["cnt"] = cnt
        state["pending"] = pend
        state["last_wrap"] = last_wrap
        state["prev_wrap"] = prev_wrap
        state["eligible"] = eligible
        state["cached"] = cached

    # ------------------------------------------------------------ kernels
    #
    # Each kernel replicates the corresponding scheme's ``reconfigure``
    # pass over the working columns, including insert/evict order.  All
    # three are no-ops when no eligible color is uncached, which the run
    # loop uses as the skip predicate.

    @staticmethod
    def _timestamps(ctx: "_KernelContext", now: int) -> list[int]:
        D, lw, pw = ctx.D, ctx.last_wrap, ctx.prev_wrap
        out = []
        for i in ctx.eligible_sorted:
            km = (now // D[i]) * D[i]
            l = lw[i]
            if 0 <= l < km:
                out.append(l)
            elif 0 <= pw[i] < km:
                out.append(pw[i])
            else:
                out.append(0)
        return out

    @classmethod
    def _lru_order(cls, ctx: "_KernelContext", now: int) -> list[int]:
        """Eligible colors by ΔLRU recency, derived once per span.

        Eligibility and timestamps only move at boundary rounds, so the
        kernel calls after drain events inside one span reuse the order
        (the run loop clears ``ctx.lru`` at each boundary round).
        """
        order = ctx.lru
        if order is None:
            ts = cls._timestamps(ctx, now)
            order = ctx.lru = [
                i
                for _, i in sorted(
                    (-t, i) for t, i in zip(ts, ctx.eligible_sorted)
                )
            ]
        return order

    @classmethod
    def _kernel_dlru(cls, ctx: "_KernelContext", now: int) -> None:
        lru_order = cls._lru_order(ctx, now)
        desired = set(lru_order[: ctx.capacity])
        for i in sorted(ctx.cached_set - desired):
            ctx.evict(i)
        cached = ctx.cached
        for i in lru_order:
            if i in desired and not cached[i]:
                ctx.insert(i)

    @staticmethod
    def _ranking(ctx: "_KernelContext", now: int) -> list[int]:
        D, pend = ctx.D, ctx.pend
        return [
            key[3]
            for key in sorted(
                (pend[i] == 0, (now // D[i] + 1) * D[i], D[i], i)
                for i in ctx.eligible_sorted
            )
        ]

    @classmethod
    def _kernel_edf(cls, ctx: "_KernelContext", now: int) -> None:
        ranking = cls._ranking(ctx, now)
        cached, pend = ctx.cached, ctx.pend
        for i in ranking[: ctx.capacity]:
            if not pend[i] or cached[i]:
                continue
            if ctx.is_full():
                for victim in reversed(ranking):
                    if cached[victim]:
                        ctx.evict(victim)
                        break
            ctx.insert(i)

    def _kernel_dlru_edf(self, ctx: "_KernelContext", now: int) -> None:
        capacity = ctx.capacity
        lru_capacity = int(capacity * self.scheme.lru_fraction)
        edf_capacity = capacity - lru_capacity
        lru_order = self._lru_order(ctx, now)
        lru_set = set(lru_order[:lru_capacity])
        non_lru = [i for i in self._ranking(ctx, now) if i not in lru_set]
        cached, pend = ctx.cached, ctx.pend

        def evict_lowest_ranked() -> None:
            for victim in reversed(non_lru):
                if cached[victim]:
                    ctx.evict(victim)
                    return
            raise RuntimeError(
                "cache full of LRU colors; capacity split leaves no EDF room"
            )

        for i in lru_order[:lru_capacity]:
            if cached[i]:
                continue
            if ctx.is_full():
                evict_lowest_ranked()
            ctx.insert(i)
        for i in non_lru[:edf_capacity]:
            if pend[i] and not cached[i]:
                if ctx.is_full():
                    evict_lowest_ranked()
                ctx.insert(i)


class _KernelContext:
    """Unboxed engine state shared between the run loop and kernels."""

    __slots__ = (
        "D",
        "pend",
        "last_wrap",
        "prev_wrap",
        "cached",
        "cached_set",
        "eligible_sorted",
        "lru",
        "capacity",
        "insert",
        "evict",
        "is_full",
    )

    def __init__(self, **kwargs) -> None:
        for name, value in kwargs.items():
            setattr(self, name, value)
