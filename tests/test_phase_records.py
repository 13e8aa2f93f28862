"""Per-phase pricing records against a brute force that phases the numerics.

``summa_multiply`` computes, merges and prunes every block column once, at
full width, and records each product once: its per-column flops and
column pointer at full width, from which the pricing pass counts every
phase's share, and per phase the merge events replayed on sizes (None
where the phase's slab is empty, so the phase does not price it).  The
oracle here shares none of that: it multiplies every phase slab on its
own with ``spgemm_esc``, runs the merge schedule on the real lists and
reads the records off them — what the engine did before the phases left
the numerics — and joins each product's phase pieces.  Fed into the same
pricing pass, the oracle's records must reproduce every ``SummaResult``
field, the trace, every rank clock and every ``charge_column_prune``
argument.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.summa.engine as engine
from repro.machine import SUMMIT_LIKE
from repro.merge import SCHEDULES, TripleList, merge_lists
from repro.mpi import ProcessGrid, VirtualComm
from repro.sparse import csc_from_triples
from repro.spgemm.esc import spgemm_esc
from repro.summa import DistributedCSC, SummaConfig, summa_multiply


def brute_records(dist_a, dist_b, phases, kind):
    """The pricing records, from multiplying each phase's slabs."""
    q = dist_a.grid.q
    pieces = {}
    blocks = [{} for _ in range(phases)]
    for j in range(q):
        width = dist_b.block(0, j).ncols
        base, extra = divmod(width, phases)
        lo = 0
        for p in range(phases):
            hi = lo + base + (1 if p < extra else 0)
            for i in range(q):
                schedule = SCHEDULES[kind](
                    (dist_a.block(i, 0).nrows, hi - lo),
                    lambda lists: merge_lists(lists, copy=False),
                )
                for k in range(q):
                    a = dist_a.block(i, k)
                    slab = dist_b.block(k, j).column_slab(lo, hi)
                    if not (a.nnz and slab.nnz):
                        continue
                    product, per_col = spgemm_esc(
                        a, slab, kernel_order=True
                    )
                    seen = len(schedule.events)
                    schedule.push(TripleList.from_csc(product))
                    pieces.setdefault((k, i, j), {})[p] = (
                        per_col, np.diff(product.indptr),
                        tuple(schedule.events[seen:]),
                    )
                combine = schedule.peak_resident
                seen = len(schedule.events)
                outcome = schedule.finish()
                blocks[p][(i, j)] = engine._BlockRecord(
                    tuple(outcome.events[seen:]), outcome.operations,
                    outcome.peak_event_elements,
                    outcome.peak_resident_elements, combine,
                    len(outcome.result),
                )
            lo = hi
    # Join each product's phase pieces; a phase with an empty slab adds
    # no flops and no nonzeros.
    products = {}
    for (k, i, j), by_phase in pieces.items():
        width = dist_b.block(0, j).ncols
        base, extra = divmod(width, phases)
        per_col, lens, events = [], [], []
        for p in range(phases):
            w = base + (1 if p < extra else 0)
            zeros = np.zeros(w, dtype=np.int64)
            piece = by_phase.get(p, (zeros, zeros, None))
            per_col.append(piece[0])
            lens.append(piece[1])
            events.append(piece[2])
        products[(k, i, j)] = (
            np.concatenate(per_col),
            np.concatenate(([0], np.cumsum(np.concatenate(lens)))),
            tuple(events),
        )
    return products, blocks


NUMERIC_PASS = engine._numeric_pass


def run(monkeypatch, a, b, q, phases, kind, schedule, records=None):
    """One traced multiply; ``records`` maps the numeric pass's output
    (derived records in, records to price out)."""

    def numeric_pass(dist_a, dist_b, *args):
        kept, products, blocks = NUMERIC_PASS(dist_a, dist_b, *args)
        if records is not None:
            products, blocks = records(dist_a, dist_b, products, blocks)
        return kept, products, blocks

    monkeypatch.setattr(engine, "_numeric_pass", numeric_pass)
    grid = ProcessGrid(q)
    comm = VirtualComm(grid.size, SUMMIT_LIKE)
    charges = []
    res = summa_multiply(
        DistributedCSC.from_global(a, grid),
        DistributedCSC.from_global(b, grid),
        comm, SummaConfig(merge=kind, schedule=schedule, trace=True),
        phases=phases,
        charge_column_prune=lambda j, nnz, width: charges.append(
            (j, list(nnz), width)
        ),
    )
    clocks = [
        (r.free_at, r.idle, r.first_start, dict(r.busy))
        for c in comm.clocks for r in (c.cpu, c.gpu)
    ]
    return res, clocks, charges


def assert_same_records(derived, brute):
    d_products, d_blocks = derived
    b_products, b_blocks = brute
    assert d_products.keys() == b_products.keys()
    for key, (per_col, c_indptr, events) in b_products.items():
        d_per_col, d_c_indptr, d_events = d_products[key]
        assert np.array_equal(d_per_col, per_col)
        assert np.array_equal(np.diff(d_c_indptr), np.diff(c_indptr))
        assert d_events == events
    assert d_blocks == b_blocks


def assert_same_result(x, y):
    for f in dataclasses.fields(x):
        if f.name == "dist_c":
            continue
        assert getattr(x, f.name) == getattr(y, f.name), f.name
    assert_same_product(x, y)


def assert_same_product(x, y):
    cx, cy = x.dist_c.to_global(), y.dist_c.to_global()
    assert np.array_equal(cx.indptr, cy.indptr)
    assert np.array_equal(cx.indices, cy.indices)
    assert cx.data.tobytes() == cy.data.tobytes()


@st.composite
def operands(draw):
    """Two operands on a q×q grid whose B blocks often keep a phase slab
    empty while the block itself is not."""
    q = draw(st.sampled_from([2, 3, 4]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n = q * draw(st.integers(1, 6)) + int(rng.integers(0, q))
    density = draw(st.floats(0.05, 0.6))
    signed = draw(st.booleans())
    mats = []
    for _ in range(2):
        rows, cols = np.nonzero(rng.random((n, n)) < density)
        vals = (
            rng.standard_normal(len(rows)) if signed
            else rng.random(len(rows)) + 0.01
        )
        mats.append((rows, cols, vals))
    # Clear some (block row, column) runs of B: empty phase slabs.
    rows, cols, vals = mats[1]
    grid = ProcessGrid(q)
    block_row = np.searchsorted(
        [grid.block_bounds(n, k)[1] for k in range(q)], rows, side="right"
    )
    cleared = rng.random((q, n)) < 0.3
    keep = ~cleared[block_row, cols]
    mats[1] = (rows[keep], cols[keep], vals[keep])
    a, b = (csc_from_triples((n, n), r, c, v) for r, c, v in mats)
    return a, b, q


@given(
    operands(),
    st.integers(1, 5),
    st.sampled_from(sorted(SCHEDULES)),
    st.sampled_from(["sync", "static"]),
)
@settings(max_examples=80, deadline=None)
def test_derived_records_match_phased_numerics(case, phases, kind, schedule):
    a, b, q = case
    with pytest.MonkeyPatch.context() as mp:
        seen = {}

        def oracle(dist_a, dist_b, products, blocks):
            # Copies: the pricing pass consumes the records it is given.
            brute = brute_records(dist_a, dist_b, phases, kind)
            seen["derived"] = (dict(products), [dict(d) for d in blocks])
            seen["brute"] = (dict(brute[0]), [dict(d) for d in brute[1]])
            return brute

        derived = run(mp, a, b, q, phases, kind, schedule)
        priced = run(mp, a, b, q, phases, kind, schedule, records=oracle)
        one_phase = run(mp, a, b, q, 1, kind, schedule)
    assert_same_records(seen["derived"], seen["brute"])
    res, clocks, charges = derived
    b_res, b_clocks, b_charges = priced
    assert_same_result(res, b_res)
    assert clocks == b_clocks
    assert charges == b_charges
    # The numerics are the one-phase numerics, by construction.
    assert_same_product(res, one_phase[0])

