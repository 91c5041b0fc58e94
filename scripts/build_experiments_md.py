#!/usr/bin/env python3
"""Assembles EXPERIMENTS.md from the regenerated figure outputs.

Run after `cargo bench -p idyll-bench --bench figures` (or `cargo bench
--workspace`), which writes one text table per paper table/figure into
`crates/bench/results/`. The commentary blocks below record the paper's
numbers and the expected/observed shape for each experiment.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "crates" / "bench" / "results"

HEADER = """# EXPERIMENTS — paper vs. measured

Every table and figure in the paper's evaluation section, regenerated by
this repository's simulator. Reproduce everything with:

```bash
cargo bench -p idyll-bench --bench figures       # writes crates/bench/results/
# or individual figures:
cargo run --release -p idyll-bench --bin fig11
```

Runs below use `IDYLL_SCALE=small` (the default: 20 K accesses/GPU per
trace, access-counter threshold 12 standing in for the driver's 256 — see
DESIGN.md §6 for the scaling argument), seed 42.

**How to read the comparisons.** The simulator reproduces the paper's
*translation/migration path* in detail but stands in for MGPUSim's
cycle-level compute with a warp-level latency-hiding model, and for the
real OpenCL benchmarks with synthetic traces calibrated to each app's
published access pattern, MPKI class and sharing profile. Absolute cycle
counts are therefore not comparable; what is tracked below is each
figure's *shape*: which scheme wins, roughly by how much, and where the
crossovers fall. Known divergences are called out per figure.

"""

COMMENTARY = {
    "table2": """## Table 2 — baseline configuration

Paper: the fixed simulation parameters. Measured: printed from the live
`SystemConfig` defaults, so the table cannot drift from the code.
""",
    "table3": """## Table 3 — applications and MPKI

Paper: nine multi-GPU apps with L2 TLB MPKI from MT 185.5 down to BS 3.4.
Measured: the synthetic generators land every app in the right MPKI
*class* and preserve the ordering of the extremes (MT ≫ PR > KM > ST >
C2D ≈ MM > BS). Known divergence: IM measures far higher than its paper
MPKI of 18.3 — its generator prioritises the property that actually
drives IM's results in the paper (memory-intensity: compute gap ≈ 1, so
translation latency cannot be hidden) over TLB hit rate, and IM's
migration-induced shootdowns inflate misses.
""",
    "fig01": """## Figure 1 — invalidation overhead on 2 GPUs

Paper: uvm-eval profiling on a real 2-GPU A100 system; ~42 % of execution
time spent handling page-table invalidations (PR/ST highest). Measured:
differential simulation (baseline vs zero-latency invalidation) on the
2-GPU configuration. The overhead exists for every migration-prone app
with MM the largest, but is smaller than the paper's real-hardware number
— a 2-GPU system halves both the sharers and the invalidation fan-out,
and our zero-latency ideal removes only invalidation costs, not the
driver/fault costs uvm-eval attributes to invalidation handling.
""",
    "fig02": """## Figure 2 — migration-policy comparison

Paper: access-counter-based migration beats on-touch (~0.85× relative)
and first-touch (~0.9×), and zero-latency invalidation gives 1.73× on
average (up to 2.92×). Measured: on-touch loses clearly (≈0.6×, the
ping-pong penalty) and zero-latency invalidation wins on every app —
both shapes match. Known divergence: first-touch comes out *ahead* of
counter-based on several apps here. Our pre-placement (DESIGN.md §6.2)
gives first-touch its best case — pages start exactly where first touched
with warm page tables — whereas the paper's first-touch bar includes the
cold misplacement its migration policies exist to fix.
""",
    "fig04": """## Figure 4 — page-sharing distribution

Paper: MM/PR/KM have almost all accesses on pages shared by all 4 GPUs;
MT/C2D/BS concentrate on pages shared by 2. Measured: same clustering by
construction of the generators (verified here against the actual traces,
not assumed): PR/MM/KM are dominated by shared-by-4 accesses, the
adjacent/pairwise apps by shared-by-2.
""",
    "fig05": """## Figure 5 — page-walker request mix

Paper: invalidations are 27.2 % of walker requests on average (MM/PR/KM
highest), and ~32 % of invalidations are unnecessary. Measured: the same
two headline quantities fall out of the baseline simulation, with the
same per-app pattern (high-sharing apps have the largest invalidation
share; broadcast makes a large fraction unnecessary).
""",
    "fig06": """## Figure 6 — demand TLB miss latency without invalidations

Paper: removing invalidation contention cuts demand TLB miss latency by
55.8 % on average (baseline ≈ 2 230 cycles). Measured: the same direction
on every migration-prone app; the magnitude tracks each app's
invalidation share from Figure 5.
""",
    "fig07": """## Figure 7 — migration waiting latency share

Paper: waiting (invalidation phase) is 38.3 % of total migration latency
(~854 of ~2 230 cycles). Measured: the waiting share and the absolute
cycle scale both land in the paper's range — waiting is a large minority
share of each migration, dominated by invalidation walks queueing behind
demand misses.
""",
    "fig11": """## Figure 11 — headline result

Paper: Only-Lazy 1.558×, Only-In-PTE 1.273×, IDYLL-InMem ≈1.70×, IDYLL
1.699× (PR best at 2.67×), zero-latency invalidation 1.73×, with IDYLL
*above* zero-latency on ST/SC/IM thanks to the IRMB walk bypass.
Measured: the ordering reproduces — each mechanism helps alone, lazy >
in-PTE on average, the combination is best and IDYLL-InMem tracks IDYLL
closely; IDYLL beats the zero-latency ideal on several apps for exactly
the paper's reason (bypassed stale walks). Magnitudes are compressed
(≈1.2–1.3× average at this scale) because our synthetic traces cannot
sustain MGPUSim-level walker pressure for minutes of simulated time;
sweeping trace scale moves the average toward the paper's number.
""",
    "fig12": """## Figure 12 — demand miss latency under IDYLL

Paper: ~60 % reduction (relative latency ≈ 0.40), PR and IM largest.
Measured: consistent reductions with the high-invalidation apps improving
the most.
""",
    "fig13": """## Figure 13 — invalidation count and latency under IDYLL

Paper: invalidation count falls to 0.68× (directory filters the ~32 %
unnecessary ones) and total invalidation latency to 0.32× (batching +
PWC amortisation). Measured: both ratios drop with count ≈ the
necessary-fraction of Figure 5 and latency falling further than count,
for the paper's reason (merged write-backs hit the upper-level PWC).
""",
    "fig14": """## Figure 14 — migration waiting latency under IDYLL

Paper: 71 % reduction (relative ≈ 0.29) — IDYLL acks immediately from the
IRMB so migration waits only on the host-side walk. Measured: large
reductions on every migration-prone app.
""",
    "fig15": """## Figure 15 — IRMB geometry sweep

Paper: performance rises monotonically with IRMB size — (16,8) 1.448× up
to (64,16) 1.769×, with (32,16) chosen as the sweet spot. Measured: same
monotone trend with diminishing returns past the default geometry.
""",
    "fig16": """## Figure 16 — walker-thread sensitivity

Paper: gains remain with more walker threads but shrink (16 threads
1.60×, 32 threads 1.433×) as extra walkers absorb contention. Measured:
same direction — IDYLL still wins at 16/32 threads with a smaller margin
than the 8-thread default.
""",
    "fig17": """## Figure 17 — 2048-entry L2 TLB

Paper: a 4× larger L2 TLB barely blunts IDYLL (1.614×) because migration
shootdowns keep invalidating whatever the TLB holds. Measured: IDYLL's
advantage persists with the large TLB.
""",
    "fig18": """## Figure 18 — 8/16 GPUs

Paper: gains grow with GPU count (1.753× at 8, 1.791× at 16) as more
sharers mean more invalidation traffic per migration. Measured: the same
upward trend from the 4-GPU result.
""",
    "fig19": """## Figure 19 — 4 access bits at 8/16/32 GPUs

Paper: with only 4 directory bits the hash aliases many GPUs per bit, yet
IDYLL still delivers 1.565×/1.571×/1.701× because lazy invalidation does
not depend on the directory. Measured: positive gains at all three GPU
counts with the same robustness to directory aliasing.
""",
    "fig20": """## Figure 20 — access-counter threshold

Paper: doubling the threshold (256→512) shrinks IDYLL's room (1.699× →
~1.17× over its own baseline) but the bigger threshold also costs the
baseline ~10 % outright (more remote accesses). Measured: same three
shapes with the scaled thresholds T and 2T.
""",
    "fig21": """## Figure 21 — 2 MB pages

Paper: with 2 MB pages and enlarged inputs IDYLL still gains 1.363× —
large pages increase TLB reach but false sharing keeps migrations and
invalidations coming. Measured: positive but reduced gains versus the
4 KB default, PR among the strongest, matching the false-sharing
argument.
""",
    "fig22": """## Figure 22 — vs page replication

Paper: IDYLL beats replication by 1.25× on average; the margin is largest
on write-intensive apps (IM, C2D) where every write collapses replicas,
and smallest on read-heavy apps (PR, ST, SC). Measured: the same
read/write split decides the winner per app.
""",
    "fig23": """## Figure 23 — vs Trans-FW

Paper: Trans-FW alone 1.30×; IDYLL 1.699×; combined 1.863× (not fully
additive since IDYLL's bypass already removes some of the walks Trans-FW
would shortcut). Measured: the ordering holds — Trans-FW helps least,
IDYLL more, and the combination is best — but Trans-FW alone is roughly
performance-neutral here rather than +30 %. Known divergence: our
far-fault path (batched host resolution over a 150-cycle-latency PCIe
model) is far cheaper relative to a GPU walk than the fault pipeline
Trans-FW was designed to shortcut, and stale-fingerprint false forwards
eat much of what remains.
""",
    "fig24": """## Figure 24 — DNN workloads

Paper: +15.9 % on VGG16 and +12.0 % on ResNet18 from layer-parallel
weight sharing. Measured: single-digit-percent gains on both models —
positive, and smaller than the 9-app average exactly as the paper finds,
with the overall compression of magnitudes noted under Figure 11.
""",
}

ORDER = [
    "table2", "table3", "fig01", "fig02", "fig04", "fig05", "fig06",
    "fig07", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
    "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23",
    "fig24",
]


# Hand-maintained sections appended after the per-figure blocks; these
# track the harness itself (wall-clock trajectory), not paper results, so
# they are not regenerated from `crates/bench/results/`.
FOOTER = """## Harness perf — set-selection shave (mem-model)

Not a paper figure: wall-clock of the simulator itself, tracked because
every figure above multiplies it by hundreds of runs. `SetAssoc::set_of`
previously computed a 64-bit modulo on every TLB/cache/PWC/VM-Cache
probe; every production geometry has a power-of-two set count, so set
selection now uses a precomputed mask (`key & (sets-1)`) with the modulo
kept as fallback for non-power-of-two arrays.

Measured on SC with 2 GPUs at `IDYLL_SCALE=small`, tracer off, best-of-6
repetitions per configuration (minimum wall-clock is the least noisy
estimator; the machine shows ±10 % run-to-run jitter):

```text
SC/2gpu, tracer off                      before                 after
baseline   events 125477         22.25 ms  5.64 Mev/s   19.25 ms  6.52 Mev/s   (-13.5% wall)
idyll      events 124403         22.97 ms  5.42 Mev/s   19.45 ms  6.40 Mev/s   (-15.3% wall)
```

Event counts are bit-identical before and after (125 477 / 124 403), so
the change is behavior-preserving: identical set selection, only a
cheaper instruction sequence. The same configuration at `test` scale is
now pinned by `tests/determinism.rs::event_counts_match_the_golden_pin`.

## Harness perf — hot-path-alloc sweep (effect inference)

simlint v4's interprocedural effect pass (DESIGN.md §9) audited every
function reachable from a GPU-lane handler or event-dispatch arm for
allocation, panics, and IO. The first sweep over the real workspace
surfaced 23 findings, which resolved into:

- **2 allocation removals** on the per-event path: the IRMB drain loops
  in `migrate.rs` and `translate.rs` collected each entry's VPN list
  into a fresh `Vec` before enqueueing walks; the entries are owned at
  that point, so both now iterate `entry.vpns()` directly — one fewer
  heap round-trip per writeback/invalidation burst.
- **5 gate restructurings** (behavior-neutral): tracer label `format!`s
  in `observe.rs` and trace span/instant pushes in `trace.rs` moved
  lexically inside their `is_enabled()`/`cat_enabled()` gates so the
  analyzer — and the reader — can see they cost nothing when tracing
  is off.
- **16 documented inline allows**: 9 invariant-backed panic sites
  (e.g. constructor-validated geometry, load-before-store discipline),
  5 bounded `vec![…]` fills (MSHR one-waiter lists, IRMB warmup), one
  name-collision call edge (`tracelog`'s post-run `filter` query), plus
  one pre-existing escape — each carries its bound or invariant as the
  reason.
- **1 stale allow removed** in `engine.rs`, found by the new
  `--check-allows` pass itself: its `.elapsed()` line was never a
  wall-clock trigger, so the escape had suppressed nothing.

Event counts are bit-identical after the sweep (9 654 baseline /
9 559 idyll at `IDYLL_SCALE=test`, threads 1 **and** 4), so the fixes
are behavior-preserving; `tests/determinism.rs::event_counts_match_the_golden_pin`
asserts exactly these counts. Wall-clock stayed inside the machine's
±10 % run-to-run jitter band (the removed collects sit on the migration
burst path, not on the per-event heap pop).
"""


def main() -> int:
    missing = [f for f in ORDER if not (RESULTS / f"{f}.txt").exists()]
    if missing:
        print(f"missing results: {missing}; run the figures bench first",
              file=sys.stderr)
        return 1
    out = [HEADER]
    for fig in ORDER:
        out.append(COMMENTARY[fig].strip())
        out.append("\n\n```text\n")
        out.append((RESULTS / f"{fig}.txt").read_text().strip())
        out.append("\n```\n\n")
    out.append(FOOTER)
    (ROOT / "EXPERIMENTS.md").write_text("".join(out))
    print(f"wrote {ROOT / 'EXPERIMENTS.md'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
