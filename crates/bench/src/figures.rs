//! The paper's 22 tables and figures, each as its cells plus a pure render
//! of their reports.

use std::collections::BTreeMap;

use idyll_core::irmb::IrmbConfig;
use mgpu_system::config::{Scheme, SystemConfig};
use mgpu_system::SimReport;
use uvm_driver::policy::MigrationPolicy;
use vm_model::tlb::TlbConfig;
use workloads::dnn::DnnModel;
use workloads::{AppId, WorkloadSource, WorkloadSpec};

use crate::{format_table, Cell, Figure, Grid, Harness};

/// Every table and figure, in the order `all_figures` writes them.
pub const FIGURES: [Figure; 22] = [
    TABLE2, TABLE3, FIG01, FIG02, FIG04, FIG05, FIG06, FIG07, FIG11, FIG12, FIG13, FIG14, FIG15,
    FIG16, FIG17, FIG18, FIG19, FIG20, FIG21, FIG22, FIG23, FIG24,
];

/// One row's reports by scheme.
type Row = BTreeMap<String, SimReport>;

/// `schemes` over `rows`, row-major, at the harness's seed.
fn cells<S: AsRef<str>>(
    h: &Harness,
    rows: impl IntoIterator<Item = (&'static str, WorkloadSource)>,
    schemes: &[(S, SystemConfig)],
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (row, source) in rows {
        for (scheme, config) in schemes {
            cells.push(Cell {
                row,
                scheme: scheme.as_ref().to_string(),
                config: config.clone(),
                source: source.clone(),
                seed: h.config().seed,
            });
        }
    }
    cells
}

/// `schemes` over `apps`, each on its paper-default trace.
fn app_cells<S: AsRef<str>>(
    h: &Harness,
    apps: &[AppId],
    schemes: &[(S, SystemConfig)],
) -> Vec<Cell> {
    let scale = h.config().scale;
    let rows = apps.iter().map(|&app| {
        (
            app.name(),
            WorkloadSource::App(WorkloadSpec::paper_default(app, scale)),
        )
    });
    cells(h, rows, schemes)
}

/// A table with one row per grid row, valued per column by `value`.
fn table(
    grid: &Grid,
    title: &str,
    columns: &[&str],
    precision: usize,
    value: impl Fn(&Row, &str) -> f64,
) -> String {
    let rows: Vec<(&str, Vec<f64>)> = grid
        .iter()
        .map(|(row, per)| (*row, columns.iter().map(|c| value(per, c)).collect()))
        .collect();
    format_table(title, columns, &rows, precision)
}

const TABLE2: Figure = Figure {
    id: "table2",
    cells: |_| Vec::new(),
    render: |h, _| {
        let cfg = h.baseline(4);
        let gpu = &cfg.gpu;
        let mut s = String::from("Table 2: baseline multi-GPU configuration\n");
        s.push_str(&format!("  CUs per GPU            : {}\n", gpu.cus));
        s.push_str(&format!(
            "  Warps per CU           : {}\n",
            gpu.warps_per_cu
        ));
        s.push_str(&format!(
            "  L1 TLB                 : {} entries, {}-way, {} lookup\n",
            gpu.l1_tlb.entries, gpu.l1_tlb.ways, gpu.l1_tlb.latency
        ));
        s.push_str(&format!(
            "  L2 TLB                 : {} entries, {}-way, {} lookup\n",
            gpu.l2_tlb.entries, gpu.l2_tlb.ways, gpu.l2_tlb.latency
        ));
        s.push_str(&format!(
            "  Page walkers           : {} threads, {} per level\n",
            gpu.gmmu.walker_threads, gpu.gmmu.walker.per_level_latency
        ));
        s.push_str(&format!(
            "  Page-walk cache        : {} entries\n",
            gpu.gmmu.pwc_entries
        ));
        s.push_str(&format!(
            "  Page-walk queue        : {} entries\n",
            gpu.gmmu.walk_queue_entries
        ));
        s.push_str(&format!(
            "  Access counter thresh. : {} (paper: 256; scaled, DESIGN.md §6)\n",
            h.config().scale.counter_threshold()
        ));
        s.push_str(&format!(
            "  Inter-GPU network      : {:.0} B/cy NVLink-v2\n",
            cfg.interconnect.nvlink_bytes_per_cycle
        ));
        s.push_str(&format!(
            "  CPU-GPU network        : {:.0} B/cy PCIe-v4\n",
            cfg.interconnect.pcie_bytes_per_cycle
        ));
        s.push_str(&format!("  Page size              : {}\n", cfg.page_size));
        s
    },
};

/// Table 3: applications, suites, patterns, measured vs paper MPKI.
const TABLE3: Figure = Figure {
    id: "table3",
    cells: |h| app_cells(h, &AppId::ALL, &[("base", h.baseline(4))]),
    render: |_, grid| {
        let mut s =
            String::from("Table 3: applications (measured MPKI from baseline simulation)\n");
        s.push_str(&format!(
            "{:<6}{:<24}{:<16}{:>12}{:>12}\n",
            "app", "suite", "pattern", "paper MPKI", "sim MPKI"
        ));
        for (row, per) in grid {
            let app = AppId::from_name(row).expect("table3 rows are applications");
            s.push_str(&format!(
                "{:<6}{:<24}{:<16}{:>12.2}{:>12.2}\n",
                app.name(),
                app.suite(),
                format!("{:?}", app.pattern()),
                app.paper_mpki(),
                per["base"].mpki()
            ));
        }
        s
    },
};

/// The paper's six profiled apps in Figure 1.
const FIG01_APPS: [AppId; 6] = [
    AppId::Mt,
    AppId::Mm,
    AppId::Pr,
    AppId::St,
    AppId::Sc,
    AppId::Km,
];

/// Figure 1: page-table invalidation overhead as % of execution time,
/// measured by differential simulation (baseline vs zero-latency
/// invalidation) on a 2-GPU system.
const FIG01: Figure = Figure {
    id: "fig01",
    cells: |h| {
        let schemes = [
            ("base", h.baseline(2)),
            ("zerolat", h.scheme(2, Scheme::ZeroLat)),
        ];
        app_cells(h, &FIG01_APPS, &schemes)
    },
    render: |_, grid| {
        table(
            grid,
            "Figure 1: page table invalidation overhead (% of execution time, 2 GPUs; paper avg ~42%)",
            &["overhead%"],
            1,
            |per, _| {
                let base = per["base"].exec_cycles as f64;
                let ideal = per["zerolat"].exec_cycles as f64;
                ((base - ideal) / base * 100.0).max(0.0)
            },
        )
    },
};

/// Figure 2: migration-policy comparison, normalised to access-counter
/// based migration.
const FIG02: Figure = Figure {
    id: "fig02",
    cells: |h| {
        let mut first_touch = h.baseline(4);
        first_touch.policy = MigrationPolicy::FirstTouch;
        let mut on_touch = h.baseline(4);
        on_touch.policy = MigrationPolicy::OnTouch;
        let schemes = [
            ("counter", h.baseline(4)),
            ("first-touch", first_touch),
            ("on-touch", on_touch),
            ("zerolat", h.scheme(4, Scheme::ZeroLat)),
        ];
        app_cells(h, &AppId::ALL, &schemes)
    },
    render: |_, grid| {
        table(
            grid,
            "Figure 2: performance relative to access-counter-based migration (higher is better)",
            &["first-touch", "on-touch", "zerolat"],
            3,
            |per, c| per[c].speedup_vs(&per["counter"]),
        )
    },
};

/// Figure 4: distribution of accesses referencing shared pages (no
/// simulation: read off the generated traces).
const FIG04: Figure = Figure {
    id: "fig04",
    cells: |_| Vec::new(),
    render: |h, _| {
        let rows: Vec<(&str, Vec<f64>)> = AppId::ALL
            .iter()
            .map(|&app| {
                let spec = WorkloadSpec::paper_default(app, h.config().scale);
                let wl = workloads::generate(&spec, 4, h.config().seed);
                let dist = wl.access_sharing_distribution();
                (app.name(), dist.iter().map(|v| v * 100.0).collect())
            })
            .collect();
        format_table(
            "Figure 4: % of accesses to pages shared by k GPUs",
            &["1 GPU", "2 GPUs", "3 GPUs", "4 GPUs"],
            &rows,
            1,
        )
    },
};

/// Figure 5: walker request mix (demand vs necessary vs unnecessary
/// invalidations) in the baseline.
const FIG05: Figure = Figure {
    id: "fig05",
    cells: |h| app_cells(h, &AppId::ALL, &[("base", h.baseline(4))]),
    render: |_, grid| {
        table(
            grid,
            "Figure 5: page-walker request mix (paper: invalidations ~27.2% of requests, ~32% of them unnecessary)",
            &["demand%", "necessary%", "unnecessary%"],
            1,
            |per, c| {
                let mix = per["base"].walker_mix;
                let denom = (mix.demand + mix.invalidations()) as f64;
                if denom == 0.0 {
                    return 0.0;
                }
                match c {
                    "demand%" => mix.demand as f64 / denom * 100.0,
                    "necessary%" => mix.invalidation_necessary as f64 / denom * 100.0,
                    _ => mix.invalidation_unnecessary as f64 / denom * 100.0,
                }
            },
        )
    },
};

/// Figure 6: demand TLB miss latency, baseline vs eliminating invalidation
/// contention (relative total latency + actual mean cycles).
const FIG06: Figure = Figure {
    id: "fig06",
    cells: |h| {
        let schemes = [
            ("base", h.baseline(4)),
            ("no-inval", h.scheme(4, Scheme::ZeroLat)),
        ];
        app_cells(h, &AppId::ALL, &schemes)
    },
    render: |_, grid| {
        table(
            grid,
            "Figure 6: demand TLB miss latency without invalidation contention (paper: 55.8% reduction)",
            &["relative", "base cycles", "no-inv cycles"],
            2,
            |per, c| match c {
                "relative" => per["no-inval"].relative_demand_latency(&per["base"]),
                "base cycles" => per["base"].demand_miss_latency.mean().unwrap_or(0.0),
                _ => per["no-inval"].demand_miss_latency.mean().unwrap_or(0.0),
            },
        )
    },
};

/// Figure 7: page-migration waiting latency share of total migration
/// latency in the baseline.
const FIG07: Figure = Figure {
    id: "fig07",
    cells: |h| app_cells(h, &AppId::ALL, &[("base", h.baseline(4))]),
    render: |_, grid| {
        table(
            grid,
            "Figure 7: migration waiting latency (paper: 38.3% of migration latency; ~854 of ~2230 cycles)",
            &["waiting%", "wait cycles", "total cycles"],
            1,
            |per, c| {
                let r = &per["base"];
                match c {
                    "waiting%" => {
                        let total = r.migration_total.sum();
                        if total == 0.0 {
                            0.0
                        } else {
                            r.migration_waiting.sum() / total * 100.0
                        }
                    }
                    "wait cycles" => r.migration_waiting.mean().unwrap_or(0.0),
                    _ => r.migration_total.mean().unwrap_or(0.0),
                }
            },
        )
    },
};

/// Figure 11: overall performance of the IDYLL design points relative to
/// baseline.
const FIG11: Figure = Figure {
    id: "fig11",
    cells: |h| {
        let schemes = [
            ("base", Scheme::Baseline),
            ("only-lazy", Scheme::OnlyLazy),
            ("only-in-pte", Scheme::OnlyInPte),
            ("idyll-inmem", Scheme::IdyllInMem),
            ("idyll", Scheme::Idyll),
            ("zerolat", Scheme::ZeroLat),
        ];
        app_cells(h, &AppId::ALL, &schemes.map(|(c, s)| (c, h.scheme(4, s))))
    },
    render: |_, grid| {
        table(
            grid,
            "Figure 11: performance relative to baseline (paper: lazy 1.558x, in-PTE 1.273x, InMem 1.70x, IDYLL 1.699x)",
            &["only-lazy", "only-in-pte", "idyll-inmem", "idyll", "zerolat"],
            3,
            |per, c| per[c].speedup_vs(&per["base"]),
        )
    },
};

/// Baseline and full IDYLL on 4 GPUs, the cells of Figures 12–14.
fn base_and_idyll(h: &Harness) -> Vec<Cell> {
    app_cells(
        h,
        &AppId::ALL,
        &[("base", h.baseline(4)), ("idyll", h.idyll(4))],
    )
}

/// Figure 12: demand TLB miss latency under IDYLL relative to baseline.
const FIG12: Figure = Figure {
    id: "fig12",
    cells: base_and_idyll,
    render: |_, grid| {
        table(
            grid,
            "Figure 12: IDYLL demand TLB miss latency relative to baseline (paper avg ~0.40)",
            &["relative"],
            2,
            |per, _| per["idyll"].relative_demand_latency(&per["base"]),
        )
    },
};

/// Figure 13: invalidation request count and total latency under IDYLL
/// relative to baseline.
const FIG13: Figure = Figure {
    id: "fig13",
    cells: base_and_idyll,
    render: |_, grid| {
        table(
            grid,
            "Figure 13: IDYLL invalidation latency/count relative to baseline (paper: latency 0.32, count 0.68)",
            &["latency ratio", "count ratio"],
            2,
            |per, c| match c {
                "latency ratio" => per["idyll"].relative_invalidation_latency(&per["base"]),
                _ => {
                    let b = per["base"].invalidation_messages as f64;
                    if b == 0.0 {
                        0.0
                    } else {
                        per["idyll"].invalidation_messages as f64 / b
                    }
                }
            },
        )
    },
};

/// Figure 14: migration waiting latency under IDYLL relative to baseline.
const FIG14: Figure = Figure {
    id: "fig14",
    cells: base_and_idyll,
    render: |_, grid| {
        table(
            grid,
            "Figure 14: IDYLL migration waiting latency relative to baseline (paper avg ~0.29)",
            &["relative"],
            2,
            |per, _| per["idyll"].relative_migration_waiting(&per["base"]),
        )
    },
};

/// Figure 15's IRMB geometries, `(bases, offsets per base)`.
const IRMB_GEOMETRIES: [(usize, usize); 5] = [(16, 8), (16, 16), (32, 8), (32, 16), (64, 16)];

fn geometry((bases, offsets): (usize, usize)) -> String {
    format!("({bases},{offsets})")
}

/// Figure 15: IRMB geometry sensitivity.
const FIG15: Figure = Figure {
    id: "fig15",
    cells: |h| {
        let mut schemes = vec![("base".to_string(), h.baseline(4))];
        for (bases, offsets) in IRMB_GEOMETRIES {
            let mut cfg = h.idyll(4);
            cfg.irmb = IrmbConfig::new(bases, offsets);
            schemes.push((geometry((bases, offsets)), cfg));
        }
        app_cells(h, &AppId::ALL, &schemes)
    },
    render: |_, grid| {
        let columns = IRMB_GEOMETRIES.map(geometry);
        table(
            grid,
            "Figure 15: IDYLL speedup vs baseline across IRMB geometries (paper: (16,8) 1.448x … (64,16) 1.769x)",
            &columns.each_ref().map(String::as_str),
            3,
            |per, c| per[c].speedup_vs(&per["base"]),
        )
    },
};

/// Figure 16: sensitivity to page-table-walker thread count.
const FIG16: Figure = Figure {
    id: "fig16",
    cells: |h| {
        let mut schemes = Vec::new();
        for threads in [16usize, 32] {
            let mut base = h.baseline(4);
            base.gpu.gmmu.walker_threads = threads;
            let mut idy = h.idyll(4);
            idy.gpu.gmmu.walker_threads = threads;
            schemes.push((format!("base{threads}"), base));
            schemes.push((format!("idyll{threads}"), idy));
        }
        app_cells(h, &AppId::ALL, &schemes)
    },
    render: |_, grid| {
        table(
            grid,
            "Figure 16: IDYLL speedup with 16/32 walker threads (paper: 1.60x / 1.433x)",
            &["16 threads", "32 threads"],
            3,
            |per, c| {
                let threads = c.split(' ').next().expect("`N threads`");
                per[&format!("idyll{threads}")].speedup_vs(&per[&format!("base{threads}")])
            },
        )
    },
};

/// Figure 17: 2048-entry L2 TLB.
const FIG17: Figure = Figure {
    id: "fig17",
    cells: |h| {
        let mut base = h.baseline(4);
        base.gpu.l2_tlb = TlbConfig::large_l2();
        let mut idy = h.idyll(4);
        idy.gpu.l2_tlb = TlbConfig::large_l2();
        app_cells(h, &AppId::ALL, &[("base2048", base), ("idyll2048", idy)])
    },
    render: |_, grid| {
        table(
            grid,
            "Figure 17: IDYLL speedup with a 2048-entry L2 TLB (paper: 1.614x)",
            &["speedup"],
            3,
            |per, _| per["idyll2048"].speedup_vs(&per["base2048"]),
        )
    },
};

/// Baseline and IDYLL (with `access_bits` directory bits) at each GPU count.
fn scaling_cells(h: &Harness, counts: &[usize], access_bits: u32) -> Vec<Cell> {
    let mut schemes = Vec::new();
    for &n in counts {
        let mut idy = h.idyll(n);
        idy.access_bits = access_bits;
        schemes.push((format!("base{n}"), h.baseline(n)));
        schemes.push((format!("idyll{n}"), idy));
    }
    app_cells(h, &AppId::ALL, &schemes)
}

/// IDYLL's speedup at each GPU count of [`scaling_cells`].
fn scaling_table(grid: &Grid, counts: &[usize], title: &str) -> String {
    let columns: Vec<String> = counts.iter().map(|n| format!("{n} GPUs")).collect();
    let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
    table(grid, title, &columns, 3, |per, c| {
        let n = c.split(' ').next().expect("`N GPUs`");
        per[&format!("idyll{n}")].speedup_vs(&per[&format!("base{n}")])
    })
}

/// Figure 18: 8- and 16-GPU systems.
const FIG18: Figure = Figure {
    id: "fig18",
    cells: |h| scaling_cells(h, &[8, 16], 11),
    render: |_, grid| {
        scaling_table(
            grid,
            &[8, 16],
            "Figure 18: IDYLL speedup with 8/16 GPUs (paper: 1.753x / 1.791x)",
        )
    },
};

/// Figure 19: 4 directory access bits at 8/16/32 GPUs.
const FIG19: Figure = Figure {
    id: "fig19",
    cells: |h| scaling_cells(h, &[8, 16, 32], 4),
    render: |_, grid| {
        scaling_table(
            grid,
            &[8, 16, 32],
            "Figure 19: IDYLL speedup with 4 access bits at 8/16/32 GPUs (paper: 1.565x/1.571x/1.701x)",
        )
    },
};

/// Figure 20: access-counter threshold sensitivity (T vs 2T, mirroring the
/// paper's 256 vs 512).
const FIG20: Figure = Figure {
    id: "fig20",
    cells: |h| {
        let double = MigrationPolicy::AccessCounter {
            threshold: h.config().scale.counter_threshold() * 2,
        };
        let mut base2 = h.baseline(4);
        base2.policy = double;
        let mut idy2 = h.idyll(4);
        idy2.policy = double;
        let schemes = [
            ("baseT", h.baseline(4)),
            ("idyllT", h.idyll(4)),
            ("base2T", base2),
            ("idyll2T", idy2),
        ];
        app_cells(h, &AppId::ALL, &schemes)
    },
    render: |_, grid| {
        table(
            grid,
            "Figure 20: threshold sensitivity, normalised to baseline@T (paper: idyll@256 1.699x, base@512 0.90x, idyll@512 ~1.17x)",
            &["idyll@T", "base@2T", "idyll@2T"],
            3,
            |per, c| {
                let r = match c {
                    "idyll@T" => &per["idyllT"],
                    "base@2T" => &per["base2T"],
                    _ => &per["idyll2T"],
                };
                r.speedup_vs(&per["baseT"])
            },
        )
    },
};

/// Figure 21: 2 MiB pages with enlarged inputs (§7.3) to stress the 2 MiB
/// reach.
const FIG21: Figure = Figure {
    id: "fig21",
    cells: |h| {
        let scale = h.config().scale;
        let rows = AppId::ALL.map(|app| {
            let spec = WorkloadSpec::paper_default(app, scale).enlarged(4);
            (app.name(), WorkloadSource::App(spec))
        });
        let schemes = [
            ("base2M", h.baseline(4).with_large_pages()),
            ("idyll2M", h.idyll(4).with_large_pages()),
        ];
        cells(h, rows, &schemes)
    },
    render: |_, grid| {
        table(
            grid,
            "Figure 21: IDYLL speedup with 2MB pages (paper: 1.363x average)",
            &["speedup"],
            3,
            |per, _| per["idyll2M"].speedup_vs(&per["base2M"]),
        )
    },
};

/// Figure 22: IDYLL vs page replication.
const FIG22: Figure = Figure {
    id: "fig22",
    cells: |h| {
        let schemes = [
            ("replication", h.scheme(4, Scheme::Replication)),
            ("idyll", h.idyll(4)),
        ];
        app_cells(h, &AppId::ALL, &schemes)
    },
    render: |_, grid| {
        table(
            grid,
            "Figure 22: IDYLL relative to page replication (paper: 1.25x average; biggest on write-heavy IM/C2D)",
            &["idyll/replication"],
            3,
            |per, _| per["idyll"].speedup_vs(&per["replication"]),
        )
    },
};

/// Figure 23: comparison and combination with Trans-FW.
const FIG23: Figure = Figure {
    id: "fig23",
    cells: |h| {
        let schemes = [
            ("base", Scheme::Baseline),
            ("trans-fw", Scheme::TransFw),
            ("idyll", Scheme::Idyll),
            ("combined", Scheme::IdyllTransFw),
        ];
        app_cells(h, &AppId::ALL, &schemes.map(|(c, s)| (c, h.scheme(4, s))))
    },
    render: |_, grid| {
        table(
            grid,
            "Figure 23: Trans-FW vs IDYLL vs combination (paper: 1.30x / 1.699x / 1.863x)",
            &["trans-fw", "idyll", "idyll+trans-fw"],
            3,
            |per, c| {
                let r = match c {
                    "trans-fw" => &per["trans-fw"],
                    "idyll" => &per["idyll"],
                    _ => &per["combined"],
                };
                r.speedup_vs(&per["base"])
            },
        )
    },
};

/// Figure 24: DNN workloads (VGG16, ResNet18).
const FIG24: Figure = Figure {
    id: "fig24",
    cells: |h| {
        let rows = DnnModel::ALL.map(|model| {
            let source = WorkloadSource::named(model.name(), h.config().scale);
            (model.name(), source.expect("a DNN model's own name"))
        });
        cells(h, rows, &[("base", h.baseline(4)), ("idyll", h.idyll(4))])
    },
    render: |_, grid| {
        let mut s = String::from(
            "Figure 24: IDYLL on DNN workloads (paper: VGG16 +15.9%, ResNet18 +12.0%)\n",
        );
        for (model, per) in grid {
            s.push_str(&format!(
                "{:<10} speedup = {:.3}x\n",
                model,
                per["idyll"].speedup_vs(&per["base"])
            ));
        }
        s
    },
};
