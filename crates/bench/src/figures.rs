//! One reproduction routine per evaluation figure (Figs. 5–14).
//!
//! Each routine sweeps the same x-axis the paper uses and prints the same series.
//! Iteration counts are kept modest so the whole set runs in minutes; they can be
//! scaled up without changing the shapes because the simulation is deterministic
//! (except for the seeded stressor used in the tail-latency figures).

use twochains::builtin::BuiltinJam;
use twochains::InvocationMode;
use twochains_fabric::baseline;

use crate::harness::{InjectionRate, PingPong, TestbedOptions};
use crate::percentile::{median, summarize};

/// A reproduced figure: a title, column headers, and rows of formatted values.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Identifier, e.g. `"fig5"`.
    pub id: &'static str,
    /// Descriptive title matching the paper's caption.
    pub title: &'static str,
    /// Column headers.
    pub headers: Vec<&'static str>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl FigureData {
    /// Render the figure as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:>width$}", h, width = widths[i]))
            .collect();
        out.push_str(&header_line.join("  "));
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }
}

/// Message sizes (bytes) swept by the Server-Side Sum figures (5, 6, 12, 14).
pub const SSUM_SIZES: [usize; 8] = [256, 512, 1024, 2048, 4096, 8192, 16384, 32768];
/// Put counts (integers) swept by the Indirect Put figures (7–11, 13).
pub const IPUT_COUNTS: [usize; 15] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384,
];

fn iters_for(n_ints: usize, base: usize) -> usize {
    (base * 16 / (n_ints.max(1))).clamp(12, base)
}

fn ints_for_frame(size: usize) -> usize {
    // Local frame = 60 + 4n bytes; pick n so the frame is `size` bytes.
    ((size.saturating_sub(60)) / 4).max(1)
}

/// Fig. 5: AM put (without execution) latency vs UCX data put.
pub fn fig5() -> FigureData {
    let mut pp = PingPong::new(TestbedOptions::default().without_execution());
    let mut rows = Vec::new();
    for &size in &SSUM_SIZES {
        let n = ints_for_frame(size);
        let am = pp.run(BuiltinJam::ServerSideSum, InvocationMode::Local, n, 40);
        let data_put_us = baseline::put_latency(size).as_us();
        let am_us = am.median_us();
        let reduction = (data_put_us - am_us) / data_put_us * 100.0;
        rows.push(vec![
            format!("{size}B"),
            format!("{data_put_us:.3}"),
            format!("{am_us:.3}"),
            format!("{reduction:+.1}%"),
        ]);
    }
    FigureData {
        id: "fig5",
        title: "Server-Side Sum: AM put without-execution latency overhead vs UCX data put",
        headers: vec!["size", "Data put (us)", "AM put (us)", "reduction"],
        rows,
    }
}

/// Fig. 6: AM put bandwidth vs UCX data put bandwidth.
pub fn fig6() -> FigureData {
    let mut ir = InjectionRate::new(TestbedOptions::default().without_execution());
    let mut rows = Vec::new();
    for &size in &SSUM_SIZES {
        let n = ints_for_frame(size);
        let am = ir.run(BuiltinJam::ServerSideSum, InvocationMode::Local, n, 300);
        let data_bw = baseline::bandwidth_mib_s(size);
        let am_bw = am.bandwidth_mib_s;
        let increase = (am_bw - data_bw) / data_bw * 100.0;
        rows.push(vec![
            format!("{size}B"),
            format!("{data_bw:.0}"),
            format!("{am_bw:.0}"),
            format!("{increase:+.0}%"),
        ]);
    }
    FigureData {
        id: "fig6",
        title: "Server-Side Sum: AM put without-execution bandwidth vs UCX data put (MiB/s)",
        headers: vec!["size", "Data put", "AM put", "increase"],
        rows,
    }
}

/// Fig. 7: Indirect Put latency, Injected vs Local invocation.
pub fn fig7() -> FigureData {
    let mut pp = PingPong::new(TestbedOptions::default());
    let mut rows = Vec::new();
    for &n in &IPUT_COUNTS {
        let iters = iters_for(n, 60);
        let local = pp.run(BuiltinJam::IndirectPut, InvocationMode::Local, n, iters);
        let injected = pp.run(BuiltinJam::IndirectPut, InvocationMode::Injected, n, iters);
        let l = local.median_us();
        let i = injected.median_us();
        let reduction = (l - i) / l * 100.0;
        rows.push(vec![
            n.to_string(),
            format!("{l:.3}"),
            format!("{i:.3}"),
            format!("{reduction:+.1}%"),
        ]);
    }
    FigureData {
        id: "fig7",
        title: "Indirect Put: latency, Injected vs Local function invocation",
        headers: vec!["ints", "Local (us)", "Injected (us)", "reduction"],
        rows,
    }
}

/// Fig. 8: Indirect Put message rate, Injected vs Local invocation.
pub fn fig8() -> FigureData {
    let mut ir = InjectionRate::new(TestbedOptions::default());
    let mut rows = Vec::new();
    for &n in &IPUT_COUNTS {
        let iters = iters_for(n, 240);
        let local = ir.run(BuiltinJam::IndirectPut, InvocationMode::Local, n, iters);
        let injected = ir.run(BuiltinJam::IndirectPut, InvocationMode::Injected, n, iters);
        let increase =
            (injected.messages_per_sec - local.messages_per_sec) / local.messages_per_sec * 100.0;
        rows.push(vec![
            n.to_string(),
            format!("{:.3e}", local.messages_per_sec),
            format!("{:.3e}", injected.messages_per_sec),
            format!("{increase:+.1}%"),
        ]);
    }
    FigureData {
        id: "fig8",
        title: "Indirect Put: message rate, Injected vs Local function invocation (msg/s)",
        headers: vec!["ints", "Local", "Injected", "increase"],
        rows,
    }
}

fn stash_sweep_latency(counts: &[usize]) -> Vec<(usize, f64, f64)> {
    let mut stash = PingPong::new(TestbedOptions::default());
    let mut nonstash = PingPong::new(TestbedOptions::default().nonstash());
    counts
        .iter()
        .map(|&n| {
            let iters = iters_for(n, 60);
            let s = stash.run(BuiltinJam::IndirectPut, InvocationMode::Injected, n, iters);
            let ns = nonstash.run(BuiltinJam::IndirectPut, InvocationMode::Injected, n, iters);
            (n, ns.median_us(), s.median_us())
        })
        .collect()
}

/// Fig. 9: Indirect Put latency with LLC stashing enabled vs disabled.
pub fn fig9() -> FigureData {
    let counts = &IPUT_COUNTS[..13]; // 1..=4096..8192 as in the paper's axis
    let rows = stash_sweep_latency(counts)
        .into_iter()
        .map(|(n, nonstash, stash)| {
            let reduction = (nonstash - stash) / nonstash * 100.0;
            vec![
                n.to_string(),
                format!("{nonstash:.3}"),
                format!("{stash:.3}"),
                format!("{reduction:+.1}%"),
            ]
        })
        .collect();
    FigureData {
        id: "fig9",
        title: "Indirect Put: latency reduction with LLC stashing (Stash vs Nonstash)",
        headers: vec!["ints", "Nonstash (us)", "Stash (us)", "reduction"],
        rows,
    }
}

/// Fig. 10: Indirect Put message rate with LLC stashing enabled vs disabled.
pub fn fig10() -> FigureData {
    let mut stash = InjectionRate::new(TestbedOptions::default());
    let mut nonstash = InjectionRate::new(TestbedOptions::default().nonstash());
    let mut rows = Vec::new();
    for &n in &IPUT_COUNTS[..13] {
        let iters = iters_for(n, 240);
        let s = stash.run(BuiltinJam::IndirectPut, InvocationMode::Injected, n, iters);
        let ns = nonstash.run(BuiltinJam::IndirectPut, InvocationMode::Injected, n, iters);
        let increase = (s.messages_per_sec - ns.messages_per_sec) / ns.messages_per_sec * 100.0;
        rows.push(vec![
            n.to_string(),
            format!("{:.3e}", ns.messages_per_sec),
            format!("{:.3e}", s.messages_per_sec),
            format!("{increase:+.0}%"),
        ]);
    }
    FigureData {
        id: "fig10",
        title: "Indirect Put: message rate increase with LLC stashing (Stash vs Nonstash)",
        headers: vec!["ints", "Nonstash (msg/s)", "Stash (msg/s)", "increase"],
        rows,
    }
}

fn tail_rows(jam: BuiltinJam, points: &[(String, usize)], samples: usize) -> Vec<Vec<String>> {
    let mut stash = PingPong::new(TestbedOptions::default().stressed(101));
    let mut nonstash = PingPong::new(TestbedOptions::default().nonstash().stressed(202));
    points
        .iter()
        .map(|(label, n)| {
            let s = stash.run(jam, InvocationMode::Injected, *n, samples);
            let ns = nonstash.run(jam, InvocationMode::Injected, *n, samples);
            let ss = summarize(&s.latencies);
            let nss = summarize(&ns.latencies);
            vec![
                label.clone(),
                format!("{:.2}", nss.median_us),
                format!("{:.2}", nss.p999_us),
                format!("{:.0}%", nss.spread * 100.0),
                format!("{:.2}", ss.median_us),
                format!("{:.2}", ss.p999_us),
                format!("{:.0}%", ss.spread * 100.0),
            ]
        })
        .collect()
}

/// Fig. 11: Indirect Put latency on a fully loaded system, Stash vs Nonstash
/// (median, 99.9th percentile, tail-latency spread).
pub fn fig11() -> FigureData {
    let points: Vec<(String, usize)> = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        .iter()
        .map(|&n| (n.to_string(), n))
        .collect();
    FigureData {
        id: "fig11",
        title: "Indirect Put: latency on a fully loaded system (Stash vs Nonstash)",
        headers: vec![
            "ints",
            "Nonstash med (us)",
            "Nonstash tail (us)",
            "Nonstash spread",
            "Stash med (us)",
            "Stash tail (us)",
            "Stash spread",
        ],
        rows: tail_rows(BuiltinJam::IndirectPut, &points, 1500),
    }
}

/// Fig. 12: Server-Side Sum latency on a fully loaded system, Stash vs Nonstash.
pub fn fig12() -> FigureData {
    let points: Vec<(String, usize)> = [512usize, 1024, 2048, 4096, 8192, 16384, 32768]
        .iter()
        .map(|&size| (format!("{size}B"), ints_for_frame(size)))
        .collect();
    FigureData {
        id: "fig12",
        title: "Server-Side Sum: latency on a fully loaded system (Stash vs Nonstash)",
        headers: vec![
            "size",
            "Nonstash med (us)",
            "Nonstash tail (us)",
            "Nonstash spread",
            "Stash med (us)",
            "Stash tail (us)",
            "Stash spread",
        ],
        rows: tail_rows(BuiltinJam::ServerSideSum, &points, 1200),
    }
}

fn wfe_rows(jam: BuiltinJam, points: &[(String, usize)], iters: usize) -> Vec<Vec<String>> {
    let mut poll = PingPong::new(TestbedOptions::default());
    let mut wfe = PingPong::new(TestbedOptions::default().wfe());
    points
        .iter()
        .map(|(label, n)| {
            let p = poll.run(jam, InvocationMode::Injected, *n, iters);
            let w = wfe.run(jam, InvocationMode::Injected, *n, iters);
            let factor = p.receiver_cycles.total() as f64 / w.receiver_cycles.total().max(1) as f64;
            vec![
                label.clone(),
                format!("{:.3}", median(&p.latencies).as_us()),
                format!("{:.3}", median(&w.latencies).as_us()),
                format!("{:.3e}", p.receiver_cycles.total() as f64),
                format!("{:.3e}", w.receiver_cycles.total() as f64),
                format!("{factor:.2}x"),
            ]
        })
        .collect()
}

/// Fig. 13: Indirect Put latency and receiver CPU cycles, Polling vs WFE.
pub fn fig13() -> FigureData {
    let points: Vec<(String, usize)> = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
        .iter()
        .map(|&n| (n.to_string(), n))
        .collect();
    FigureData {
        id: "fig13",
        title: "Indirect Put: effect of WFE on latency and CPU cycle count",
        headers: vec![
            "ints",
            "Polling (us)",
            "WFE (us)",
            "Polling cycles",
            "WFE cycles",
            "cycle reduction",
        ],
        rows: wfe_rows(BuiltinJam::IndirectPut, &points, 400),
    }
}

/// Fig. 14: Server-Side Sum latency and receiver CPU cycles, Polling vs WFE.
pub fn fig14() -> FigureData {
    let points: Vec<(String, usize)> = [512usize, 1024, 2048, 4096, 8192, 16384, 32768]
        .iter()
        .map(|&size| (format!("{size}B"), ints_for_frame(size)))
        .collect();
    FigureData {
        id: "fig14",
        title: "Server-Side Sum: effect of WFE on latency and CPU cycle count",
        headers: vec![
            "size",
            "Polling (us)",
            "WFE (us)",
            "Polling cycles",
            "WFE cycles",
            "cycle reduction",
        ],
        rows: wfe_rows(BuiltinJam::ServerSideSum, &points, 300),
    }
}

/// Every figure in order.
pub fn all_figures() -> Vec<fn() -> FigureData> {
    vec![
        fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14,
    ]
}

/// Look a figure generator up by id (`"fig5"` … `"fig14"`).
pub fn figure_by_name(name: &str) -> Option<fn() -> FigureData> {
    Some(match name {
        "fig5" => fig5,
        "fig6" => fig6,
        "fig7" => fig7,
        "fig8" => fig8,
        "fig9" => fig9,
        "fig10" => fig10,
        "fig11" => fig11,
        "fig12" => fig12,
        "fig13" => fig13,
        "fig14" => fig14,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_lookup() {
        assert!(figure_by_name("fig5").is_some());
        assert!(figure_by_name("fig14").is_some());
        assert!(figure_by_name("fig99").is_none());
        assert_eq!(all_figures().len(), 10);
    }

    #[test]
    fn render_produces_a_table() {
        let f = FigureData {
            id: "figX",
            title: "test",
            headers: vec!["a", "b"],
            rows: vec![vec!["1".into(), "2.5".into()]],
        };
        let s = f.render();
        assert!(s.contains("figX"));
        assert!(s.contains("2.5"));
    }

    #[test]
    fn frame_size_helper_inverts_frame_math() {
        // 60 + 4n = size
        assert_eq!(ints_for_frame(64), 1);
        assert_eq!(ints_for_frame(256), 49);
        assert_eq!(ints_for_frame(32768), (32768 - 60) / 4);
    }
}
