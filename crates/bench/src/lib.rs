//! Shared harness utilities for the experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §3 for the index). This library holds the common
//! plumbing: workload construction at a named scale, running both
//! algorithms, and rendering/serializing result tables.

use cip_base::cli::{self, Argv, UsageError};
use cip_core::{
    average_metrics, evaluate_mcml_dt, evaluate_ml_rcb, McmlDtConfig, MetricsRow, MlRcbConfig,
};
use cip_sim::{SimConfig, SimResult};
use cip_telemetry::json::ToJson;
use cip_telemetry::json_struct;
use std::time::Instant;

/// Workload scale selector (command-line `--scale`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 11,785 nodes, 8,352 elements; seconds per experiment. Default.
    Small,
    /// 44,275 nodes, 34,304 elements; minutes for the full Table 1.
    Medium,
    /// 116,659 nodes, 95,160 elements (the paper's mesh has 156,601 nodes).
    Paper,
}

impl Scale {
    /// Parses `small` / `medium` / `paper`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "small" => Some(Self::Small),
            "medium" => Some(Self::Medium),
            "paper" => Some(Self::Paper),
            _ => None,
        }
    }

    /// The simulation configuration for this scale.
    pub fn sim_config(self) -> SimConfig {
        match self {
            Self::Small => SimConfig::small(),
            Self::Medium => SimConfig::medium(),
            Self::Paper => SimConfig::paper_scale(),
        }
    }
}

/// Parses `--scale X --k A,B --snapshots N` style arguments with defaults.
#[derive(Debug, PartialEq)]
pub struct HarnessArgs {
    /// Selected scale.
    pub scale: Scale,
    /// Part counts to evaluate.
    pub ks: Vec<usize>,
    /// Optional snapshot-count override (shortens the sequence).
    pub snapshots: Option<usize>,
}

impl HarnessArgs {
    /// Parses the process arguments ([`HarnessArgs::from_argv`]); a bad
    /// argument is a usage error (one line on stderr, exit code 2).
    pub fn parse(default_ks: &[usize]) -> Self {
        cli::parse(|argv| Self::from_argv(argv, default_ks))
    }

    /// Parses `argv`; `--scale` defaults to small and `--k` to
    /// `default_ks`. An unknown argument or scale, a flag without its
    /// value, and a count that is not a positive integer are errors.
    pub fn from_argv(argv: &mut Argv, default_ks: &[usize]) -> Result<Self, UsageError> {
        let mut out = Self { scale: Scale::Small, ks: default_ks.to_vec(), snapshots: None };
        let positive = |v: &str| v.parse().ok().filter(|&n| n >= 1);
        while let Some(flag) = argv.next_flag() {
            match flag.as_str() {
                "--scale" => {
                    out.scale = argv.parse_with(&flag, "small, medium or paper", Scale::parse)?
                }
                "--k" => {
                    out.ks = argv.parse_with(&flag, "positive integers K[,K...]", |v| {
                        v.split(',').map(positive).collect()
                    })?
                }
                "--snapshots" => {
                    out.snapshots = Some(argv.parse_with(&flag, "a positive integer", positive)?)
                }
                _ => {
                    return Err(cli::unknown(
                        &flag,
                        "usage: --scale small|medium|paper, --k K[,K...], --snapshots N",
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Runs the simulation for these arguments.
    pub fn run_sim(&self) -> SimResult {
        let mut cfg = self.scale.sim_config();
        if let Some(s) = self.snapshots {
            cfg.snapshots = s;
        }
        let t = Instant::now();
        let sim = cip_sim::run(&cfg);
        eprintln!(
            "simulated {} snapshots ({} nodes, {} elements, first contact set: {} faces) in {:.1?}",
            sim.len(),
            sim.base.num_nodes(),
            sim.base.num_elements(),
            sim.snapshots[0].contact.num_faces(),
            t.elapsed()
        );
        sim
    }
}

/// One Table-1 comparison at a given k.
#[derive(Debug, Clone)]
pub struct Table1Entry {
    /// Part count.
    pub k: usize,
    /// MCML+DT averages.
    pub mcml_dt: MetricsRow,
    /// ML+RCB averages.
    pub ml_rcb: MetricsRow,
}

json_struct!(Table1Entry { k, mcml_dt, ml_rcb });

impl Table1Entry {
    /// The paper's §5.2 headline ratio: ML+RCB non-search communication
    /// (FEComm + 2·M2MComm) over MCML+DT's (FEComm), minus one — e.g.
    /// 0.72 means ML+RCB needs 72% more communication.
    pub fn non_search_overhead(&self) -> f64 {
        self.ml_rcb.non_search_comm() / self.mcml_dt.non_search_comm() - 1.0
    }

    /// Relative NRemote difference: positive when ML+RCB ships more
    /// surface elements than MCML+DT.
    pub fn n_remote_overhead(&self) -> f64 {
        self.ml_rcb.n_remote / self.mcml_dt.n_remote - 1.0
    }
}

/// Runs both algorithms at part count `k` and returns the averaged rows.
pub fn run_table1_entry(sim: &SimResult, k: usize) -> Table1Entry {
    let t = Instant::now();
    let (mc, _) = evaluate_mcml_dt(sim, &McmlDtConfig::paper(k));
    eprintln!("  MCML+DT k={k}: {:.1?}", t.elapsed());
    let t = Instant::now();
    let ml = evaluate_ml_rcb(sim, &MlRcbConfig::paper(k));
    eprintln!("  ML+RCB  k={k}: {:.1?}", t.elapsed());
    Table1Entry { k, mcml_dt: average_metrics(&mc), ml_rcb: average_metrics(&ml) }
}

/// Renders the Table-1 layout (same columns as the paper).
pub fn render_table1(entries: &[Table1Entry]) -> String {
    let mut s = String::new();
    s.push_str(
        "           |            MCML+DT Algorithm |                     ML+RCB Algorithm\n",
    );
    s.push_str("           |   FEComm  NTNodes   NRemote |   FEComm  M2MComm  UpdComm   NRemote\n");
    s.push_str(
        "-----------+------------------------------+--------------------------------------\n",
    );
    for e in entries {
        s.push_str(&format!(
            "{:>8}-way | {:>8.0} {:>8.0} {:>9.0} | {:>8.0} {:>8.0} {:>8.0} {:>9.0}\n",
            e.k,
            e.mcml_dt.fe_comm,
            e.mcml_dt.nt_nodes,
            e.mcml_dt.n_remote,
            e.ml_rcb.fe_comm,
            e.ml_rcb.m2m_comm,
            e.ml_rcb.upd_comm,
            e.ml_rcb.n_remote,
        ));
    }
    s.push('\n');
    for e in entries {
        s.push_str(&format!(
            "k={:<4} ML+RCB non-search comm overhead vs MCML+DT: {:+.0}%   NRemote overhead: {:+.1}%\n",
            e.k,
            100.0 * e.non_search_overhead(),
            100.0 * e.n_remote_overhead(),
        ));
    }
    s
}

/// Writes a result to `results/<name>.json` (best effort; the textual
/// output is the primary artifact). The value is wrapped in the shared
/// `cip-results-v1` envelope ([`cip_core::results_document`]), the same
/// schema `cip-trace` writes, so everything under `results/` is
/// machine-readable uniformly.
pub fn write_json<T: ToJson>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    let doc = cip_core::results_document(name, &value.to_json());
    match std::fs::write(&path, doc) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
    }

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        HarnessArgs::from_argv(&mut Argv::new(args), &[25, 100]).map_err(|e| e.0)
    }

    #[test]
    fn arguments_parse_with_defaults() {
        let none = HarnessArgs { scale: Scale::Small, ks: vec![25, 100], snapshots: None };
        assert_eq!(parse(&[]), Ok(none));
        let all = HarnessArgs { scale: Scale::Medium, ks: vec![4, 8], snapshots: Some(7) };
        assert_eq!(parse(&["--scale", "medium", "--k", "4,8", "--snapshots", "7"]), Ok(all));
    }

    #[test]
    fn an_unknown_scale_is_refused_not_run_as_small() {
        let err = parse(&["--scale", "tiny"]).unwrap_err();
        assert!(err.contains("'tiny'"), "{err}");
    }

    #[test]
    fn a_part_count_that_is_not_a_number_is_refused() {
        assert!(parse(&["--k", "x"]).unwrap_err().contains("'x'"));
        assert!(parse(&["--k", "25,x"]).is_err());
        assert!(parse(&["--k", ""]).is_err());
    }

    #[test]
    fn a_zero_part_count_is_refused_before_the_partitioner() {
        assert!(parse(&["--k", "0"]).unwrap_err().contains("'0'"));
    }

    #[test]
    fn a_snapshot_count_that_is_not_a_positive_number_is_refused() {
        assert!(parse(&["--snapshots", "abc"]).unwrap_err().contains("'abc'"));
        assert!(parse(&["--snapshots", "0"]).is_err());
    }

    #[test]
    fn a_missing_value_or_an_unknown_argument_is_refused() {
        assert!(parse(&["--k"]).unwrap_err().contains("'--k'"));
        assert!(parse(&["--scael", "small"]).unwrap_err().contains("'--scael'"));
    }

    #[test]
    fn table_renders_all_entries() {
        let e = Table1Entry {
            k: 25,
            mcml_dt: MetricsRow {
                fe_comm: 100.0,
                nt_nodes: 10.0,
                n_remote: 5.0,
                ..Default::default()
            },
            ml_rcb: MetricsRow {
                fe_comm: 80.0,
                m2m_comm: 40.0,
                upd_comm: 2.0,
                n_remote: 6.0,
                ..Default::default()
            },
        };
        let s = render_table1(std::slice::from_ref(&e));
        assert!(s.contains("25-way"));
        assert!(s.contains("+60%"), "{s}"); // (80 + 80) / 100 - 1
        assert!((e.n_remote_overhead() - 0.2).abs() < 1e-12);
    }
}
