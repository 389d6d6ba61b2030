//! `fig4-campaign`: the paper's Fig. 4 grid as a crash-safe campaign.
//! 9 IMB configurations, 10 PARSEC benchmarks and the 6 Table 3 mixes
//! at 2, 4 and 8 threads, each under vanilla and SmartBalance: 150
//! small cells, run through `Campaign` with 2 workers, a telemetry hub,
//! published snapshots and a fresh checkpoint journal per round. Here
//! the campaign layer (batch barriers, whole-journal flushes, snapshot
//! renders) carries much of the cost, and the round also yields the
//! paper's headline smart/vanilla ratio.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use archsim::Platform;
use campaign::{Campaign, CampaignConfig, CampaignJob, CheckpointJournal};
use kernelsim::{LoadBalancer, System};
use smartbalance::{splitmix64, ExperimentSpec, Policy, PredictorSet};
use telemetry::SnapshotCell;
use workloads::{ImbConfig, MixId, WorkloadProfile};

use crate::host::Clock;
use crate::probe::{ns_since, render_us, LayerData, Shadow, Spans, TimedBalancer};
use crate::run::{phases, Cells, Round, Workload};
use crate::stats::{mean, ratio, Fingerprint};

/// Profile scale of the paper-figure binaries.
const RUN_SCALE: f64 = 0.6;
/// Thread counts of Fig. 4.
const THREADS: [usize; 3] = [2, 4, 8];
/// Each spec runs under these, in this order: cell `2k` is vanilla and
/// cell `2k + 1` SmartBalance.
const POLICIES: [Policy; 2] = [Policy::Vanilla, Policy::Smart];
/// Campaign workers, fixed: with "auto" the measured times would
/// follow the machine's core count.
const WORKERS: usize = 2;

/// The Fig. 4 grid. Seed 0 keeps the campaign's index-derived cell
/// seeds; any other seed perturbs every cell seed.
pub fn grid(seed: u64) -> Vec<CampaignJob> {
    let platform = Platform::quad_heterogeneous();
    let mut bundles: Vec<(String, Vec<WorkloadProfile>)> = ImbConfig::all_nine()
        .into_iter()
        .map(|c| (c.name(), vec![c.profile()]))
        .collect();
    bundles.extend(
        workloads::parsec::all()
            .into_iter()
            .map(|p| (p.name().to_owned(), vec![p])),
    );
    bundles.extend(MixId::ALL.iter().map(|m| (m.name(), m.members())));
    let mut jobs = Vec::new();
    for (label, bundle) in &bundles {
        for threads in THREADS {
            let profiles = bundle
                .iter()
                .flat_map(|p| ExperimentSpec::parallelize(&p.scaled(RUN_SCALE), threads))
                .collect();
            let spec =
                ExperimentSpec::new(format!("{label}/{threads}t"), platform.clone(), profiles);
            for policy in POLICIES {
                let mut job = CampaignJob::new(jobs.len(), spec.clone(), policy);
                if seed != 0 {
                    job.seed = splitmix64(job.seed ^ seed);
                }
                jobs.push(job);
            }
        }
    }
    jobs
}

/// The fig4-campaign workload.
pub struct Fig4 {
    seed: u64,
    out_dir: PathBuf,
    /// Predictor set for the traced run's shadow, trained once.
    shadow_predictors: Option<PredictorSet>,
}

impl Fig4 {
    /// Journals go to `out_dir`.
    pub fn new(seed: u64, out_dir: PathBuf) -> Self {
        Fig4 {
            seed,
            out_dir,
            shadow_predictors: None,
        }
    }

    /// An empty journal at `name` under the output directory.
    fn fresh_journal(&self, name: &str) -> CheckpointJournal {
        let path = self.out_dir.join(name);
        let _ = std::fs::remove_file(&path);
        CheckpointJournal::load(&path).expect("a removed journal loads empty")
    }
}

impl Workload for Fig4 {
    fn samples_per_round(&self) -> usize {
        THREADS.len() * 25
    }

    fn round(&mut self, spans: Option<&mut Spans>) -> Round {
        let replay_jobs = spans.is_some().then(|| grid(self.seed));
        let mut clock = Clock::start(WORKERS);
        let jobs = grid(self.seed);
        let journal = self.fresh_journal("fig4-campaign.journal.jsonl");
        let config = CampaignConfig {
            workers: WORKERS,
            ..CampaignConfig::default()
        };
        let flush_every = config.flush_every;
        let mut campaign = Campaign::new(jobs, config, journal);
        let hub = telemetry::shared();
        campaign.attach_telemetry(hub.clone());
        let mailbox = Arc::new(SnapshotCell::fresh());
        campaign.publish_snapshots(Arc::clone(&mailbox));
        clock.lap();
        let report = campaign.run().expect("the campaign journal flushes");
        clock.lap();
        let laps = clock.finish();
        let (setup_s, wall_s, host_wall_s) = phases(&laps);
        // Cell times are host times read inside the campaign; they get
        // the campaign's scale.
        let scale = ratio(wall_s, host_wall_s);

        let mut problems = Vec::new();
        let mut failed = report.poisoned.len() as u64;
        for cell in &report.poisoned {
            problems.push(format!("cell {} quarantined: {}", cell.index, cell.error));
        }
        let mut fp = Fingerprint::default();
        // Per grid index: IPS/W, host ms and epochs of the cell.
        let mut eff = vec![None; report.cells];
        let mut cost = vec![None; report.cells];
        let (mut slices, mut instructions, mut energy) = (0u64, 0u64, 0.0);
        let mut cell_ms = Vec::new();
        for cell in &report.completed {
            let r = &cell.result.result;
            let st = &r.stats;
            if !r.completed {
                failed += 1;
                problems.push(format!("cell {} left tasks running", cell.index));
            }
            fp.word(cell.index as u64);
            fp.outcome(st);
            fp.word(r.epochs);
            slices += st.total_slices;
            if cell.index % 2 == 1 {
                instructions += st.total_instructions;
                energy += st.total_energy_j;
            }
            eff[cell.index] = Some(r.energy_efficiency());
            let ms = cell.result.wall_s * 1e3 * scale;
            cost[cell.index] = Some((ms, r.epochs as f64));
            cell_ms.push(ms);
        }
        let gains: Vec<f64> = eff
            .chunks(2)
            .filter_map(|pair| Some(pair[1]? / pair[0]?))
            .collect();
        // One epoch-time sample per spec, both policies pooled: alone,
        // SmartBalance cells (which train predictors) and vanilla cells
        // form two clusters, and a median between them is unstable.
        let epoch_ms: Vec<f64> = cost
            .chunks(2)
            .filter_map(|pair| {
                let ((ms_a, ep_a), (ms_b, ep_b)) = (pair[0]?, pair[1]?);
                Some((ms_a + ms_b) / (ep_a + ep_b).max(1.0))
            })
            .collect();
        if gains.len() * 2 != report.cells {
            problems.push(format!(
                "{} of {} pairs completed",
                gains.len(),
                report.cells / 2
            ));
        }
        let gain_vs_vanilla = mean(&gains);
        if gain_vs_vanilla <= 1.0 {
            problems.push(format!(
                "SmartBalance no better than vanilla: mean ratio {gain_vs_vanilla}"
            ));
        }

        let layers = spans.zip(replay_jobs).map(|(spans, jobs)| {
            let end = spans.now_ns();
            let begin = end - (host_wall_s * 1e9) as u64;
            spans.push("campaign", "campaign", begin, end);
            let cell_wall: f64 = report.completed.iter().map(|c| c.result.wall_s).sum();
            let snapshot = mailbox.latest();
            let progress = &snapshot.progress;
            let mut layers = self.replay_cells(&jobs, &report, spans, &mut problems);
            layers.campaign_overhead = vec![1.0 - cell_wall / (WORKERS as f64 * host_wall_s)];
            layers.render_us = vec![render_us(&hub.borrow())];
            let (flush_ms, bytes) =
                self.replay_flushes(&jobs, campaign.journal(), flush_every, spans);
            layers.flush_ms = vec![flush_ms];
            layers.journal_bytes = vec![bytes as f64];
            let counts = &mut layers.counts;
            counts.insert("campaign.flushes", progress.journal_flushes);
            // The runner publishes at start and end, at each batch
            // dispatch, after each resolved cell and after each flush.
            counts.insert(
                "telemetry.snapshot_publishes",
                2 + 2 * progress.journal_flushes + progress.executed_this_run,
            );
            layers
        });

        Round {
            setup_s,
            wall_s,
            host_wall_s,
            epoch_ms,
            slices,
            ips_per_w: ratio(instructions as f64, energy),
            fingerprint: fp.value(),
            attempted: report.cells as u64,
            failed,
            problems,
            cells: Some(Cells {
                cell_ms,
                gain_vs_vanilla,
            }),
            layers,
        }
    }
}

impl Fig4 {
    /// Re-runs every cell serially, outside the campaign, with the
    /// timing wrapper and a telemetry hub: the kernelsim, archsim and
    /// core layers of the grid. Each replay must reproduce its cell.
    fn replay_cells(
        &mut self,
        jobs: &[CampaignJob],
        report: &campaign::CampaignReport,
        spans: &mut Spans,
        problems: &mut Vec<String>,
    ) -> LayerData {
        let base = spans.base();
        let mut layers = LayerData::default();
        for cell in &report.completed {
            let job = jobs[cell.index].to_suite_job();
            let spec = &job.spec;
            let shadow = (job.policy == Policy::Smart).then(|| {
                let predictors = self
                    .shadow_predictors
                    .get_or_insert_with(|| Shadow::train(&spec.platform));
                Shadow::full(predictors.clone())
            });
            let hub = telemetry::shared();
            let mut sys = System::new(spec.platform.clone(), spec.sys_config);
            sys.set_telemetry(hub.clone());
            let mut timed = TimedBalancer::new(job.build_balancer(), shadow, base);
            timed.attach_telemetry(&hub);
            for profile in &spec.profiles {
                sys.spawn(profile.clone());
            }
            let start = spans.now_ns();
            let mut epoch_ns = Vec::new();
            while (epoch_ns.len() as u64) < spec.max_epochs && sys.live_tasks() > 0 {
                let t = Instant::now();
                sys.run_epoch(&mut timed);
                epoch_ns.push(ns_since(t, Instant::now()) as f64);
            }
            spans.push(&spec.name, "cell", start, spans.now_ns());
            let want = &cell.result.result;
            if epoch_ns.len() as u64 != want.epochs || sys.stats() != want.stats {
                problems.push(format!("cell {} replays differently", cell.index));
            }
            layers.add_run(LayerData::from_run(&sys, &timed, &epoch_ns, &hub));
        }
        layers
    }

    /// Replays the campaign's journal traffic, timed: the cells'
    /// records inserted batch by batch in grid order, with one atomic
    /// flush per batch. Returns the summed flush ms and the bytes of
    /// the last flush.
    fn replay_flushes(
        &self,
        jobs: &[CampaignJob],
        source: &CheckpointJournal,
        flush_every: usize,
        spans: &mut Spans,
    ) -> (f64, u64) {
        let mut journal = self.fresh_journal("fig4-campaign.replay.jsonl");
        let (mut ms, mut bytes) = (0.0, 0);
        for batch in jobs.chunks(flush_every.max(1)) {
            for job in batch {
                if let Some(record) = source.get(&job.id()) {
                    journal.insert(record.clone());
                }
            }
            let start = spans.now_ns();
            let t = Instant::now();
            bytes = journal.flush().expect("the replay journal flushes") as u64;
            ms += t.elapsed().as_secs_f64() * 1e3;
            spans.push("flush", "campaign", start, spans.now_ns());
        }
        (ms, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_150_cells_in_75_pairs() {
        let jobs = grid(0);
        assert_eq!(jobs.len(), 150);
        let pairs: Vec<&[CampaignJob]> = jobs.chunks(2).collect();
        assert_eq!(pairs.len(), 75);
        let mut specs = std::collections::BTreeSet::new();
        for (k, pair) in pairs.iter().enumerate() {
            assert_eq!((pair[0].index, pair[1].index), (2 * k, 2 * k + 1));
            assert_eq!(
                (pair[0].policy, pair[1].policy),
                (Policy::Vanilla, Policy::Smart)
            );
            assert_eq!(pair[0].spec, pair[1].spec, "a pair shares its spec");
            specs.insert(pair[0].spec.name.clone());
        }
        assert_eq!(specs.len(), 75, "every pair runs its own spec");
    }

    #[test]
    fn seed_zero_keeps_the_index_seeds() {
        let base = grid(0);
        let other = grid(9);
        for (i, (a, b)) in base.iter().zip(&other).enumerate() {
            assert_eq!(a.seed, splitmix64(i as u64));
            assert_ne!(a.seed, b.seed);
        }
    }
}
