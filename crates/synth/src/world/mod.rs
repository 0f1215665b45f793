//! World generation: the actor simulation and its emitted datasets.

mod builder;

use droplens_bgp::{format as bgpfmt, BgpUpdate, Peer};
use droplens_drop::{format as dropfmt, DropSnapshot, SblDatabase};
use droplens_irr::{format as irrbin, journal as irrfmt, JournalEntry};
use droplens_net::Date;
use droplens_rir::format::{write_stats_file, write_stats_file_bin, StatsFile};
use droplens_rpki::format::{write_events, write_events_bin, RoaEvent};

use crate::{GroundTruth, WorldConfig};

/// A fully generated synthetic world: every dataset the paper's pipeline
/// consumes, plus ground truth.
pub struct World {
    /// The configuration that produced it.
    pub config: WorldConfig,
    /// Collector peers.
    pub peers: Vec<Peer>,
    /// The complete BGP update stream, chronologically sorted.
    pub bgp_updates: Vec<BgpUpdate>,
    /// The IRR journal, chronologically sorted.
    pub irr_journal: Vec<JournalEntry>,
    /// The ROA event journal, chronologically sorted.
    pub roa_events: Vec<RoaEvent>,
    /// Dated RIR stats snapshots (one file per RIR per date).
    pub rir_snapshots: Vec<(Date, Vec<StatsFile>)>,
    /// Daily DROP snapshots over the study window.
    pub drop_snapshots: Vec<DropSnapshot>,
    /// SBL record bodies (NR prefixes are absent, as in reality).
    pub sbl_db: SblDatabase,
    /// What the generator actually did.
    pub truth: GroundTruth,
}

impl World {
    /// Generate a world from a seed and configuration. Identical inputs
    /// produce identical worlds.
    pub fn generate(seed: u64, config: &WorldConfig) -> World {
        let obs = droplens_obs::global();
        let world = {
            let mut span = droplens_obs::trace::global().span("synth.generate", "stage");
            span.arg_u64("seed", seed)
                .arg_str("study_start", config.study_start.to_string())
                .arg_str("study_end", config.study_end.to_string())
                .arg_u64("peers", config.peer_count as u64);
            let world = builder::Builder::new(seed, config.clone()).build();
            span.arg_u64("bgp_updates", world.bgp_updates.len() as u64);
            world
        };
        obs.counter("synth.bgp_updates")
            .add(world.bgp_updates.len() as u64);
        obs.counter("synth.irr_entries")
            .add(world.irr_journal.len() as u64);
        obs.counter("synth.roa_events")
            .add(world.roa_events.len() as u64);
        obs.counter("synth.drop_listings")
            .add(world.truth.listed.len() as u64);
        world
    }

    /// The analyst's manual labels for every SBL record they could read.
    /// Keyed by SBL id; derived from ground truth, exactly as the paper's
    /// authors derived theirs by reading Spamhaus' prose. The pipeline
    /// consults them where automation falls short: records with no
    /// Appendix-A keyword (the paper's 7.3% bucket) and — under
    /// permissive ingestion — records lost to quarantined archive damage.
    pub fn manual_labels(
        &self,
    ) -> std::collections::BTreeMap<droplens_drop::SblId, Vec<droplens_drop::Category>> {
        use droplens_drop::Category;
        let mut out = std::collections::BTreeMap::new();
        for snap in &self.drop_snapshots {
            for (prefix, sbl) in &snap.entries {
                let Some(sbl) = sbl else { continue };
                if self.sbl_db.get(*sbl).is_none() {
                    continue; // a vanished record was never read by anyone
                }
                let Some(truth) = self.truth.for_prefix(prefix) else {
                    continue;
                };
                let cats: Vec<Category> = truth
                    .categories
                    .iter()
                    .map(|c| match c {
                        crate::TrueCategory::Hijacked => Category::Hijacked,
                        crate::TrueCategory::Snowshoe => Category::SnowshoeSpam,
                        crate::TrueCategory::KnownSpamOp => Category::KnownSpamOperation,
                        crate::TrueCategory::MaliciousHosting => Category::MaliciousHosting,
                        crate::TrueCategory::Unallocated => Category::Unallocated,
                    })
                    .collect();
                out.insert(*sbl, cats);
            }
        }
        out
    }

    /// Serialize every dataset into its wire format.
    pub fn to_text_archives(&self) -> TextArchives {
        // The six archives serialize independently; fan out, collect into
        // fixed tuple positions (identical output at any worker count).
        let (bgp_updates, irr_journal, roa_events, rir_snapshots, drop_and_sbl) =
            droplens_par::join5(
                || bgpfmt::write_updates(&self.bgp_updates, &self.peers),
                || irrfmt::write_journal(&self.irr_journal),
                || write_events(&self.roa_events),
                || {
                    droplens_par::par_map(&self.rir_snapshots, |(date, files)| {
                        (
                            *date,
                            files.iter().map(write_stats_file).collect::<Vec<_>>(),
                        )
                    })
                },
                || {
                    (
                        droplens_par::par_map(&self.drop_snapshots, |s| (s.date, s.to_text())),
                        self.sbl_db.to_text(),
                    )
                },
            );
        let (drop_snapshots, sbl_records) = drop_and_sbl;
        TextArchives {
            bgp_updates,
            irr_journal,
            roa_events,
            rir_snapshots,
            drop_snapshots,
            sbl_records,
        }
    }

    /// Serialize every dataset into its `droplens-bin/1` sidecar form —
    /// the same records as [`World::to_text_archives`], in length-prefixed
    /// little-endian columns.
    pub fn to_binary_archives(&self) -> BinaryArchives {
        let (bgp_updates, irr_journal, roa_events, rir_snapshots, drop_and_sbl) =
            droplens_par::join5(
                || bgpfmt::write_updates_bin(&self.bgp_updates),
                || irrbin::write_journal_bin(&self.irr_journal),
                || write_events_bin(&self.roa_events),
                || {
                    droplens_par::par_map(&self.rir_snapshots, |(date, files)| {
                        (
                            *date,
                            files.iter().map(write_stats_file_bin).collect::<Vec<_>>(),
                        )
                    })
                },
                || {
                    (
                        droplens_par::par_map(&self.drop_snapshots, |s| {
                            (s.date, dropfmt::write_snapshot_bin(s))
                        }),
                        dropfmt::write_sbl_bin(&self.sbl_db),
                    )
                },
            );
        let (drop_snapshots, sbl_records) = drop_and_sbl;
        BinaryArchives {
            bgp_updates,
            irr_journal,
            roa_events,
            rir_snapshots,
            drop_snapshots,
            sbl_records,
        }
    }
}

/// The datasets as archive text, exactly as a scraper would have fetched
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextArchives {
    /// `bgpdump -m`-style update lines.
    pub bgp_updates: String,
    /// NRTM-style IRR journal.
    pub irr_journal: String,
    /// ROA CSV journal.
    pub roa_events: String,
    /// Per-date delegated-extended files (one string per RIR).
    pub rir_snapshots: Vec<(Date, Vec<String>)>,
    /// Per-date DROP list files.
    pub drop_snapshots: Vec<(Date, String)>,
    /// SBL record blocks.
    pub sbl_records: String,
}

/// The datasets as `droplens-bin/1` sidecar payloads — the binary fast
/// path mirroring [`TextArchives`] field for field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryArchives {
    /// Columnar update stream (`bgp/updates`).
    pub bgp_updates: Vec<u8>,
    /// Columnar IRR journal (`irr/journal`).
    pub irr_journal: Vec<u8>,
    /// Columnar ROA journal (`rpki/roas`).
    pub roa_events: Vec<u8>,
    /// Per-date delegated-stats sidecars (one payload per RIR).
    pub rir_snapshots: Vec<(Date, Vec<Vec<u8>>)>,
    /// Per-date DROP snapshot sidecars.
    pub drop_snapshots: Vec<(Date, Vec<u8>)>,
    /// SBL database sidecar (`sbl/records`).
    pub sbl_records: Vec<u8>,
}
