//! World generation: the actor simulation and its emitted datasets.

mod builder;

use droplens_bgp::{format as bgpfmt, BgpUpdate, Peer};
use droplens_drop::{format as dropfmt, DropSnapshot, SblDatabase};
use droplens_irr::{format as irrbin, journal as irrfmt, JournalEntry};
use droplens_net::Date;
use droplens_rir::format::{write_stats_file, write_stats_file_bin, StatsFile};
use droplens_rir::Rir;
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
        self.to_archives(&Writers {
            bgp: bgpfmt::write_updates,
            irr: irrfmt::write_journal,
            rpki: write_events,
            rir: write_stats_file,
            drop: DropSnapshot::to_text,
            sbl: SblDatabase::to_text,
        })
    }

    /// Serialize every dataset into its `droplens-bin/1` sidecar form —
    /// the same records as [`World::to_text_archives`], in length-prefixed
    /// little-endian columns.
    pub fn to_binary_archives(&self) -> BinaryArchives {
        self.to_archives(&Writers {
            bgp: |updates, _| bgpfmt::write_updates_bin(updates),
            irr: irrbin::write_journal_bin,
            rpki: write_events_bin,
            rir: write_stats_file_bin,
            drop: dropfmt::write_snapshot_bin,
            sbl: dropfmt::write_sbl_bin,
        })
    }

    fn to_archives<B: Send>(&self, w: &Writers<B>) -> Archives<B> {
        // The six archives serialize independently; fan out, collect into
        // fixed tuple positions (identical output at any worker count).
        let (bgp_updates, irr_journal, roa_events, rir_snapshots, drop_and_sbl) =
            droplens_par::join5(
                || (w.bgp)(&self.bgp_updates, &self.peers),
                || (w.irr)(&self.irr_journal),
                || (w.rpki)(&self.roa_events),
                || {
                    droplens_par::par_map(&self.rir_snapshots, |(date, files)| {
                        (*date, files.iter().map(w.rir).collect::<Vec<_>>())
                    })
                },
                || {
                    (
                        droplens_par::par_map(&self.drop_snapshots, |s| (s.date, (w.drop)(s))),
                        (w.sbl)(&self.sbl_db),
                    )
                },
            );
        let (drop_snapshots, sbl_records) = drop_and_sbl;
        Archives {
            bgp_updates,
            irr_journal,
            roa_events,
            rir_snapshots,
            drop_snapshots,
            sbl_records,
        }
    }
}

/// One representation's serializers, dataset by dataset: all that
/// [`World::to_text_archives`] and [`World::to_binary_archives`] differ by.
struct Writers<B> {
    bgp: fn(&[BgpUpdate], &[Peer]) -> B,
    irr: fn(&[JournalEntry]) -> B,
    rpki: fn(&[RoaEvent]) -> B,
    rir: fn(&StatsFile) -> B,
    drop: fn(&DropSnapshot) -> B,
    sbl: fn(&SblDatabase) -> B,
}

/// The six datasets serialized into one representation, as a scraper
/// would have fetched them: `B = String` for the canonical text
/// ([`TextArchives`]), `B = Vec<u8>` for the `droplens-bin/1` sidecars
/// ([`BinaryArchives`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Archives<B> {
    /// BGP update stream (`bgpdump -m`-style lines / `bgp/updates` columns).
    pub bgp_updates: B,
    /// IRR journal (NRTM-style / `irr/journal` columns).
    pub irr_journal: B,
    /// ROA event journal (CSV / `rpki/roas` columns).
    pub roa_events: B,
    /// Per-date delegated-extended files (one payload per RIR, in
    /// [`Rir::ALL`] order).
    pub rir_snapshots: Vec<(Date, Vec<B>)>,
    /// Per-date DROP list files.
    pub drop_snapshots: Vec<(Date, B)>,
    /// SBL record blocks (text / `sbl/records` columns).
    pub sbl_records: B,
}

/// The datasets as archive text — the canonical representation.
pub type TextArchives = Archives<String>;

/// The datasets as `droplens-bin/1` sidecar payloads — the binary fast
/// path mirroring [`TextArchives`] field for field.
pub type BinaryArchives = Archives<Vec<u8>>;

/// Where one representation keeps each dataset in an archive tree,
/// relative to the tree's root. The on-disk layout and the quarantine
/// labels both read these paths, so a label always names the file the
/// record came from. A sidecar sits next to its text twin with the
/// extension `bin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    ext: &'static str,
    roa_ext: &'static str,
}

impl Layout {
    /// The canonical text archives (`.txt`, the ROA journal `.csv`).
    pub const TEXT: Layout = Layout {
        ext: "txt",
        roa_ext: "csv",
    };
    /// The `droplens-bin/1` sidecars (`.bin`).
    pub const BINARY: Layout = Layout {
        ext: "bin",
        roa_ext: "bin",
    };

    /// The extension of the per-date RIR and DROP files.
    pub fn ext(&self) -> &'static str {
        self.ext
    }

    /// `bgp/updates.<ext>`.
    pub fn bgp_updates(&self) -> String {
        format!("bgp/updates.{}", self.ext)
    }

    /// `irr/journal.<ext>`.
    pub fn irr_journal(&self) -> String {
        format!("irr/journal.{}", self.ext)
    }

    /// `rpki/roas.csv` or `rpki/roas.bin`.
    pub fn roa_events(&self) -> String {
        format!("rpki/roas.{}", self.roa_ext)
    }

    /// `rir/<YYYYMMDD>/delegated-<rir>-extended.<ext>` for the
    /// `index`-th file of a snapshot ([`Rir::ALL`] order).
    pub fn rir_file(&self, date: Date, index: usize) -> String {
        match Rir::ALL.get(index) {
            Some(r) => format!(
                "rir/{}/delegated-{}-extended.{}",
                date.compact(),
                r.token(),
                self.ext
            ),
            None => format!("rir/{}/file{}", date.compact(), index),
        }
    }

    /// `drop/<YYYY-MM-DD>.<ext>`.
    pub fn drop_snapshot(&self, date: Date) -> String {
        format!("drop/{date}.{}", self.ext)
    }

    /// `sbl/records.<ext>`.
    pub fn sbl_records(&self) -> String {
        format!("sbl/records.{}", self.ext)
    }
}
