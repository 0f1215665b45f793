//! On-disk archive layout: writing a world out and reading it back.
//!
//! ```text
//! <dir>/
//!   manifest.tsv                     study window + peer table
//!   bgp/updates.txt                  bgpdump-style one-line updates
//!   irr/journal.txt                  NRTM-style dated journal
//!   rpki/roas.csv                    dated ROA event journal
//!   rir/<YYYYMMDD>/delegated-<rir>-extended.txt
//!   drop/<YYYY-MM-DD>.txt            daily DROP snapshots
//!   sbl/records.txt                  SBL record blocks
//!   labels/manual_labels.tsv         analyst labels for keyword-less records
//! ```
//!
//! Every dataset also gets a `droplens-bin/1` sidecar next to its text
//! form, with the extension `.bin` (`bgp/updates.bin`, `rpki/roas.bin`,
//! `rir/<date>/delegated-<rir>-extended.bin`, ...). Text stays
//! canonical; the sidecars are the columnar fast path.
//!
//! The dataset paths are spelled once, in [`droplens_synth::Layout`]
//! (whose paths are also the study's quarantine labels). One generic
//! writer and one generic reader walk that table for either
//! representation: [`read_archives`] reads text, [`read_binary_archives`]
//! reads sidecars, and [`binary_sidecars_complete`] walks the text tree
//! probing each file's sidecar twin, which is how loaders pick the
//! default.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use droplens_bgp::{Peer, PeerId};
use droplens_core::StudyConfig;
use droplens_drop::{Category, SblId};
use droplens_net::{Asn, Date, DateRange};
use droplens_rir::Rir;
use droplens_synth::{Archives, BinaryArchives, Layout, TextArchives, World};

use crate::CliError;

fn write(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(|e| CliError::Io(parent.display().to_string(), e))?;
    }
    fs::write(path, contents).map_err(|e| CliError::Io(path.display().to_string(), e))
}

fn read(path: &Path) -> Result<String, CliError> {
    fs::read_to_string(path).map_err(|e| CliError::Io(path.display().to_string(), e))
}

fn read_bytes(path: &Path) -> Result<Vec<u8>, CliError> {
    fs::read(path).map_err(|e| CliError::Io(path.display().to_string(), e))
}

/// Serialize a world into the archive tree rooted at `dir`.
pub fn write_world(dir: &Path, world: &World) -> Result<(), CliError> {
    // Manifest: window plus the peer table.
    let mut manifest = String::from("# droplens archive manifest\n");
    manifest.push_str(&format!(
        "window\t{}\t{}\n",
        world.config.study_start, world.config.study_end
    ));
    for peer in &world.peers {
        manifest.push_str(&format!(
            "peer\t{}\t{}\t{}\n",
            peer.id.0,
            peer.asn.value(),
            peer.name
        ));
    }
    write(&dir.join("manifest.tsv"), &manifest)?;

    // The canonical text, then a binary sidecar next to each file.
    write_tree(dir, &Layout::TEXT, &world.to_text_archives())?;
    write_tree(dir, &Layout::BINARY, &world.to_binary_archives())?;

    // The analyst's manual labels for keyword-less records.
    let mut labels = String::from("# sbl-id\tcategories\n");
    for (id, cats) in world.manual_labels() {
        let codes: Vec<&str> = cats.iter().map(|c| c.code()).collect();
        labels.push_str(&format!("{id}\t{}\n", codes.join(",")));
    }
    write(&dir.join("labels/manual_labels.tsv"), &labels)?;
    Ok(())
}

/// Write one representation's files at the paths `layout` names.
fn write_tree<B: AsRef<[u8]>>(
    dir: &Path,
    layout: &Layout,
    archives: &Archives<B>,
) -> Result<(), CliError> {
    write(&dir.join(layout.bgp_updates()), &archives.bgp_updates)?;
    write(&dir.join(layout.irr_journal()), &archives.irr_journal)?;
    write(&dir.join(layout.roa_events()), &archives.roa_events)?;
    for (date, files) in &archives.rir_snapshots {
        for (i, body) in files.iter().enumerate() {
            write(&dir.join(layout.rir_file(*date, i)), body)?;
        }
    }
    for (date, body) in &archives.drop_snapshots {
        write(&dir.join(layout.drop_snapshot(*date)), body)?;
    }
    write(&dir.join(layout.sbl_records()), &archives.sbl_records)
}

/// Read the manifest and labels shared by both archive representations.
fn read_common(dir: &Path) -> Result<(StudyConfig, Vec<Peer>), CliError> {
    let manifest = read(&dir.join("manifest.tsv"))?;
    let mut window: Option<DateRange> = None;
    let mut peers: Vec<Peer> = Vec::new();
    for line in manifest.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        match fields[0] {
            "window" if fields.len() == 3 => {
                let start: Date = fields[1].parse()?;
                let end: Date = fields[2].parse()?;
                window = Some(DateRange::inclusive(start, end));
            }
            "peer" if fields.len() == 4 => {
                let id: u32 = fields[1]
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad peer id in manifest: {line}")))?;
                let asn: Asn = fields[2].parse()?;
                peers.push(Peer::new(PeerId(id), asn, fields[3]));
            }
            _ => return Err(CliError::Usage(format!("bad manifest line: {line}"))),
        }
    }
    let window = window.ok_or_else(|| CliError::Usage("manifest has no window line".to_owned()))?;

    let mut config = StudyConfig::new(window);
    config.manual_labels = read_labels(&dir.join("labels/manual_labels.tsv"))?;
    Ok((config, peers))
}

/// Read an archive tree back into the pieces `Study::from_text` needs.
pub fn read_archives(dir: &Path) -> Result<(StudyConfig, Vec<Peer>, TextArchives), CliError> {
    let (config, peers) = read_common(dir)?;
    Ok((config, peers, read_tree(dir, &Layout::TEXT, read)?))
}

/// Read an archive tree's binary sidecars into the pieces
/// `Study::from_binary` needs. Any missing sidecar is an error — use
/// [`binary_sidecars_complete`] first when falling back to text is an
/// option.
pub fn read_binary_archives(
    dir: &Path,
) -> Result<(StudyConfig, Vec<Peer>, BinaryArchives), CliError> {
    let (config, peers) = read_common(dir)?;
    Ok((config, peers, read_tree(dir, &Layout::BINARY, read_bytes)?))
}

/// Whether the tree carries a binary sidecar for every dataset its text
/// archives cover — the condition under which loading defaults to the
/// binary fast path. A tree written by an older droplens (or with a
/// sidecar deleted) is incomplete and loads from text. Walks the text
/// tree without reading it, probing each file's `.bin` twin.
pub fn binary_sidecars_complete(dir: &Path) -> bool {
    let twin = |text: &Path| {
        let sidecar = text.with_extension(Layout::BINARY.ext());
        sidecar
            .is_file()
            .then_some(())
            .ok_or_else(|| CliError::Usage(format!("missing {}", sidecar.display())))
    };
    read_tree(dir, &Layout::TEXT, twin).is_ok()
}

/// Read one representation's files at the paths `layout` names, with
/// `read` turning each file into its payload. The per-date datasets
/// are listed from disk: every `rir/<YYYYMMDD>/` directory and every
/// `drop/*.<ext>` file, sorted by name (= chronologically).
fn read_tree<B>(
    dir: &Path,
    layout: &Layout,
    read: impl Fn(&Path) -> Result<B, CliError>,
) -> Result<Archives<B>, CliError> {
    let mut rir_snapshots = Vec::new();
    for datedir in sorted_entries(&dir.join("rir"))? {
        let name = datedir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let date = Date::parse_compact(name)?;
        let files = (0..Rir::ALL.len())
            .map(|i| read(&dir.join(layout.rir_file(date, i))))
            .collect::<Result<Vec<_>, _>>()?;
        rir_snapshots.push((date, files));
    }
    let mut drop_snapshots = Vec::new();
    for file in sorted_entries(&dir.join("drop"))? {
        if file.extension().and_then(|e| e.to_str()) != Some(layout.ext()) {
            continue;
        }
        let stem = file
            .file_stem()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        let date: Date = stem.parse()?;
        drop_snapshots.push((date, read(&file)?));
    }
    Ok(Archives {
        bgp_updates: read(&dir.join(layout.bgp_updates()))?,
        irr_journal: read(&dir.join(layout.irr_journal()))?,
        roa_events: read(&dir.join(layout.roa_events()))?,
        rir_snapshots,
        drop_snapshots,
        sbl_records: read(&dir.join(layout.sbl_records()))?,
    })
}

fn read_labels(path: &Path) -> Result<BTreeMap<SblId, Vec<Category>>, CliError> {
    let mut out = BTreeMap::new();
    if !path.exists() {
        return Ok(out); // labels are optional analyst input
    }
    for line in read(path)?.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (id_s, cats_s) = line
            .split_once('\t')
            .ok_or_else(|| CliError::Usage(format!("bad label line: {line}")))?;
        let id: SblId = id_s.parse()?;
        let mut cats = Vec::new();
        for code in cats_s.split(',') {
            cats.push(code.trim().parse::<Category>()?);
        }
        out.insert(id, cats);
    }
    Ok(out)
}

fn sorted_entries(dir: &Path) -> Result<Vec<PathBuf>, CliError> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| CliError::Io(dir.display().to_string(), e))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    out.sort();
    Ok(out)
}
