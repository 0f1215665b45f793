//! Parser/writer for the RIR statistics exchange ("delegated-extended")
//! format.
//!
//! ```text
//! 2|apnic|20220330|2|19830613|20220330|+1000
//! apnic|*|ipv4|*|2|summary
//! apnic|AU|ipv4|1.0.0.0|256|20110811|allocated|A91872ED
//! apnic|ZZ|ipv4|1.1.0.0|65536||available|
//! ```
//!
//! Only `ipv4` rows are materialized (the paper is IPv4-only); `asn` and
//! `ipv6` rows and summary lines are tolerated and skipped on parse, and
//! a correct summary line is emitted on write.

use std::fmt::Write as _;
use std::net::Ipv4Addr;

use droplens_net::{read_str_table, BinReader, BinWriter, Date, ParseError, Quarantine, StrTable};

use crate::{AllocationStatus, DelegationRecord, Rir};

/// A parsed stats file: the header date plus its IPv4 records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsFile {
    /// Publishing registry (from the version line).
    pub rir: Rir,
    /// Snapshot date (from the version line).
    pub date: Date,
    /// IPv4 rows, in file order.
    pub records: Vec<DelegationRecord>,
}

/// Serialize a stats file in delegated-extended format.
pub fn write_stats_file(file: &StatsFile) -> String {
    // One pre-sized buffer; rows stream in via `write!` (~56 bytes each)
    // instead of allocating a String per record.
    let mut out = String::with_capacity(64 + file.records.len() * 56);
    // Version line: version|registry|serial|records|startdate|enddate|UTCoffset
    let _ = writeln!(
        out,
        "2|{}|{}|{}|19830613|{}|+0000",
        file.rir.token(),
        file.date.compact(),
        file.records.len(),
        file.date.compact(),
    );
    let _ = writeln!(
        out,
        "{}|*|ipv4|*|{}|summary",
        file.rir.token(),
        file.records.len()
    );
    for r in &file.records {
        let _ = write!(
            out,
            "{}|{}|ipv4|{}|{}|",
            r.rir.token(),
            r.country,
            r.start,
            r.count,
        );
        if let Some(d) = r.date {
            let _ = write!(out, "{}", d.compact());
        }
        let _ = writeln!(out, "|{}|{}", r.status, r.opaque_id);
    }
    out
}

/// What one stats-file line turned out to be.
enum Row {
    /// The version header: registry and snapshot date.
    Version(Rir, Date),
    /// Summary line or non-ipv4 row — tolerated and skipped.
    Skip,
    /// A materialized IPv4 delegation row.
    Record(DelegationRecord),
}

fn parse_stats_row(line: &str, saw_version: bool) -> Result<Row, ParseError> {
    // Split without heap allocation: delegated-extended rows have at
    // most 8 fields; overflow fields are dropped (never indexed).
    let mut fields = [""; 8];
    let mut n = 0;
    for f in line.split('|') {
        if n < fields.len() {
            fields[n] = f;
        }
        n += 1;
    }
    // Version line: starts with the format version number.
    if !saw_version && n >= 6 && fields[0].chars().all(|c| c.is_ascii_digit()) {
        return Ok(Row::Version(
            fields[1].parse()?,
            Date::parse_compact(fields[2])?,
        ));
    }
    if n >= 6 && fields[5] == "summary" {
        return Ok(Row::Skip);
    }
    if n < 7 {
        return Err(ParseError::new("StatsFile", line, "too few fields"));
    }
    if fields[2] != "ipv4" {
        return Ok(Row::Skip); // asn / ipv6 rows
    }
    let row_rir: Rir = fields[0].parse()?;
    let start: Ipv4Addr = fields[3]
        .parse()
        .map_err(|_| ParseError::new("StatsFile", line, "bad start address"))?;
    let count: u64 = fields[4]
        .parse()
        .map_err(|_| ParseError::new("StatsFile", line, "bad address count"))?;
    if count == 0 || u64::from(u32::from(start)) + count > (1u64 << 32) {
        return Err(ParseError::new("StatsFile", line, "span out of range"));
    }
    let rec_date = if fields[5].is_empty() {
        None
    } else {
        Some(Date::parse_compact(fields[5])?)
    };
    let status: AllocationStatus = fields[6].parse()?;
    let opaque_id = if n > 7 { fields[7] } else { "" }.to_owned();
    Ok(Row::Record(DelegationRecord {
        rir: row_rir,
        country: fields[1].to_owned(),
        start,
        count,
        date: rec_date,
        status,
        opaque_id,
    }))
}

/// Parse a delegated(-extended) stats file.
pub fn parse_stats_file(text: &str) -> Result<StatsFile, ParseError> {
    let mut quarantine = Quarantine::strict("rir/delegated-extended.txt");
    match parse_stats_file_with(text, &mut quarantine)? {
        Some(file) => Ok(file),
        // Unreachable in strict mode — the structural error propagates.
        None => Err(ParseError::new("StatsFile", "", "missing version line")
            .with_location(quarantine.source(), 1)),
    }
}

/// Parse a delegated(-extended) stats file under the ingestion policy
/// carried by `quarantine`. Strict rejects abort. Permissive row rejects
/// are quarantined; a structurally unusable file (no version line) is
/// quarantined whole and reported as `Ok(None)` so the caller can drop
/// the snapshot and record the gap.
pub fn parse_stats_file_with(
    text: &str,
    quarantine: &mut Quarantine,
) -> Result<Option<StatsFile>, ParseError> {
    let obs = droplens_obs::global();
    let mut tspan = droplens_obs::trace::global().span("parse.rir.stats", "parse");
    tspan.arg_str("file", quarantine.source());
    let parsed = obs.counter("rir.stats.parsed");
    let skipped = obs.counter("rir.stats.skipped");
    let malformed = obs.counter("rir.stats.malformed");
    let mut rir: Option<Rir> = None;
    let mut date: Option<Date> = None;
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            skipped.inc();
            quarantine.record_skip();
            continue;
        }
        let lineno = idx as u32 + 1;
        match parse_stats_row(line, rir.is_some()) {
            Ok(Row::Version(r, d)) => {
                rir = Some(r);
                date = Some(d);
                quarantine.record_skip();
            }
            Ok(Row::Skip) => {
                skipped.inc();
                quarantine.record_skip();
            }
            Ok(Row::Record(rec)) => {
                parsed.inc();
                quarantine.record_ok();
                records.push(rec);
            }
            Err(e) => {
                malformed.inc();
                let e = e.with_location(quarantine.source(), lineno);
                obs.error_sample("rir.stats", e.to_string());
                quarantine.reject(lineno, e)?;
            }
        }
    }
    tspan.arg_u64("records", records.len() as u64);
    match (rir, date) {
        (Some(rir), Some(date)) => Ok(Some(StatsFile { rir, date, records })),
        _ => {
            let e = ParseError::new("StatsFile", "", "missing version line");
            malformed.inc();
            let e = e.with_location(quarantine.source(), 1);
            obs.error_sample("rir.stats", e.to_string());
            quarantine.reject(1, e)?;
            Ok(None)
        }
    }
}

/// Kind tag of the binary stats-file sidecar (`droplens-bin/1`).
pub const BIN_KIND: &str = "rir/stats";

/// Absent delegation date in the binary date column.
const NO_DATE: i32 = i32::MIN;

/// Serialize a stats file as a binary sidecar: header (registry code,
/// snapshot date), a deduplicated string table for country codes and
/// org handles, then per-record columns. The fast path next to the
/// canonical delegated-extended text from [`write_stats_file`].
pub fn write_stats_file_bin(file: &StatsFile) -> Vec<u8> {
    let mut w = BinWriter::new(BIN_KIND);
    w.put_u8(file.rir as u8);
    w.put_i32(file.date.days_since_epoch());
    let mut strs = StrTable::new();
    let mut country_ids = Vec::with_capacity(file.records.len());
    let mut opaque_ids = Vec::with_capacity(file.records.len());
    for r in &file.records {
        country_ids.push(strs.add(&r.country));
        opaque_ids.push(strs.add(&r.opaque_id));
    }
    strs.write(&mut w);
    w.put_u32(file.records.len() as u32);
    for r in &file.records {
        w.put_u8(r.rir as u8);
    }
    for id in country_ids {
        w.put_u32(id);
    }
    for r in &file.records {
        w.put_u32(u32::from(r.start));
    }
    for r in &file.records {
        w.put_u64(r.count);
    }
    for r in &file.records {
        w.put_i32(r.date.map_or(NO_DATE, Date::days_since_epoch));
    }
    for r in &file.records {
        w.put_u8(r.status as u8);
    }
    for id in opaque_ids {
        w.put_u32(id);
    }
    w.finish()
}

fn rir_code(code: u8) -> Result<Rir, ParseError> {
    Rir::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| ParseError::new("BinArchive", BIN_KIND, "unknown registry code"))
}

/// Decode the payload of a binary stats sidecar (all-or-nothing),
/// enforcing the same span-range invariant as the text parser.
fn decode_stats_file_bin(bytes: &[u8]) -> Result<StatsFile, ParseError> {
    let mut r = BinReader::new(bytes, BIN_KIND)?;
    let file_rir = rir_code(r.u8("registry")?)?;
    let file_date = Date::from_days_since_epoch(r.i32("date")?);
    let strs = read_str_table(&mut r)?;
    let lookup = |id: u32, what: &str| -> Result<&str, ParseError> {
        strs.get(id as usize).copied().ok_or_else(|| {
            ParseError::new("BinArchive", BIN_KIND, format!("{what} id out of range"))
        })
    };
    let n = r.count("record count", 26)?;
    let mut rirs = Vec::with_capacity(n);
    for _ in 0..n {
        rirs.push(rir_code(r.u8("row registry")?)?);
    }
    let mut countries = Vec::with_capacity(n);
    for _ in 0..n {
        countries.push(lookup(r.u32("country")?, "country")?);
    }
    let mut starts = Vec::with_capacity(n);
    for _ in 0..n {
        starts.push(Ipv4Addr::from(r.u32("start")?));
    }
    let mut counts = Vec::with_capacity(n);
    for start in &starts {
        let count = r.u64("count")?;
        if count == 0 || u64::from(u32::from(*start)) + count > (1u64 << 32) {
            return Err(ParseError::new("BinArchive", BIN_KIND, "span out of range"));
        }
        counts.push(count);
    }
    let mut dates = Vec::with_capacity(n);
    for _ in 0..n {
        let raw = r.i32("row date")?;
        dates.push((raw != NO_DATE).then(|| Date::from_days_since_epoch(raw)));
    }
    let mut statuses = Vec::with_capacity(n);
    for _ in 0..n {
        statuses.push(match r.u8("status")? {
            0 => AllocationStatus::Allocated,
            1 => AllocationStatus::Assigned,
            2 => AllocationStatus::Available,
            3 => AllocationStatus::Reserved,
            _ => {
                return Err(ParseError::new(
                    "BinArchive",
                    BIN_KIND,
                    "unknown status code",
                ))
            }
        });
    }
    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        let opaque_id = lookup(r.u32("opaque id")?, "opaque id")?;
        records.push(DelegationRecord {
            rir: rirs[i],
            country: countries[i].to_owned(),
            start: starts[i],
            count: counts[i],
            date: dates[i],
            status: statuses[i],
            opaque_id: opaque_id.to_owned(),
        });
    }
    r.expect_done()?;
    Ok(StatsFile {
        rir: file_rir,
        date: file_date,
        records,
    })
}

/// Parse a binary stats sidecar strictly: any damage aborts.
pub fn parse_stats_file_bin(bytes: &[u8]) -> Result<StatsFile, ParseError> {
    match parse_stats_file_bin_with(bytes, &mut Quarantine::strict("rir/delegated-extended.bin"))? {
        Some(file) => Ok(file),
        // Unreachable in strict mode — the decode error propagates
        // (already located by the quarantine).
        // lint: allow(located-errors)
        None => Err(ParseError::new("BinArchive", BIN_KIND, "empty sidecar")),
    }
}

/// Parse a binary stats sidecar under the ingestion policy carried by
/// `quarantine`. Binary archives cannot be resynchronized mid-stream, so
/// damage quarantines the whole sidecar: strict aborts, permissive
/// records the rejection and reports `Ok(None)` (the snapshot is dropped
/// whole, like a headerless text file).
pub fn parse_stats_file_bin_with(
    bytes: &[u8],
    quarantine: &mut Quarantine,
) -> Result<Option<StatsFile>, ParseError> {
    quarantine.decode_sidecar(
        "rir.stats",
        || decode_stats_file_bin(bytes),
        |f| f.records.len(),
    )
}

/// Repair quarantine flicker across a chronological series of stats
/// snapshots (one `Vec<StatsFile>` per date, as the archive tree stores
/// them).
///
/// A *partial* snapshot (`partial[i]`: one that quarantined at least
/// one row, or dropped a whole structurally-broken file) cannot be
/// trusted about absent delegations: the span may simply have been on
/// a mangled row. A span (keyed by registry, first address, and size)
/// that was delegated in the previous snapshot and is delegated again
/// at its next trusted sighting — with every intervening snapshot also
/// partial — is carried forward (last observation carried forward)
/// rather than read as a one-month deallocate/reallocate cycle.
/// Absences confirmed by an intact snapshot are left alone: genuine
/// deallocations (§4.1 of the paper) still surface on the month an
/// undamaged file first omits the span. With clean inputs this is a
/// no-op.
pub fn repair_flickers(snapshots: &mut [(Date, Vec<StatsFile>)], partial: &[bool]) {
    use std::collections::BTreeSet;
    use std::net::Ipv4Addr;

    assert_eq!(
        snapshots.len(),
        partial.len(),
        "one partial flag per snapshot"
    );
    type Key = (Rir, Ipv4Addr, u64);
    let key = |r: &DelegationRecord| (r.rir, r.start, r.count);
    let mut keys: Vec<BTreeSet<Key>> = snapshots
        .iter()
        .map(|(_, files)| {
            files
                .iter()
                .flat_map(|f| f.records.iter().map(key))
                .collect()
        })
        .collect();
    for i in 1..snapshots.len() {
        if !partial[i] {
            continue;
        }
        let prev: Vec<DelegationRecord> = snapshots[i - 1]
            .1
            .iter()
            .flat_map(|f| f.records.iter().cloned())
            .collect();
        for record in prev {
            let k = key(&record);
            if keys[i].contains(&k) {
                continue;
            }
            let mut j = i + 1;
            let reappears = loop {
                match keys.get(j) {
                    Some(s) if s.contains(&k) => break true,
                    Some(_) if partial[j] => j += 1,
                    // Trusted absence (or end of archive): a real
                    // deallocation, not flicker.
                    _ => break false,
                }
            };
            if !reappears {
                continue;
            }
            keys[i].insert(k);
            let (date, files) = &mut snapshots[i];
            let tracer = droplens_obs::trace::global();
            if tracer.is_enabled() {
                use droplens_obs::trace::ArgValue;
                tracer.instant(
                    "gap-repair",
                    "ingest",
                    vec![
                        ("source", ArgValue::Str("rir/delegated".into())),
                        ("date", ArgValue::Str(date.to_string())),
                        ("rir", ArgValue::Str(format!("{:?}", record.rir))),
                    ],
                );
            }
            match files.iter_mut().find(|f| f.rir == record.rir) {
                Some(f) => f.records.push(record),
                // The registry's whole file was dropped: regrow it from
                // the carried-forward records.
                None => files.push(StatsFile {
                    rir: record.rir,
                    date: *date,
                    records: vec![record],
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatsFile {
        StatsFile {
            rir: Rir::Apnic,
            date: Date::from_ymd(2022, 3, 30),
            records: vec![
                DelegationRecord::allocated(
                    Rir::Apnic,
                    "AU",
                    "1.0.0.0".parse().unwrap(),
                    256,
                    Date::from_ymd(2011, 8, 11),
                    "A91872ED",
                ),
                DelegationRecord::available(Rir::Apnic, "1.1.0.0".parse().unwrap(), 65536),
            ],
        }
    }

    #[test]
    fn round_trip() {
        let f = sample();
        let text = write_stats_file(&f);
        assert_eq!(parse_stats_file(&text).unwrap(), f);
    }

    #[test]
    fn output_shape_matches_exchange_format() {
        let text = write_stats_file(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("2|apnic|20220330|2|"));
        assert_eq!(lines[1], "apnic|*|ipv4|*|2|summary");
        assert_eq!(
            lines[2],
            "apnic|AU|ipv4|1.0.0.0|256|20110811|allocated|A91872ED"
        );
        assert_eq!(lines[3], "apnic|ZZ|ipv4|1.1.0.0|65536||available|");
    }

    #[test]
    fn skips_asn_and_ipv6_rows() {
        let text = "\
2|ripencc|20200101|3|19830613|20200101|+0000
ripencc|*|ipv4|*|1|summary
ripencc|NL|asn|3333|1|19930901|allocated|org1
ripencc|NL|ipv6|2001:600::|32|19990826|allocated|org1
ripencc|NL|ipv4|193.0.0.0|2048|19930901|allocated|org1
";
        let f = parse_stats_file(text).unwrap();
        assert_eq!(f.rir, Rir::RipeNcc);
        assert_eq!(f.records.len(), 1);
        assert_eq!(f.records[0].count, 2048);
    }

    #[test]
    fn rejects_missing_version_line() {
        assert!(parse_stats_file("apnic|AU|ipv4|1.0.0.0|256|20110811|allocated|x\n").is_err());
        assert!(parse_stats_file("").is_err());
    }

    #[test]
    fn rejects_bad_rows() {
        let header = "2|apnic|20200101|1|19830613|20200101|+0000\n";
        for bad in [
            "apnic|AU|ipv4|1.0.0.0|256|20110811\n", // too few fields
            "apnic|AU|ipv4|nonsense|256|20110811|allocated|x\n", // bad address
            "apnic|AU|ipv4|1.0.0.0|0|20110811|allocated|x\n", // zero count
            "apnic|AU|ipv4|255.255.255.0|512||available|\n", // overflow span
            "apnic|AU|ipv4|1.0.0.0|256|20110811|bogus|x\n", // bad status
            "apnic|AU|ipv4|1.0.0.0|256|2011081|allocated|x\n", // bad date
        ] {
            let text = format!("{header}{bad}");
            assert!(parse_stats_file(&text).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn permissive_quarantines_rows_and_drops_headerless_files() {
        let text = "\
2|apnic|20200101|2|19830613|20200101|+0000
apnic|AU|ipv4|1.0.0.0|256|20110811|allocated|x
apnic|AU|ipv4|nonsense|256|20110811|allocated|x
";
        // Strict: the bad row aborts with location context.
        let err = parse_stats_file(text).unwrap_err();
        assert_eq!(err.location(), Some(("rir/delegated-extended.txt", 3)));
        // Permissive: the bad row is quarantined, the good one survives.
        let mut q = Quarantine::permissive("rir/f1");
        let f = parse_stats_file_with(text, &mut q).unwrap().unwrap();
        assert_eq!(f.records.len(), 1);
        assert_eq!(q.quarantined, 1);
        // A file with no version line is dropped whole in permissive mode.
        let mut q = Quarantine::permissive("rir/f2");
        let out = parse_stats_file_with("apnic|AU|ipv4|1.0.0.0|256|20110811|allocated|x\n", &mut q)
            .unwrap();
        assert!(out.is_none());
        assert!(q.quarantined >= 1);
    }

    #[test]
    fn binary_round_trip_matches_text_parse() {
        let f = sample();
        let bytes = write_stats_file_bin(&f);
        let parsed = parse_stats_file_bin(&bytes).unwrap();
        assert_eq!(parsed, f);
        // Binary and text decode to the very same snapshot.
        assert_eq!(parse_stats_file(&write_stats_file(&f)).unwrap(), parsed);
    }

    #[test]
    fn binary_dedups_repeated_handles() {
        let mut f = sample();
        // Two more records sharing country and org handle with the first.
        for start in ["2.0.0.0", "3.0.0.0"] {
            f.records.push(DelegationRecord::allocated(
                Rir::Apnic,
                "AU",
                start.parse().unwrap(),
                256,
                Date::from_ymd(2011, 8, 11),
                "A91872ED",
            ));
        }
        let bytes = write_stats_file_bin(&f);
        assert_eq!(parse_stats_file_bin(&bytes).unwrap(), f);
        // String table: AU, A91872ED, ZZ, "" — dedup keeps it at 4 entries.
        let mut r = BinReader::new(&bytes, BIN_KIND).unwrap();
        r.u8("rir").unwrap();
        r.i32("date").unwrap();
        assert_eq!(read_str_table(&mut r).unwrap().len(), 4);
    }

    #[test]
    fn truncated_binary_strict_aborts_permissive_drops_snapshot() {
        let mut bytes = write_stats_file_bin(&sample());
        bytes.truncate(bytes.len() - 2);
        assert!(parse_stats_file_bin(&bytes).is_err());
        let mut q = Quarantine::permissive("rir/f1.bin");
        assert!(parse_stats_file_bin_with(&bytes, &mut q).unwrap().is_none());
        assert_eq!(q.quarantined, 1);
    }

    #[test]
    fn binary_rejects_bad_span_and_codes() {
        let f = sample();
        let good = write_stats_file_bin(&f);
        // Registry code is the first payload byte after the kind string.
        let mut bad = good.clone();
        let rir_off = droplens_net::binfmt::MAGIC.len() + 4 + BIN_KIND.len();
        bad[rir_off] = 99;
        assert!(parse_stats_file_bin(&bad).is_err());
        // Zero out a count (u64 column) — span check must fire. Easier to
        // construct directly: a record with count 0 never serializes from
        // our types, so corrupt the bytes of a single-record file.
        let one = StatsFile {
            rir: Rir::Apnic,
            date: Date::from_ymd(2022, 3, 30),
            records: vec![DelegationRecord::available(
                Rir::Apnic,
                "1.1.0.0".parse().unwrap(),
                65536,
            )],
        };
        let mut bytes = write_stats_file_bin(&one);
        // Columns from the end: u32 opaque id, u8 status, i32 date,
        // u64 count — count occupies bytes [-17, -9).
        let end = bytes.len();
        for b in &mut bytes[end - 17..end - 9] {
            *b = 0;
        }
        assert!(parse_stats_file_bin(&bytes).is_err());
    }

    #[test]
    fn tolerates_comments_and_blanks() {
        let text = "\
# RIR stats
2|arin|20200101|0|19830613|20200101|+0000

arin|*|ipv4|*|0|summary
";
        let f = parse_stats_file(text).unwrap();
        assert!(f.records.is_empty());
        assert_eq!(f.rir, Rir::Arin);
    }
}
