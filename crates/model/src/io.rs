//! Plain-text I/O for profile collections: CSV with a header row
//! (attribute names = column names; empty cells = missing attributes) and a
//! simple two-column match file for ground truths.
//!
//! Hand-rolled RFC-4180-style parsing (quotes, escaped quotes, embedded
//! commas/newlines) — no external CSV dependency.

use crate::ground_truth::GroundTruth;
use crate::profile::{Attribute, ProfileCollection, ProfileCollectionBuilder, ProfileId};
use crate::Pair;
use std::io::{self, BufRead, Write};

/// Parses one CSV record from `input` starting at byte `pos`; returns the
/// fields and the next position, or `None` at end of input.
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidData`] when the input ends inside a
/// quoted field.
fn parse_record(input: &str, mut pos: usize) -> io::Result<Option<(Vec<String>, usize)>> {
    let bytes = input.as_bytes();
    if pos >= bytes.len() {
        return Ok(None);
    }
    let start = pos;
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    while pos < bytes.len() {
        let c = bytes[pos];
        if in_quotes {
            match c {
                b'"' if pos + 1 < bytes.len() && bytes[pos + 1] == b'"' => {
                    field.push('"');
                    pos += 2;
                }
                b'"' => {
                    in_quotes = false;
                    pos += 1;
                }
                _ => {
                    // Multi-byte UTF-8 is copied verbatim.
                    let ch_len = utf8_len(c);
                    field.push_str(&input[pos..pos + ch_len]);
                    pos += ch_len;
                }
            }
        } else {
            match c {
                b'"' if field.is_empty() => {
                    in_quotes = true;
                    pos += 1;
                }
                b',' => {
                    fields.push(std::mem::take(&mut field));
                    pos += 1;
                }
                b'\r' if pos + 1 < bytes.len() && bytes[pos + 1] == b'\n' => {
                    pos += 2;
                    fields.push(field);
                    return Ok(Some((fields, pos)));
                }
                b'\n' => {
                    pos += 1;
                    fields.push(field);
                    return Ok(Some((fields, pos)));
                }
                _ => {
                    let ch_len = utf8_len(c);
                    field.push_str(&input[pos..pos + ch_len]);
                    pos += ch_len;
                }
            }
        }
    }
    if in_quotes {
        // Accepting this would fold every later record into one field.
        return Err(unterminated_quote(input, start));
    }
    fields.push(field);
    Ok(Some((fields, pos)))
}

/// The error for input that ends inside a quoted field of the record
/// starting at byte `start`; kept out of line so the parse loop stays
/// small.
#[cold]
#[inline(never)]
fn unterminated_quote(input: &str, start: usize) -> io::Error {
    let line = 1 + input[..start].matches('\n').count();
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unterminated quoted field in the record starting on line {line}"),
    )
}

#[inline]
fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Reads a Dirty-ER profile collection from CSV text: the first record is
/// the header (attribute names), every following record one profile; empty
/// cells are skipped (missing attributes).
///
/// # Errors
///
/// Returns an error for an empty input, records wider than the header, or
/// an input that ends inside a quoted field.
pub fn read_csv(text: &str) -> io::Result<ProfileCollection> {
    let mut pos = 0;
    let Some((header, next)) = parse_record(text, pos)? else {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty CSV"));
    };
    pos = next;
    let mut builder = ProfileCollectionBuilder::dirty();
    while let Some((record, next)) = parse_record(text, pos)? {
        pos = next;
        if record.len() == 1 && record[0].is_empty() {
            continue; // trailing blank line
        }
        if record.len() > header.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "record has {} fields, header {}",
                    record.len(),
                    header.len()
                ),
            ));
        }
        let attrs: Vec<Attribute> = header
            .iter()
            .zip(record.iter())
            .filter(|(_, v)| !v.is_empty())
            .map(|(n, v)| Attribute::new(n.clone(), v.clone()))
            .collect();
        builder.add_attributes(attrs);
    }
    Ok(builder.build())
}

/// Writes a profile collection as CSV (columns = all attribute names in
/// first-seen order; profiles missing an attribute leave the cell empty;
/// repeated attributes are joined with `;`).
pub fn write_csv<W: Write>(collection: &ProfileCollection, out: &mut W) -> io::Result<()> {
    let mut columns: Vec<String> = Vec::new();
    for p in collection.iter() {
        for a in &p.attributes {
            if !columns.contains(&a.name) {
                columns.push(a.name.clone());
            }
        }
    }
    writeln!(
        out,
        "{}",
        columns
            .iter()
            .map(|c| escape(c))
            .collect::<Vec<_>>()
            .join(",")
    )?;
    for p in collection.iter() {
        let row: Vec<String> = columns
            .iter()
            .map(|col| {
                let values: Vec<&str> = p
                    .attributes
                    .iter()
                    .filter(|a| &a.name == col)
                    .map(|a| a.value.as_str())
                    .collect();
                escape(&values.join(";"))
            })
            .collect();
        writeln!(out, "{}", row.join(","))?;
    }
    Ok(())
}

/// Reads a ground truth from two-column `id,id` lines (no header).
///
/// # Errors
///
/// Returns an error on malformed lines or out-of-range ids.
pub fn read_matches<R: BufRead>(reader: R, n_profiles: usize) -> io::Result<GroundTruth> {
    let mut pairs = Vec::new();
    for line in reader.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split(',');
        let parse = |s: Option<&str>| -> io::Result<u32> {
            s.map(str::trim)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "missing id"))?
                .parse::<u32>()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
        };
        let a = parse(it.next())?;
        let b = parse(it.next())?;
        if a as usize >= n_profiles || b as usize >= n_profiles {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("id out of range: {line}"),
            ));
        }
        if a != b {
            pairs.push(Pair::new(ProfileId(a), ProfileId(b)));
        }
    }
    Ok(GroundTruth::from_pairs(n_profiles, pairs))
}

/// Writes a ground truth as two-column `id,id` lines.
pub fn write_matches<W: Write>(truth: &GroundTruth, out: &mut W) -> io::Result<()> {
    let mut pairs: Vec<&Pair> = truth.pairs().collect();
    pairs.sort();
    for p in pairs {
        writeln!(out, "{},{}", p.first.0, p.second.0)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "name,city,job\nCarl White,NY,Tailor\n\"Doe, Jane\",\"said \"\"hi\"\"\",\nKarl White,NY,Tailor\n";

    #[test]
    fn read_basic_csv() {
        let coll = read_csv(SAMPLE).unwrap();
        assert_eq!(coll.len(), 3);
        assert_eq!(coll.get(ProfileId(0)).value_of("name"), Some("Carl White"));
        // Quoted comma and escaped quotes.
        assert_eq!(coll.get(ProfileId(1)).value_of("name"), Some("Doe, Jane"));
        assert_eq!(coll.get(ProfileId(1)).value_of("city"), Some("said \"hi\""));
        // Empty cell = missing attribute.
        assert_eq!(coll.get(ProfileId(1)).value_of("job"), None);
        assert_eq!(coll.get(ProfileId(1)).num_pairs(), 2);
    }

    #[test]
    fn roundtrip() {
        let coll = read_csv(SAMPLE).unwrap();
        let mut buf = Vec::new();
        write_csv(&coll, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let again = read_csv(&text).unwrap();
        assert_eq!(coll.len(), again.len());
        for (a, b) in coll.iter().zip(again.iter()) {
            assert_eq!(a.attributes, b.attributes);
        }
    }

    #[test]
    fn rejects_empty_and_wide_records() {
        assert!(read_csv("").is_err());
        assert!(read_csv("a,b\n1,2,3\n").is_err());
    }

    #[test]
    fn unterminated_quote_is_invalid_data() {
        // Four records; the second opens a quote it never closes, which
        // would otherwise swallow the rest of the file into one field.
        let text = "name,city\nAnn,NY\n\"Bob,LA\nCid,SF\nDee,DC\n";
        let err = read_csv(text).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 3"), "{err}");
        let header_only = read_csv("\"name,city\n").unwrap_err();
        assert_eq!(header_only.kind(), io::ErrorKind::InvalidData);
        // A closed quote at end of input is fine.
        assert_eq!(read_csv("name\n\"Ann\"").unwrap().len(), 1);
    }

    #[test]
    fn short_records_are_padded_with_missing() {
        let coll = read_csv("a,b,c\nx\n").unwrap();
        assert_eq!(coll.len(), 1);
        assert_eq!(coll.get(ProfileId(0)).num_pairs(), 1);
    }

    #[test]
    fn matches_roundtrip() {
        let truth = GroundTruth::from_pairs(
            5,
            [
                Pair::new(ProfileId(0), ProfileId(2)),
                Pair::new(ProfileId(1), ProfileId(4)),
            ],
        );
        let mut buf = Vec::new();
        write_matches(&truth, &mut buf).unwrap();
        let again = read_matches(&buf[..], 5).unwrap();
        assert_eq!(again.num_matches(), 2);
        assert!(again.is_match(ProfileId(0), ProfileId(2)));
    }

    #[test]
    fn matches_reject_bad_input() {
        assert!(read_matches("0,9".as_bytes(), 5).is_err());
        assert!(read_matches("zero,1".as_bytes(), 5).is_err());
        assert!(read_matches("3".as_bytes(), 5).is_err());
        // Self-pairs are silently dropped, blank lines skipped.
        let t = read_matches("2,2\n\n0,1\n".as_bytes(), 5).unwrap();
        assert_eq!(t.num_matches(), 1);
    }

    #[test]
    fn utf8_values_survive() {
        let coll = read_csv("n\ncafé München\n").unwrap();
        assert_eq!(coll.get(ProfileId(0)).value_of("n"), Some("café München"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::profile::Profile;
    use proptest::prelude::*;

    /// Field pool chosen to force every RFC-4180 corner the writer must
    /// escape: embedded commas, double quotes, newlines, and multi-byte
    /// UTF-8 (2- and 3-byte sequences) — plus plain text and spaces.
    const FIELD: &str = "[a-e0-2 ,\"\n東µß]{0,10}";

    proptest! {
        /// `read_csv(write_csv(c))` reproduces every profile exactly. Empty
        /// cells mean "missing attribute" in this format, so generated empty
        /// fields are simply never added (and rows must keep at least one
        /// attribute — an attribute-less profile in a one-column collection
        /// serializes to a blank line, which the reader skips by design).
        #[test]
        fn csv_roundtrip_preserves_profiles(
            raw in collection::vec(collection::vec(FIELD, 1..5), 1..12),
        ) {
            prop_assume!(raw.iter().all(|row| row.iter().any(|v| !v.is_empty())));
            let mut builder = ProfileCollectionBuilder::dirty();
            for row in &raw {
                let attrs: Vec<Attribute> = row
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| !v.is_empty())
                    .map(|(i, v)| Attribute::new(format!("col{i}"), v.clone()))
                    .collect();
                builder.add_attributes(attrs);
            }
            let coll = builder.build();
            let mut buf = Vec::new();
            write_csv(&coll, &mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            let again = read_csv(&text).unwrap();
            prop_assert_eq!(coll.len(), again.len(), "profile count after roundtrip");
            // Column order is first-seen across the whole collection, so a
            // profile missing early columns may get its attributes back in a
            // different order — compare as multisets.
            let key = |p: &Profile| {
                let mut attrs: Vec<(String, String)> = p
                    .attributes
                    .iter()
                    .map(|a| (a.name.clone(), a.value.clone()))
                    .collect();
                attrs.sort();
                attrs
            };
            for (a, b) in coll.iter().zip(again.iter()) {
                prop_assert_eq!(key(a), key(b));
            }
        }

        /// Quoted headers survive too: attribute *names* drawn from the
        /// same hostile pool round-trip alongside their values.
        #[test]
        fn csv_roundtrip_preserves_hostile_headers(
            names in collection::btree_set(FIELD, 1..4),
            value in FIELD,
        ) {
            let mut builder = ProfileCollectionBuilder::dirty();
            let attrs: Vec<Attribute> = names
                .iter()
                .filter(|n| !n.is_empty())
                .map(|n| Attribute::new(n.clone(), format!("v{value}")))
                .collect();
            prop_assume!(!attrs.is_empty());
            builder.add_attributes(attrs.clone());
            let coll = builder.build();
            let mut buf = Vec::new();
            write_csv(&coll, &mut buf).unwrap();
            let again = read_csv(std::str::from_utf8(&buf).unwrap()).unwrap();
            prop_assert_eq!(&again.get(ProfileId(0)).attributes, &attrs);
        }

        /// Match files round-trip: the closure enumerated by the written
        /// ground truth equals the one read back.
        #[test]
        fn matches_roundtrip_preserves_closure(
            n in 2u32..40,
            seed_pairs in collection::vec((0u32..40, 0u32..40), 0..60),
        ) {
            let pairs: Vec<Pair> = seed_pairs
                .into_iter()
                .filter(|(a, b)| a != b && *a < n && *b < n)
                .map(|(a, b)| Pair::new(ProfileId(a), ProfileId(b)))
                .collect();
            let truth = GroundTruth::from_pairs(n as usize, pairs);
            let mut buf = Vec::new();
            write_matches(&truth, &mut buf).unwrap();
            let again = read_matches(&buf[..], n as usize).unwrap();
            prop_assert_eq!(truth.num_matches(), again.num_matches());
            for p in truth.pairs() {
                prop_assert!(again.is_match_pair(*p), "{:?} lost in roundtrip", p);
            }
        }
    }
}
