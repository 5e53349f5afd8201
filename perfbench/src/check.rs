//! The independent correctness check of a returned placement.
//!
//! The check trusts nothing in the response but its layout: it rebuilds
//! the placement from `dbcs[].vars`, requires every trace variable to be
//! placed exactly once and no DBC to exceed the reported track length, and
//! replays the placement through [`rtm_sim::Simulator`] (the repository's
//! differential oracle). The replayed shift count must equal the reported
//! `total_shifts`.

use rtm_arch::{ArrayGeometry, RtmGeometry};
use rtm_placement::Placement;
use rtm_serve::json;
use rtm_sim::Simulator;
use rtm_trace::{AccessSequence, VarId};

/// The layout fields of a `place`/`simulate --json` report or a serve
/// `place` response.
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    /// Reported `total_shifts`.
    pub total_shifts: u64,
    /// Reported `geometry.total_dbcs`.
    pub total_dbcs: usize,
    /// Reported `geometry.locations_per_dbc`.
    pub capacity: usize,
    /// Reported `geometry.ports_per_track`.
    pub ports: usize,
    /// Variable names per DBC, in track order.
    pub dbcs: Vec<Vec<String>>,
}

/// Parses a JSON string literal starting at `b[*i] == '"'`.
fn string_at(b: &[u8], i: &mut usize) -> Result<String, String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected a string at byte {i}"));
    }
    *i += 1;
    let mut out = Vec::new();
    loop {
        let c = *b.get(*i).ok_or("unterminated string")?;
        *i += 1;
        match c {
            b'"' => break,
            b'\\' => {
                let e = *b.get(*i).ok_or("unterminated escape")?;
                *i += 1;
                match e {
                    b'"' | b'\\' | b'/' => out.push(e),
                    b'n' => out.push(b'\n'),
                    b't' => out.push(b'\t'),
                    b'r' => out.push(b'\r'),
                    b'b' => out.push(8),
                    b'f' => out.push(12),
                    b'u' => {
                        let hex = b.get(*i..*i + 4).ok_or("short \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        *i += 4;
                        let ch = char::from_u32(code).ok_or("bad \\u escape")?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            c => out.push(c),
        }
    }
    String::from_utf8(out).map_err(|e| e.to_string())
}

/// Parses the layout out of a report. The report must be one valid JSON
/// object.
///
/// # Errors
///
/// A description of the first missing or malformed field.
pub fn parse_layout(report: &str) -> Result<Layout, String> {
    json::validate(report).map_err(|e| format!("malformed JSON: {e}"))?;
    let field = |key: &str| json::find_u64(report, key).ok_or(format!("missing `{key}`"));
    let total_shifts = field("total_shifts")?;
    let total_dbcs = field("total_dbcs")? as usize;
    let capacity = field("locations_per_dbc")? as usize;
    let ports = field("ports_per_track")? as usize;
    let b = report.as_bytes();
    let mut i = report.find("\"dbcs\":[").ok_or("missing `dbcs`")? + "\"dbcs\":[".len();
    let mut dbcs = Vec::new();
    while b.get(i) == Some(&b'{') {
        let obj_end = report[i..].find('}').ok_or("unterminated DBC object")? + i;
        let vars_at = report[i..obj_end]
            .find("\"vars\":[")
            .ok_or("DBC object without `vars`")?;
        i += vars_at + "\"vars\":[".len();
        let mut list = Vec::new();
        while b.get(i) == Some(&b'"') {
            list.push(string_at(b, &mut i)?);
            if b.get(i) == Some(&b',') {
                i += 1;
            }
        }
        if b.get(i) != Some(&b']') {
            return Err(format!("malformed `vars` list at byte {i}"));
        }
        dbcs.push(list);
        // Skip `]}` and an optional `,` before the next DBC object.
        i = report[i..].find('}').ok_or("unterminated DBC object")? + i + 1;
        if b.get(i) == Some(&b',') {
            i += 1;
        }
    }
    if b.get(i) != Some(&b']') {
        return Err(format!("malformed `dbcs` array at byte {i}"));
    }
    Ok(Layout {
        total_shifts,
        total_dbcs,
        capacity,
        ports,
        dbcs,
    })
}

/// Checks `report` against the trace it answers and returns the verified
/// shift count.
///
/// # Errors
///
/// Why the report is wrong: malformed, a variable missing, unknown or
/// placed twice, a DBC over capacity, a DBC count other than `dbcs`, or a
/// simulated shift count other than the reported one.
pub fn verify(report: &str, seq: &AccessSequence, dbcs: usize) -> Result<u64, String> {
    let layout = parse_layout(report)?;
    if layout.total_dbcs != dbcs || layout.dbcs.len() != dbcs {
        return Err(format!(
            "expected {dbcs} DBCs, report has {} (geometry says {})",
            layout.dbcs.len(),
            layout.total_dbcs
        ));
    }
    let vars = seq.vars();
    let mut placed = vec![false; vars.len()];
    let mut lists: Vec<Vec<VarId>> = Vec::with_capacity(dbcs);
    for (d, names) in layout.dbcs.iter().enumerate() {
        if names.len() > layout.capacity {
            return Err(format!(
                "DBC {d} holds {} variables, capacity {}",
                names.len(),
                layout.capacity
            ));
        }
        let mut list = Vec::with_capacity(names.len());
        for name in names {
            let v = vars
                .id(name)
                .ok_or_else(|| format!("unknown variable `{name}` in DBC {d}"))?;
            if std::mem::replace(&mut placed[v.index()], true) {
                return Err(format!("variable `{name}` placed twice"));
            }
            list.push(v);
        }
        lists.push(list);
    }
    if let Some(v) = placed.iter().position(|p| !p) {
        return Err(format!(
            "variable `{}` not placed",
            vars.name(VarId::from_index(v))
        ));
    }
    let geometry = RtmGeometry::new(dbcs, 32, layout.capacity, layout.ports)
        .and_then(|g| ArrayGeometry::new(1, g))
        .map_err(|e| format!("bad geometry: {e}"))?;
    let stats = Simulator::for_array(&geometry)
        .run(seq, &Placement::from_dbc_lists(lists))
        .map_err(|e| format!("simulator rejected the placement: {e}"))?;
    if stats.shifts != layout.total_shifts {
        return Err(format!(
            "reported {} shifts, the simulator replays {}",
            layout.total_shifts, stats.shifts
        ));
    }
    Ok(stats.shifts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtm_placement::{PlacementProblem, Strategy};
    use rtm_serve::report::{solution_fields, Geometry};

    const TRACE: &str = "a b a b c a c a d d a i e f e f g e g h g i h i";

    fn report(dbcs: usize) -> (AccessSequence, String) {
        let seq = AccessSequence::parse(TRACE).unwrap();
        let p = PlacementProblem::new(seq.clone(), dbcs, 8);
        let sol = p.solve(&Strategy::DmaSr).unwrap();
        let fields = solution_fields(&Strategy::DmaSr, &Geometry::flat(dbcs, 8, 1), &seq, &sol);
        (seq, format!("{{\"command\":\"place\",{fields}}}"))
    }

    #[test]
    fn accepts_a_genuine_report() {
        let (seq, r) = report(2);
        let layout = parse_layout(&r).unwrap();
        assert_eq!(layout.dbcs.len(), 2);
        assert_eq!(layout.dbcs.iter().map(Vec::len).sum::<usize>(), 9);
        assert_eq!(verify(&r, &seq, 2), Ok(layout.total_shifts));
    }

    #[test]
    fn rejects_a_tampered_shift_count() {
        let (seq, r) = report(2);
        let shifts = parse_layout(&r).unwrap().total_shifts;
        let tampered = r.replacen(
            &format!("\"total_shifts\":{shifts}"),
            &format!("\"total_shifts\":{}", shifts + 1),
            1,
        );
        assert_ne!(tampered, r);
        let err = verify(&tampered, &seq, 2).unwrap_err();
        assert!(err.contains("simulator replays"), "{err}");
    }

    #[test]
    fn rejects_a_duplicated_variable() {
        let (seq, r) = report(2);
        let layout = parse_layout(&r).unwrap();
        // Duplicate the first variable of DBC 0 into DBC 1.
        let dup = &layout.dbcs[0][0];
        let at = r.rfind("\"vars\":[").unwrap() + "\"vars\":[".len();
        let tampered = format!("{}\"{dup}\",{}", &r[..at], &r[at..]);
        let err = verify(&tampered, &seq, 2).unwrap_err();
        assert!(err.contains("placed twice"), "{err}");
    }

    #[test]
    fn rejects_missing_unknown_and_over_capacity_layouts() {
        let (seq, r) = report(2);
        let layout = parse_layout(&r).unwrap();
        let first = &layout.dbcs[0][0];
        let dropped = r.replacen(&format!("\"{first}\","), "", 1);
        assert!(verify(&dropped, &seq, 2)
            .unwrap_err()
            .contains("not placed"));
        let unknown = r.replacen(&format!("\"{first}\""), "\"zz\"", 1);
        assert!(verify(&unknown, &seq, 2)
            .unwrap_err()
            .contains("unknown variable"));
        let squeezed = r.replacen("\"locations_per_dbc\":8", "\"locations_per_dbc\":2", 1);
        assert!(verify(&squeezed, &seq, 2)
            .unwrap_err()
            .contains("capacity 2"));
        assert!(verify(&r, &seq, 4).unwrap_err().contains("expected 4 DBCs"));
        assert!(verify("error: boom", &seq, 2)
            .unwrap_err()
            .contains("malformed"));
    }

    #[test]
    fn string_literals_unescape() {
        let b = br#""a\"b\\c\u0041""#;
        let mut i = 0;
        assert_eq!(string_at(b, &mut i).unwrap(), "a\"b\\cA");
        assert_eq!(i, b.len());
    }
}
