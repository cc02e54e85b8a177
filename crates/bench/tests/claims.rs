//! The published results as checked claims.
//!
//! `run_all` followed by `git diff --exit-code results/` proves that the
//! committed `results/*.csv` are what the code produces; this file
//! proves they say what the repository claims. It reads each CSV by
//! column name (no committed CSV quotes a field, so a line splits on
//! `,`) and checks two kinds of claim:
//!
//! * six predicates the evaluation's integrity story rests on: honest
//!   rounds are never rejected and polluting heads are caught (fig5a,
//!   fig19a), m−1 colluders expose their one honest cluster-mate
//!   (fig19c), and rounds still deliver under churn and loss (fig18,
//!   fig20). Each fails when its CSV has no row it applies to;
//! * every number the T1, F3–F5 and E18–E21 sections of EXPERIMENTS.md
//!   quote from one CSV cell: the cell, rounded half up to the quoted
//!   decimals, must equal the quoted text, and the section must contain
//!   it. A change that moves a number then changes the CSV, the
//!   `QUOTES` table and the prose together.
//!
//! A cell a predicate reads must parse as a number; the shell gates these
//! predicates replace read such a cell as 0.

use std::path::Path;

/// The repository root (this crate lives in `crates/bench`).
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// The text of `results/<name>.csv` as committed.
fn committed(name: &str) -> String {
    let path = Path::new(ROOT).join("results").join(format!("{name}.csv"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// A CSV file read by header name.
struct Csv {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// One data row of a [`Csv`].
struct Row<'a> {
    csv: &'a Csv,
    line: usize,
    cells: &'a [String],
}

impl Csv {
    fn parse(name: &str, text: &str) -> Result<Csv, String> {
        let split = |line: &str| line.split(',').map(str::to_string).collect::<Vec<_>>();
        let mut lines = text.lines();
        let headers = split(lines.next().ok_or_else(|| format!("{name}.csv is empty"))?);
        let rows = lines
            .enumerate()
            .map(|(i, line)| {
                let row = split(line);
                if row.len() == headers.len() {
                    Ok(row)
                } else {
                    Err(format!(
                        "{name}.csv line {}: {} fields under {} headers",
                        i + 2,
                        row.len(),
                        headers.len()
                    ))
                }
            })
            .collect::<Result<_, _>>()?;
        Ok(Csv {
            name: name.to_string(),
            headers,
            rows,
        })
    }

    /// `results/<name>.csv` as committed, parsed.
    fn load(name: &str) -> Result<Csv, String> {
        Csv::parse(name, &committed(name))
    }

    fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        self.rows.iter().enumerate().map(|(i, cells)| Row {
            csv: self,
            line: i + 2,
            cells,
        })
    }

    /// Fails when no row qualified for a predicate.
    fn some(&self, qualifying: usize, which: &str) -> Result<(), String> {
        if qualifying == 0 {
            Err(format!("{}.csv has no {which} row", self.name))
        } else {
            Ok(())
        }
    }
}

impl Row<'_> {
    fn text(&self, header: &str) -> Result<&str, String> {
        let i = self
            .csv
            .headers
            .iter()
            .position(|h| h == header)
            .ok_or_else(|| format!("{}.csv has no column `{header}`", self.csv.name))?;
        Ok(&self.cells[i])
    }

    fn num(&self, header: &str) -> Result<f64, String> {
        let cell = self.text(header)?;
        cell.parse()
            .map_err(|_| self.error(&format!("`{header}` = `{cell}` is not a number")))
    }

    fn error(&self, why: &str) -> String {
        format!("{}.csv line {}: {why}", self.csv.name, self.line)
    }

    fn reject_if(&self, bad: bool, why: &str) -> Result<(), String> {
        if bad {
            Err(self.error(why))
        } else {
            Ok(())
        }
    }
}

type Predicate = fn(&Csv) -> Result<(), String>;

/// Each predicate with the CSV it reads.
const PREDICATES: [(&str, Predicate); 6] = [
    ("fig18_churn", fig18_coverage),
    ("fig19a_detection", fig19a_detection),
    ("fig19c_collusion", fig19c_collusion),
    ("fig5a_detection", fig5a_detection),
    ("fig20_reliability", fig20_retransmits),
    ("fig20_reliability", fig20_arq_recovers),
];

/// Every swept failure rate still delivers an aggregate: no row reports
/// zero iCPDA coverage.
fn fig18_coverage(csv: &Csv) -> Result<(), String> {
    for row in csv.rows() {
        row.reject_if(row.num("iCPDA coverage")? == 0.0, "iCPDA coverage is 0")?;
    }
    csv.some(csv.rows.len(), "data")
}

/// Pollution by 20 % of the heads is detected at Th=0.
fn fig19a_detection(csv: &Csv) -> Result<(), String> {
    let mut rows = 0;
    for row in csv.rows() {
        if row.num("fraction")? == 0.2 {
            rows += 1;
            row.reject_if(
                row.num("Th=0 measured")? == 0.0,
                "pollution by 20 % of the heads went undetected at Th=0",
            )?;
        }
    }
    csv.some(rows, "fraction = 0.2")
}

/// Every targeted m−1 collusion exposes its victim, and every
/// reconstruction verified against the true reading (arXiv:1201.4532).
fn fig19c_collusion(csv: &Csv) -> Result<(), String> {
    for row in csv.rows() {
        row.reject_if(
            row.num("exposed")? < 1.0 || row.text("verified")? != "true",
            "the m−1 colluders did not expose a verified victim",
        )?;
    }
    csv.some(csv.rows.len(), "data")
}

/// Exactly one honest row (attackers = 0), which rejects nothing; every
/// attacked row detects the naive and the consistent strategy ≥ 0.9.
fn fig5a_detection(csv: &Csv) -> Result<(), String> {
    let (mut honest, mut attacked) = (0, 0);
    for row in csv.rows() {
        let attackers = row.num("attackers")?;
        if attackers == 0.0 {
            honest += 1;
            row.reject_if(
                row.num("naive (alter totals)")? != 0.0
                    || row.num("consistent (forge input)")? != 0.0
                    || row.num("stealthy (phantom input)")? != 0.0,
                "an honest round was rejected",
            )?;
        } else if attackers > 0.0 {
            attacked += 1;
            row.reject_if(
                row.num("naive (alter totals)")? < 0.9
                    || row.num("consistent (forge input)")? < 0.9,
                "a polluting head escaped detection",
            )?;
        }
    }
    if honest != 1 {
        return Err(format!(
            "{}.csv has {honest} attackers = 0 rows, not 1",
            csv.name
        ));
    }
    csv.some(attacked, "attacked")
}

/// The retry budgets are exercised on every row.
fn fig20_retransmits(csv: &Csv) -> Result<(), String> {
    for row in csv.rows() {
        row.reject_if(row.num("retransmits")? == 0.0, "no retransmits")?;
    }
    csv.some(csv.rows.len(), "data")
}

/// At the bursty 20 % operating point ARQ beats no-ARQ and recovers at
/// least 85 % of the lossless row's accuracy. Rows are read in order, and
/// the lossless accuracy is that of the last loss-0 row above; a (0.2,
/// 0.8) row with no loss-0 row above it fails, since it has nothing to
/// recover against.
fn fig20_arq_recovers(csv: &Csv) -> Result<(), String> {
    let (mut lossless, mut rows) = (None, 0);
    for row in csv.rows() {
        let loss = row.num("loss rate")?;
        if loss == 0.0 {
            lossless = Some(row.num("ARQ acc")?);
        }
        if loss == 0.2 && row.num("burstiness")? == 0.8 {
            rows += 1;
            let Some(lossless) = lossless else {
                return Err(row.error("no lossless (loss 0) row above it"));
            };
            let arq = row.num("ARQ acc")?;
            row.reject_if(
                arq <= row.num("no-ARQ acc")? || arq < 0.85 * lossless,
                "ARQ does not beat no-ARQ, or recovers < 85 % of the lossless accuracy",
            )?;
        }
    }
    csv.some(rows, "(0.2, 0.8)")
}

/// Every number EXPERIMENTS.md quotes from one CSV cell, one per line:
/// the section that quotes it (`F3` for `## F3 — …`), the CSV, the row
/// as `column=value` keys joined by `&`, the column, and the number as
/// the section prints it.
const QUOTES: &str = "
# T1's measured degrees.
T1  | tab1_degree       | nodes=200 | degree (measured) | 8.8
T1  | tab1_degree       | nodes=400 | degree (measured) | 17.7
T1  | tab1_degree       | nodes=600 | degree (measured) | 26.6
# F4 at p_x = 0.1: theory m=3/4/5, the mixture and Monte-Carlo, then 4b.
F4  | fig4_privacy      | p_x=0.1 | theory m=3            | 0.0100
F4  | fig4_privacy      | p_x=0.1 | theory m=4            | 0.0010
F4  | fig4_privacy      | p_x=0.1 | theory m=5            | 0.0001
F4  | fig4_privacy      | p_x=0.1 | mixture (formed sizes) | 0.00124
F4  | fig4_privacy      | p_x=0.1 | Monte-Carlo           | 0.00107
F4  | fig4b_density     | p_x=0.1 | degree≈7 measured     | 0.00180
F4  | fig4b_density     | p_x=0.1 | degree≈17 measured    | 0.00140
# F3's table: degree from Table 1, then TAG and iCPDA accuracy.
F3  | tab1_degree       | nodes=200 | degree (measured) | 8.8
F3  | tab1_degree       | nodes=300 | degree (measured) | 13.3
F3  | tab1_degree       | nodes=400 | degree (measured) | 17.7
F3  | tab1_degree       | nodes=500 | degree (measured) | 22.0
F3  | tab1_degree       | nodes=600 | degree (measured) | 26.6
F3  | fig3_accuracy     | nodes=200 | TAG acc           | 0.981
F3  | fig3_accuracy     | nodes=300 | TAG acc           | 0.961
F3  | fig3_accuracy     | nodes=400 | TAG acc           | 0.936
F3  | fig3_accuracy     | nodes=500 | TAG acc           | 0.929
F3  | fig3_accuracy     | nodes=600 | TAG acc           | 0.835
F3  | fig3_accuracy     | nodes=600 | TAG ±             | 0.23
F3  | fig3_accuracy     | nodes=200 | iCPDA acc         | 0.892
F3  | fig3_accuracy     | nodes=300 | iCPDA acc         | 0.950
F3  | fig3_accuracy     | nodes=400 | iCPDA acc         | 0.967
F3  | fig3_accuracy     | nodes=500 | iCPDA acc         | 0.978
F3  | fig3_accuracy     | nodes=600 | iCPDA acc         | 0.987
# F3's prose: TAG degrades 0.98 → 0.84.
F3  | fig3_accuracy     | nodes=200 | TAG acc           | 0.98
F3  | fig3_accuracy     | nodes=600 | TAG acc           | 0.84
# F5: the honest false-reject rate, then 1/2/4/8 attacking heads.
F5  | fig5a_detection   | attackers=0 | naive (alter totals)     | 0.000
F5  | fig5a_detection   | attackers=0 | consistent (forge input) | 0.000
F5  | fig5a_detection   | attackers=0 | stealthy (phantom input) | 0.000
F5  | fig5a_detection   | attackers=1 | naive (alter totals)     | 1.000
F5  | fig5a_detection   | attackers=2 | naive (alter totals)     | 1.000
F5  | fig5a_detection   | attackers=4 | naive (alter totals)     | 1.000
F5  | fig5a_detection   | attackers=8 | naive (alter totals)     | 1.000
F5  | fig5a_detection   | attackers=1 | consistent (forge input) | 1.000
F5  | fig5a_detection   | attackers=2 | consistent (forge input) | 1.000
F5  | fig5a_detection   | attackers=4 | consistent (forge input) | 1.000
F5  | fig5a_detection   | attackers=8 | consistent (forge input) | 1.000
F5  | fig5a_detection   | attackers=1 | stealthy (phantom input) | 0.0
F5  | fig5a_detection   | attackers=2 | stealthy (phantom input) | 0.0
F5  | fig5a_detection   | attackers=4 | stealthy (phantom input) | 0.0
F5  | fig5a_detection   | attackers=8 | stealthy (phantom input) | 0.0
E18 | fig18_churn       | failure rate=0.1 | iCPDA acc | 0.82
E18 | fig18_churn       | failure rate=0.1 | TAG acc   | 0.71
E18 | fig18_churn       | failure rate=0.2 | iCPDA acc | 0.64
E18 | fig18_churn       | failure rate=0.2 | TAG acc   | 0.43
E18 | fig18_churn       | failure rate=0   | iCPDA acc | 1.000
# E19: the 19a step (1.000 while Th < Δ, 0.000 at Th=5000), 19b at f=0.6.
E19 | fig19a_detection  | fraction=0.1 | Th=0 measured    | 1.000
E19 | fig19a_detection  | fraction=0.2 | Th=0 measured    | 1.000
E19 | fig19a_detection  | fraction=0.3 | Th=0 measured    | 1.000
E19 | fig19a_detection  | fraction=0.1 | Th=500 measured  | 1.000
E19 | fig19a_detection  | fraction=0.2 | Th=500 measured  | 1.000
E19 | fig19a_detection  | fraction=0.3 | Th=500 measured  | 1.000
E19 | fig19a_detection  | fraction=0.1 | Th=5000 measured | 0.000
E19 | fig19a_detection  | fraction=0.2 | Th=5000 measured | 0.000
E19 | fig19a_detection  | fraction=0.3 | Th=5000 measured | 0.000
E19 | fig19b_disclosure | f=0.6        | measured               | 0.115
E19 | fig19b_disclosure | f=0.6        | model Σ m·f^(m−1)/Σ m  | 0.121
E20 | fig20_reliability | loss rate=0.2&burstiness=0.8 | ARQ acc      | 0.932
E20 | fig20_reliability | loss rate=0&burstiness=0     | ARQ acc      | 1.001
E20 | fig20_reliability | loss rate=0.2&burstiness=0.8 | no-ARQ acc   | 0.546
E20 | fig20_reliability | loss rate=0.2&burstiness=0.8 | TAG acc      | 0.298
E20 | fig20_reliability | loss rate=0&burstiness=0     | degraded     | 0.0
E20 | fig20_reliability | loss rate=0.3&burstiness=0   | degraded     | 1.0
E20 | fig20_reliability | loss rate=0.3&burstiness=0.8 | degraded     | 1.0
E20 | fig20_reliability | loss rate=0.1&burstiness=0   | ARQ acc      | 1.001
E20 | fig20_reliability | loss rate=0.1&burstiness=0.8 | ARQ acc      | 1.006
E20 | fig20_reliability | loss rate=0&burstiness=0     | ARQ coverage | 1.000
E21 | fig21_scale       | nodes=600   | iCPDA acc  | 0.99
E21 | fig21_scale       | nodes=50000 | iCPDA acc  | 0.81
E21 | fig21_scale       | nodes=600   | iCPDA s    | 22
E21 | fig21_scale       | nodes=50000 | iCPDA s    | 42.5
E21 | fig21_scale       | nodes=50000 | 4-BS s     | 28.0
E21 | fig21_scale       | nodes=50000 | 4-BS acc   | 0.85
E21 | fig21_scale       | nodes=600   | TAG B/node | 48
E21 | fig21_scale       | nodes=2000  | TAG B/node | 48
E21 | fig21_scale       | nodes=10000 | TAG B/node | 48
E21 | fig21_scale       | nodes=50000 | TAG B/node | 48
";

/// One line of [`QUOTES`].
struct Quote<'a> {
    section: &'a str,
    csv: &'a str,
    row: Vec<(&'a str, f64)>,
    header: &'a str,
    text: &'a str,
}

impl<'a> Quote<'a> {
    fn parse(line: &'a str) -> Quote<'a> {
        let fields: Vec<&str> = line.split('|').map(str::trim).collect();
        let [section, csv, row, header, text] = fields[..] else {
            panic!("malformed quote {line:?}");
        };
        let row = row
            .split('&')
            .map(|key| {
                let (column, value) = key.split_once('=').expect("column=value");
                (column, value.parse().expect("numeric key"))
            })
            .collect();
        Quote {
            section,
            csv,
            row,
            header,
            text,
        }
    }
}

fn quotes() -> impl Iterator<Item = Quote<'static>> {
    QUOTES
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(Quote::parse)
}

/// Checks one quote against its CSV and the text of EXPERIMENTS.md.
fn check_quote(q: &Quote, csv: &Csv, doc: &str) -> Result<(), String> {
    let what = format!(
        "{} quotes {}.csv {:?} `{}` as {}",
        q.section, q.csv, q.row, q.header, q.text
    );
    let mut matching = Vec::new();
    for row in csv.rows() {
        let mut hit = true;
        for &(key, value) in &q.row {
            hit &= row.num(key)? == value;
        }
        if hit {
            matching.push(row);
        }
    }
    let [row] = matching.as_slice() else {
        return Err(format!("{what}: {} rows match", matching.len()));
    };
    let cell = row.text(q.header)?;
    let places = q.text.split_once('.').map_or(0, |(_, frac)| frac.len());
    let rounded = decimal_units(cell, places);
    if rounded.is_none() || rounded != decimal_units(q.text, places) {
        return Err(format!("{what}, but the cell reads {cell}"));
    }
    if !contains_number(section(doc, q.section)?, q.text) {
        return Err(format!("{what}, but the section does not say {}", q.text));
    }
    Ok(())
}

/// A non-negative decimal as a whole number of `10^-places`, rounded half
/// up on its printed digits (`"0.835"` at 2 places is 84).
fn decimal_units(text: &str, places: usize) -> Option<u128> {
    let (int, frac) = text.split_once('.').unwrap_or((text, ""));
    if int.is_empty() || !int.bytes().chain(frac.bytes()).all(|b| b.is_ascii_digit()) {
        return None;
    }
    let kept = &frac[..frac.len().min(places)];
    let mut units: u128 = format!("{int}{kept:0<places$}").parse().ok()?;
    if frac.as_bytes().get(places).is_some_and(|&d| d >= b'5') {
        units += 1;
    }
    Some(units)
}

/// The text of the EXPERIMENTS.md section headed `## <name> `, up to the
/// next `## ` heading.
fn section<'a>(doc: &'a str, name: &str) -> Result<&'a str, String> {
    let start = doc
        .find(&format!("\n## {name} "))
        .ok_or_else(|| format!("EXPERIMENTS.md has no section {name}"))?;
    let rest = &doc[start + 1..];
    let end = rest.find("\n## ").unwrap_or(rest.len());
    Ok(&rest[..end])
}

/// Whether `text` contains `number` other than as part of a longer
/// number (`0.23` is not in `0.232`, nor `22` in `22.5`).
fn contains_number(text: &str, number: &str) -> bool {
    text.match_indices(number).any(|(i, _)| {
        let before = text[..i].chars().next_back();
        let mut after = text[i + number.len()..].chars();
        let extends_after = match after.next() {
            Some('.') => after.next().is_some_and(|c| c.is_ascii_digit()),
            next => next.is_some_and(|c| c.is_ascii_digit()),
        };
        !before.is_some_and(|c| c.is_ascii_digit() || c == '.') && !extends_after
    })
}

fn experiments_md() -> String {
    let path = Path::new(ROOT).join("EXPERIMENTS.md");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn committed_results_hold_every_predicate() {
    let failures: Vec<String> = PREDICATES
        .iter()
        .filter_map(|(name, predicate)| Csv::load(name).and_then(|csv| predicate(&csv)).err())
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn every_quoted_number_matches_its_cell() {
    let doc = experiments_md();
    let failures: Vec<String> = quotes()
        .filter_map(|q| {
            Csv::load(q.csv)
                .and_then(|csv| check_quote(&q, &csv, &doc))
                .err()
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The committed `name.csv` with `from` replaced by `to` once.
fn mutated(name: &str, from: &str, to: &str) -> String {
    let text = committed(name);
    assert!(text.contains(from), "{name}.csv does not contain {from:?}");
    text.replacen(from, to, 1)
}

/// `predicate` must reject every `fails` edit of the committed CSV, an
/// empty file and the header alone, and accept every `holds` edit.
fn assert_mutations(
    name: &str,
    predicate: Predicate,
    fails: &[(&str, &str)],
    holds: &[(&str, &str)],
) {
    let verdict = |text: &str| Csv::parse(name, text).and_then(|csv| predicate(&csv));
    let header = committed(name).lines().next().expect("header").to_string();
    for text in ["", &header] {
        assert!(verdict(text).is_err(), "{name}: {text:?} passed");
    }
    for (from, to) in fails {
        assert!(
            verdict(&mutated(name, from, to)).is_err(),
            "{name}: {from:?} → {to:?} passed"
        );
    }
    for (from, to) in holds {
        let held = verdict(&mutated(name, from, to));
        assert!(held.is_ok(), "{name}: {from:?} → {to:?}: {held:?}");
    }
}

#[test]
fn fig18_claim_rejects_zero_coverage() {
    assert_mutations(
        "fig18_churn",
        fig18_coverage,
        &[("0.100,0.817,0.095,0.817,", "0.100,0.817,0.095,0.000,")],
        &[("0.100,0.817,0.095,0.817,", "0.100,0.817,0.095,0.001,")],
    );
}

#[test]
fn fig19a_claim_rejects_undetected_pollution_at_a_fifth() {
    assert_mutations(
        "fig19a_detection",
        fig19a_detection,
        &[
            ("0.200,1.000,", "0.200,0.000,"),
            ("0.200,1.000,1.000,1.000,1.000,0.000,0.000\n", ""),
        ],
        &[
            ("0.100,1.000,", "0.100,0.000,"),
            ("0.200,1.000,1.000,1.000,", "0.200,1.000,1.000,0.000,"),
        ],
    );
}

#[test]
fn fig19c_claim_rejects_an_unexposed_or_unverified_victim() {
    assert_mutations(
        "fig19c_collusion",
        fig19c_collusion,
        &[
            ("3,2,283,1,true", "3,2,283,0,true"),
            ("6,5,280,1,true", "6,5,280,1,false"),
            ("4,3,282,1,true", "4,3,282,1,TRUE"),
        ],
        &[("3,2,283,1,true", "3,2,283,2,true")],
    );
}

#[test]
fn fig5a_claim_rejects_false_rejects_and_missed_attacks() {
    let honest = "0,0.000,0.000,0.000\n";
    assert_mutations(
        "fig5a_detection",
        fig5a_detection,
        &[
            (honest, "0,0.033,0.000,0.000\n"),
            (honest, "0,0.000,0.000,0.100\n"),
            ("2,1.000,1.000,", "2,0.867,1.000,"),
            ("4,1.000,1.000,", "4,1.000,0.899,"),
            (honest, "0,0.000,0.000,0.000\n0,0.000,0.000,0.000\n"),
            (honest, ""),
            (
                "1,1.000,1.000,0.000\n2,1.000,1.000,0.000\n4,1.000,1.000,0.000\n8,1.000,1.000,0.000\n",
                "",
            ),
        ],
        &[
            ("4,1.000,1.000,", "4,0.900,0.900,"),
            ("8,1.000,1.000,0.000", "8,1.000,1.000,0.500"),
        ],
    );
}

#[test]
fn fig20_claims_reject_idle_retries_and_a_weak_arq_arm() {
    assert_mutations(
        "fig20_reliability",
        fig20_retransmits,
        &[("6560.200,0.000", "0.000,0.000")],
        &[("6560.200,0.000", "0.001,0.000")],
    );
    let bursty = "0.200,0.800,0.932,";
    assert_mutations(
        "fig20_reliability",
        fig20_arq_recovers,
        &[
            (bursty, "0.200,0.800,0.546,"),
            (bursty, "0.200,0.800,0.850,"),
            ("0.000,0.000,1.001,", "0.000,0.000,1.200,"),
            (
                "0.200,0.800,0.932,0.106,0.923,0.546,0.546,0.298,22.206,5944.500,0.700\n",
                "",
            ),
            (
                "0.000,0.000,1.001,0.004,1.000,0.993,0.993,0.961,21.750,6560.200,0.000\n",
                "",
            ),
        ],
        &[(bursty, "0.200,0.800,0.851,")],
    );
}

#[test]
fn a_quoted_number_fails_when_its_cell_or_its_text_moves() {
    let doc = experiments_md();
    // (quote, CSV edit, EXPERIMENTS.md edit): a table cell from the
    // section's own figure, a table cell from another CSV, and a number
    // in running prose.
    for (line, (from, to), (said, unsaid)) in [
        (
            "F3 | fig3_accuracy | nodes=400 | iCPDA acc | 0.967",
            (
                "400,19.586,0.936,0.099,0.967,",
                "400,19.586,0.936,0.099,0.968,",
            ),
            ("| 0.936 | 0.967 |", "| 0.936 | 0.968 |"),
        ),
        (
            "F3 | tab1_degree | nodes=300 | degree (measured) | 13.3",
            ("300,14.7,13.3,", "300,14.7,13.4,"),
            ("| 300 | 13.3 |", "| 300 | 13.4 |"),
        ),
        (
            "E21 | fig21_scale | nodes=50000 | iCPDA s | 42.5",
            ("0.808,42.5,", "0.808,42.6,"),
            ("→ 42.5 s", "→ 42.6 s"),
        ),
    ] {
        let q = Quote::parse(line);
        let csv = Csv::load(q.csv).expect("committed CSV");
        assert_eq!(check_quote(&q, &csv, &doc), Ok(()));
        let moved = Csv::parse(q.csv, &mutated(q.csv, from, to)).expect("parses");
        assert!(check_quote(&q, &moved, &doc).is_err(), "{from} → {to}");
        assert!(
            doc.contains(said),
            "EXPERIMENTS.md does not contain {said:?}"
        );
        let reworded = doc.replacen(said, unsaid, 1);
        assert!(
            check_quote(&q, &csv, &reworded).is_err(),
            "{said} → {unsaid}"
        );
    }
}

#[test]
fn quotes_round_the_printed_decimal_half_up() {
    assert_eq!(decimal_units("0.835", 2), Some(84));
    assert_eq!(decimal_units("0.8349", 2), Some(83));
    assert_eq!(decimal_units("21.9", 0), Some(22));
    assert_eq!(decimal_units("48.0", 0), Some(48));
    assert_eq!(decimal_units("1.0", 3), Some(1000));
    assert_eq!(decimal_units("n/a", 1), None);
    assert!(contains_number("(0.98→0.84, with", "0.84"));
    assert!(!contains_number("TAG 0.232 and 22.5 s", "0.23"));
    assert!(!contains_number("TAG 0.232 and 22.5 s", "22"));
    assert!(contains_number("stays 1.000.", "1.000"));
}
