//! Plain-text data export (CSV) for plotting the reproduced figures.
//!
//! Everything here is a pure string producer over the experiment result
//! types — no I/O, no serialization dependencies. The CSV dialect is the
//! boring one: header row, comma separation, `.` decimal points, LF line
//! endings.

use eventsim::{Cdf, TimeSeries};
use std::fmt::Write as _;

/// Renders a time series as `time_s,<value_name>` rows.
pub fn time_series_csv(ts: &TimeSeries, value_name: &str) -> String {
    let mut out = String::with_capacity(ts.len() * 16 + 32);
    let _ = writeln!(out, "time_s,{value_name}");
    for (t, v) in ts.iter() {
        let _ = writeln!(out, "{:.9},{v}", t.as_secs_f64());
    }
    out
}

/// Value a series contributes at union timestamps before its own first
/// sample: a job that has not started transmitting has zero throughput,
/// so the step function is extended left with an explicit `0` rather than
/// dropping or blanking the row.
const VALUE_BEFORE_FIRST_SAMPLE: f64 = 0.0;

/// Renders several aligned time series as
/// `time_s,<name0>,<name1>,…` rows on the union of their sample times
/// (step-function semantics; before a series' first sample it contributes
/// [`VALUE_BEFORE_FIRST_SAMPLE`]).
///
/// # Panics
/// Panics if `series` and `names` lengths differ or `series` is empty.
pub fn multi_series_csv(series: &[&TimeSeries], names: &[&str]) -> String {
    assert_eq!(
        series.len(),
        names.len(),
        "multi_series_csv: length mismatch"
    );
    assert!(!series.is_empty(), "multi_series_csv: no series");
    let mut times: Vec<simtime::Time> = series
        .iter()
        .flat_map(|ts| ts.iter().map(|(t, _)| t))
        .collect();
    times.sort_unstable();
    times.dedup();
    let mut out = String::new();
    let _ = writeln!(out, "time_s,{}", names.join(","));
    for t in times {
        let _ = write!(out, "{:.9}", t.as_secs_f64());
        for ts in series {
            let v = match ts.value_at(t) {
                Some(v) => v,
                None => VALUE_BEFORE_FIRST_SAMPLE,
            };
            let _ = write!(out, ",{v}");
        }
        out.push('\n');
    }
    out
}

/// Renders a CDF as `value_ms,cumulative_fraction` rows — the exact data
/// behind the paper's Fig. 1d curves.
pub fn cdf_csv(cdf: &Cdf) -> String {
    let mut out = String::with_capacity(cdf.len() * 24 + 32);
    let _ = writeln!(out, "value_ms,cumulative_fraction");
    for (d, f) in cdf.curve() {
        let _ = writeln!(out, "{:.6},{f}", d.as_millis_f64());
    }
    out
}

/// Renders generic rows (first row = header) as CSV, quoting cells that
/// contain commas or quotes.
pub fn rows_csv(rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .map(|c| {
                if c.contains(',') || c.contains('"') {
                    format!("\"{}\"", c.replace('"', "\"\""))
                } else {
                    c.clone()
                }
            })
            .collect();
        let _ = writeln!(out, "{}", cells.join(","));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::{Dur, Time};

    #[test]
    fn time_series_csv_format() {
        let mut ts = TimeSeries::new();
        ts.push(Time::ZERO, 1.5);
        ts.push(Time::ZERO + Dur::from_millis(2), 3.0);
        let csv = time_series_csv(&ts, "gbps");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,gbps");
        assert_eq!(lines[1], "0.000000000,1.5");
        assert_eq!(lines[2], "0.002000000,3");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn multi_series_aligns_on_union() {
        let mut a = TimeSeries::new();
        a.push(Time::ZERO, 1.0);
        a.push(Time::ZERO + Dur::from_millis(10), 2.0);
        let mut b = TimeSeries::new();
        b.push(Time::ZERO + Dur::from_millis(5), 7.0);
        let csv = multi_series_csv(&[&a, &b], &["j1", "j2"]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "time_s,j1,j2");
        assert_eq!(lines.len(), 4); // 3 distinct timestamps
                                    // At t=0, b has no value yet → 0.
        assert_eq!(lines[1], "0.000000000,1,0");
        // At t=5ms, a holds 1, b jumps to 7.
        assert_eq!(lines[2], "0.005000000,1,7");
        assert_eq!(lines[3], "0.010000000,2,7");
    }

    #[test]
    fn multi_series_union_and_leading_zero_semantics() {
        // Three series with disjoint start times: the output must contain
        // one row per *distinct* timestamp across all series (the union),
        // and a series must read exactly `0` on every row before its own
        // first sample, then hold its last value (step semantics) after.
        let mut a = TimeSeries::new();
        a.push(Time::ZERO, 4.0);
        let mut b = TimeSeries::new();
        b.push(Time::ZERO + Dur::from_millis(3), 5.0);
        let mut c = TimeSeries::new();
        c.push(Time::ZERO + Dur::from_millis(3), 6.0); // shares b's timestamp
        c.push(Time::ZERO + Dur::from_millis(9), 7.0);
        let csv = multi_series_csv(&[&a, &b, &c], &["a", "b", "c"]);
        let lines: Vec<&str> = csv.lines().collect();
        // Union of {0}, {3}, {3, 9} = {0, 3, 9}: header + 3 rows.
        assert_eq!(lines.len(), 4);
        // Before b's and c's first samples, both read an explicit 0.
        assert_eq!(lines[1], "0.000000000,4,0,0");
        assert_eq!(lines[2], "0.003000000,4,5,6");
        // After their last samples, a and b hold their values.
        assert_eq!(lines[3], "0.009000000,4,5,7");
    }

    #[test]
    fn cdf_csv_is_monotone() {
        let cdf = Cdf::from_samples(vec![
            Dur::from_millis(3),
            Dur::from_millis(1),
            Dur::from_millis(2),
        ]);
        let csv = cdf_csv(&cdf);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "value_ms,cumulative_fraction");
        assert!(lines[1].starts_with("1.000000,"));
        assert!(lines[3].ends_with(",1"));
    }

    #[test]
    fn rows_csv_quotes_when_needed() {
        let csv = rows_csv(&[
            vec!["job".into(), "note".into()],
            vec!["VGG19(1200)".into(), "fast, green".into()],
            vec!["x".into(), "say \"hi\"".into()],
        ]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[1], "VGG19(1200),\"fast, green\"");
        assert_eq!(lines[2], "x,\"say \"\"hi\"\"\"");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn multi_series_length_mismatch_panics() {
        let a = TimeSeries::new();
        let _ = multi_series_csv(&[&a], &["x", "y"]);
    }
}
