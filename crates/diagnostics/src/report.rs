//! Self-contained HTML run report: inline SVG phase timelines, rate
//! sparklines, and analyzer verdict tables. No external assets, scripts,
//! or stylesheets — the file opens anywhere, forever.

use crate::analyze::{RunAnalysis, ScenarioAnalysis};
use crate::health::Convergence;
use std::fmt::Write as _;

/// Colors for job timeline rows, cycled.
const PALETTE: &[&str] = &[
    "#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2", "#b279a2", "#9d755d", "#eeca3b",
];

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Renders the full report page.
pub fn html(analysis: &RunAnalysis) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n");
    let _ = writeln!(
        out,
        "<title>mlcc run report: {}</title>",
        esc(&analysis.name)
    );
    out.push_str(
        "<style>\n\
         body{font:14px/1.5 system-ui,sans-serif;margin:2em auto;max-width:72em;color:#222}\n\
         h1,h2,h3{font-weight:600}\n\
         table{border-collapse:collapse;margin:1em 0}\n\
         th,td{border:1px solid #ccc;padding:.3em .7em;text-align:left}\n\
         th{background:#f3f3f3}\n\
         .ok{color:#1a7f37;font-weight:600}\n\
         .warn{color:#b35900;font-weight:600}\n\
         .bad{color:#c62828;font-weight:600}\n\
         .muted{color:#777}\n\
         svg{background:#fafafa;border:1px solid #ddd;margin:.5em 0}\n\
         </style></head><body>\n",
    );
    let _ = writeln!(out, "<h1>Run report: {}</h1>", esc(&analysis.name));

    for sc in &analysis.scenarios {
        let _ = writeln!(out, "<h2>Scenario: {}</h2>", esc(&sc.name));
        verdict_table(&mut out, sc);
        attribution_section(&mut out, sc);
        timeline_svg(&mut out, sc);
        sparklines_svg(&mut out, sc);
    }

    if !analysis.attribution.is_empty() {
        out.push_str("<h2>Speedup attribution</h2>\n");
        let base = &analysis.scenarios[0].name;
        let _ = writeln!(
            out,
            "<p class=\"muted\">Baseline scenario: {}</p>",
            esc(base)
        );
        out.push_str("<table><tr><th>scenario</th><th>job</th><th>speedup vs baseline</th></tr>\n");
        for attr in &analysis.attribution {
            for sp in &attr.speedups {
                let cls = if sp.speedup > 1.01 {
                    "ok"
                } else if sp.speedup < 0.99 {
                    "bad"
                } else {
                    "muted"
                };
                let _ = writeln!(
                    out,
                    "<tr><td>{}</td><td>job {}</td><td class=\"{cls}\">{:.3}&times;</td></tr>",
                    esc(&attr.scenario),
                    sp.job,
                    sp.speedup
                );
            }
        }
        out.push_str("</table>\n");
    }

    out.push_str("</body></html>\n");
    out
}

/// The analyzer verdicts for one scenario, as a table.
fn verdict_table(out: &mut String, sc: &ScenarioAnalysis) {
    out.push_str("<table><tr><th>check</th><th>value</th><th>verdict</th></tr>\n");
    let ov = sc.interleave.overlap_fraction;
    let (cls, verdict) = if ov < 0.05 {
        ("ok", "interleaved")
    } else if ov < 0.25 {
        ("warn", "partial overlap")
    } else {
        ("bad", "contended")
    };
    let _ = writeln!(
        out,
        "<tr><td>communication overlap fraction</td><td>{ov:.4}</td>\
         <td class=\"{cls}\">{verdict}</td></tr>"
    );
    if let Some(gap) = sc.interleave.prediction_gap() {
        let cls = if gap.abs() < 0.05 { "ok" } else { "warn" };
        let _ = writeln!(
            out,
            "<tr><td>gap vs solver prediction</td><td>{gap:+.4}</td>\
             <td class=\"{cls}\">{}</td></tr>",
            if gap.abs() < 0.05 {
                "as predicted"
            } else {
                "diverges from prediction"
            }
        );
    }
    for f in &sc.health.flows {
        let cls = match f.verdict {
            Convergence::Converged => "ok",
            Convergence::Oscillating => "bad",
            Convergence::Indeterminate => "muted",
        };
        let _ = writeln!(
            out,
            "<tr><td>flow {} rate (mean {:.2} Gbps, final CV {:.3})</td>\
             <td>{:.1} ECN/s, {:.1} CNP/s</td><td class=\"{cls}\">{}</td></tr>",
            f.flow,
            f.mean_rate_gbps,
            f.final_cv,
            f.ecn_marks_per_sec,
            f.cnps_per_sec,
            f.verdict.label()
        );
    }
    for q in &sc.health.queues {
        let cls = if q.standing_queue { "bad" } else { "ok" };
        let _ = writeln!(
            out,
            "<tr><td>queue on link {} (max {:.0} B)</td><td>final mean {:.0} B</td>\
             <td class=\"{cls}\">{}</td></tr>",
            q.link,
            q.max_bytes,
            q.final_mean_bytes,
            if q.standing_queue {
                "standing queue"
            } else {
                "drains"
            }
        );
    }
    if let Some(fj) = &sc.fairness {
        let cls = if fj.long_term_jain > 0.9 {
            "ok"
        } else {
            "warn"
        };
        let _ = writeln!(
            out,
            "<tr><td>fairness (Jain)</td><td>windowed mean {:.3}, min {:.3}</td>\
             <td class=\"{cls}\">long-term {:.3}</td></tr>",
            fj.mean_jain, fj.min_jain, fj.long_term_jain
        );
    }
    out.push_str("</table>\n");
}

/// Contention-attribution ledger: per-job time decomposition, the blame
/// matrix per (victim, link, competitor), and the critical-path verdict.
/// Silent for traces without span events.
fn attribution_section(out: &mut String, sc: &ScenarioAnalysis) {
    let ledger = &sc.ledger;
    if ledger.jobs.is_empty() {
        return;
    }
    out.push_str("<h3>Contention attribution</h3>\n");
    let _ = writeln!(
        out,
        "<p class=\"muted\">Per-job wall time decomposed from iteration spans; \
         geometry cross-check: <b>{}</b> (measured pairwise overlap {:.3}{}; \
         max conservation residual {:.1} ns)</p>",
        esc(ledger.verdict()),
        ledger.measured_overlap(),
        match ledger.predicted_overlap {
            Some(p) => format!(", predicted {p:.3}"),
            None => String::new(),
        },
        ledger.max_residual * 1e9
    );
    out.push_str(
        "<table><tr><th>job</th><th>wall ms</th><th>compute ms</th><th>solo comm ms</th>\
         <th>inflation ms</th><th>inflation share</th><th>critical path</th></tr>\n",
    );
    for (job, jl) in &ledger.jobs {
        let share = jl.inflation_share();
        let cls = if share < 0.05 {
            "ok"
        } else if share < 0.25 {
            "warn"
        } else {
            "bad"
        };
        let critical = if jl.bound_by_comm > jl.bound_by_compute {
            let link = jl
                .top_blame()
                .first()
                .map(|((link, _), _)| format!("link {link}"))
                .unwrap_or_else(|| "network".to_string());
            format!(
                "{} ({} of {} iterations)",
                link,
                jl.bound_by_comm,
                jl.iterations.len()
            )
        } else {
            format!(
                "compute ({} of {} iterations)",
                jl.bound_by_compute,
                jl.iterations.len()
            )
        };
        let _ = writeln!(
            out,
            "<tr><td>job {job}</td><td>{:.3}</td><td>{:.3}</td><td>{:.3}</td>\
             <td>{:.3}</td><td class=\"{cls}\">{:.1}%</td><td>{critical}</td></tr>",
            jl.wall * 1e3,
            jl.compute * 1e3,
            jl.solo * 1e3,
            jl.inflation * 1e3,
            share * 100.0
        );
    }
    out.push_str("</table>\n");

    let has_blame = ledger.jobs.values().any(|jl| !jl.blame.is_empty());
    if has_blame {
        out.push_str(
            "<table><tr><th>victim</th><th>link</th><th>blamed on</th>\
             <th>blamed ms</th></tr>\n",
        );
        for (job, jl) in &ledger.jobs {
            for ((link, other), secs) in jl.top_blame() {
                let _ = writeln!(
                    out,
                    "<tr><td>job {job}</td><td>link {link}</td><td>job {other}</td>\
                     <td>{:.3}</td></tr>",
                    secs * 1e3
                );
            }
        }
        out.push_str("</table>\n");
    }
}

/// Per-job communicate-phase occupancy bars over scenario time.
fn timeline_svg(out: &mut String, sc: &ScenarioAnalysis) {
    let span_ns = sc.tracks.span().as_nanos().max(1) as f64;
    let start_ns = sc.tracks.start.as_nanos() as f64;
    const W: f64 = 960.0;
    const ROW: f64 = 22.0;
    const LEFT: f64 = 70.0;
    let jobs: Vec<u32> = sc.tracks.jobs.keys().copied().collect();
    if jobs.is_empty() {
        return;
    }
    let h = ROW * jobs.len() as f64 + 24.0;
    out.push_str("<h3>Communication phases</h3>\n");
    let _ = writeln!(
        out,
        "<svg width=\"{:.0}\" height=\"{h:.0}\" viewBox=\"0 0 {:.0} {h:.0}\" \
         role=\"img\" aria-label=\"phase timeline\">",
        W + LEFT,
        W + LEFT
    );
    for (row, job) in jobs.iter().enumerate() {
        let y = row as f64 * ROW + 16.0;
        let color = PALETTE[row % PALETTE.len()];
        let _ = writeln!(
            out,
            "<text x=\"4\" y=\"{:.0}\" font-size=\"12\">job {job}</text>",
            y + ROW * 0.55
        );
        for iv in &sc.tracks.jobs[job].comm {
            let x = LEFT + (iv.start.as_nanos() as f64 - start_ns) / span_ns * W;
            let w = (iv.len().as_nanos() as f64 / span_ns * W).max(0.5);
            let _ = writeln!(
                out,
                "<rect x=\"{x:.1}\" y=\"{:.0}\" width=\"{w:.1}\" height=\"{:.0}\" \
                 fill=\"{color}\"/>",
                y + 2.0,
                ROW - 6.0
            );
        }
    }
    let _ = writeln!(
        out,
        "<text x=\"{LEFT:.0}\" y=\"12\" font-size=\"11\" fill=\"#777\">0 ms</text>\
         <text x=\"{:.0}\" y=\"12\" font-size=\"11\" fill=\"#777\" \
         text-anchor=\"end\">{:.1} ms</text>",
        W + LEFT - 4.0,
        span_ns / 1e6
    );
    out.push_str("</svg>\n");
}

/// One rate sparkline per flow.
fn sparklines_svg(out: &mut String, sc: &ScenarioAnalysis) {
    let flows: Vec<u32> = sc
        .tracks
        .jobs
        .iter()
        .filter(|(_, t)| t.rates.len() >= 2)
        .map(|(&f, _)| f)
        .collect();
    if flows.is_empty() {
        return;
    }
    let span_ns = sc.tracks.span().as_nanos().max(1) as f64;
    let start_ns = sc.tracks.start.as_nanos() as f64;
    let max_bps = flows
        .iter()
        .flat_map(|f| sc.tracks.jobs[f].rates.iter().map(|&(_, b)| b))
        .fold(1.0f64, f64::max);
    const W: f64 = 960.0;
    const H: f64 = 80.0;
    const LEFT: f64 = 70.0;
    out.push_str("<h3>Flow rates</h3>\n");
    for (row, flow) in flows.iter().enumerate() {
        let color = PALETTE[row % PALETTE.len()];
        let _ = writeln!(
            out,
            "<svg width=\"{:.0}\" height=\"{H:.0}\" viewBox=\"0 0 {:.0} {H:.0}\" \
             role=\"img\" aria-label=\"rate sparkline flow {flow}\">",
            W + LEFT,
            W + LEFT
        );
        let _ = writeln!(
            out,
            "<text x=\"4\" y=\"{:.0}\" font-size=\"12\">flow {flow}</text>",
            H * 0.55
        );
        let mut points = String::new();
        for &(at, bps) in &sc.tracks.jobs[flow].rates {
            let x = LEFT + (at.as_nanos() as f64 - start_ns) / span_ns * W;
            let y = H - 6.0 - (bps / max_bps) * (H - 14.0);
            let _ = write!(points, "{x:.1},{y:.1} ");
        }
        let _ = writeln!(
            out,
            "<polyline points=\"{}\" fill=\"none\" stroke=\"{color}\" stroke-width=\"1.2\"/>",
            points.trim_end()
        );
        let _ = writeln!(
            out,
            "<text x=\"{:.0}\" y=\"12\" font-size=\"11\" fill=\"#777\" \
             text-anchor=\"end\">{:.1} Gbps max</text>",
            W + LEFT - 4.0,
            max_bps / 1e9
        );
        out.push_str("</svg><br>\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze, AnalysisConfig};
    use simtime::Time;
    use telemetry::{CcState, Event, Phase, TimedEvent};

    fn sample_analysis() -> RunAnalysis {
        let mut events = vec![TimedEvent {
            at: Time::ZERO,
            event: Event::Scenario {
                name: "fig<1>/fair".into(),
            },
        }];
        for i in 0..4u64 {
            for job in 0..2u32 {
                let base = i * 1_000 + job as u64 * 500;
                events.push(TimedEvent {
                    at: Time::from_nanos(base),
                    event: Event::PhaseEnter {
                        job,
                        phase: Phase::Communicate,
                        iteration: i,
                    },
                });
                events.push(TimedEvent {
                    at: Time::from_nanos(base + 400),
                    event: Event::PhaseExit {
                        job,
                        phase: Phase::Communicate,
                        iteration: i,
                    },
                });
                events.push(TimedEvent {
                    at: Time::from_nanos(base),
                    event: Event::RateChange {
                        flow: job,
                        bps: 10e9 + i as f64 * 1e9,
                        state: CcState::AdditiveIncrease,
                    },
                });
            }
        }
        analyze("demo", &events, &AnalysisConfig::default())
    }

    #[test]
    fn report_is_a_self_contained_page() {
        let page = html(&sample_analysis());
        assert!(page.starts_with("<!DOCTYPE html>"));
        assert!(page.ends_with("</body></html>\n"));
        // No external references of any kind.
        assert!(!page.contains("http://") && !page.contains("https://"));
        assert!(!page.contains("<script"));
        // Scenario name is escaped.
        assert!(page.contains("fig&lt;1&gt;/fair"));
        // Timeline and sparkline SVGs are present.
        assert!(page.contains("phase timeline"));
        assert!(page.contains("rate sparkline"));
        assert!(page.contains("<polyline"));
        // Verdict table carries the overlap check.
        assert!(page.contains("communication overlap fraction"));
    }

    #[test]
    fn report_is_deterministic() {
        let a = sample_analysis();
        assert_eq!(html(&a), html(&a));
    }

    #[test]
    fn spanful_traces_render_the_attribution_section() {
        use telemetry::SpanKind;
        let t = Time::from_nanos;
        let mut events = vec![TimedEvent {
            at: Time::ZERO,
            event: Event::Scenario {
                name: "contended".into(),
            },
        }];
        // Two jobs: compute [0,500), fully-overlapped comm [500,1000),
        // then iteration 1 opens so iteration 0 closes.
        for job in 0..2u32 {
            let span = |at: u64, kind: SpanKind, it: u64, begin: bool| TimedEvent {
                at: t(at),
                event: if begin {
                    Event::SpanBegin {
                        job,
                        kind,
                        iteration: it,
                    }
                } else {
                    Event::SpanEnd {
                        job,
                        kind,
                        iteration: it,
                    }
                },
            };
            events.extend([
                span(0, SpanKind::Iteration, 0, true),
                span(0, SpanKind::Compute, 0, true),
                span(500, SpanKind::Compute, 0, false),
                span(500, SpanKind::Communicate, 0, true),
                TimedEvent {
                    at: t(500),
                    event: Event::PhaseEnter {
                        job,
                        phase: Phase::Communicate,
                        iteration: 0,
                    },
                },
                TimedEvent {
                    at: t(1_000),
                    event: Event::PhaseExit {
                        job,
                        phase: Phase::Communicate,
                        iteration: 0,
                    },
                },
                span(1_000, SpanKind::Communicate, 0, false),
                span(1_000, SpanKind::Iteration, 0, false),
                span(1_000, SpanKind::Iteration, 1, true),
            ]);
        }
        let a = analyze("attr", &events, &AnalysisConfig::default());
        let page = html(&a);
        assert!(page.contains("Contention attribution"));
        assert!(page.contains("blamed on"));
        assert!(
            page.contains("<td>job 1</td>"),
            "blame matrix names the peer"
        );
        // The plain sample (no span events) renders no attribution section.
        assert!(!html(&sample_analysis()).contains("Contention attribution"));
    }
}
