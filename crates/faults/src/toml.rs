//! A minimal hand-rolled parser for chaos-config TOML files.
//!
//! The build environment carries no TOML crate, and a chaos file only
//! needs flat `key = number` pairs under four known sections, so this
//! parses exactly that subset (plus `#` comments and blank lines) and
//! rejects anything else with a line-numbered error.
//!
//! ```toml
//! seed = 42
//!
//! [phase]
//! compute_jitter = 0.1
//! comm_jitter = 0.1
//! straggler_prob = 0.03
//! straggler_factor = 4.0
//!
//! [links]
//! degrade_prob = 0.35
//! degrade_factor = 0.25
//! flap_prob = 0.15
//! flap_count = 2
//!
//! [churn]
//! arrival_prob = 0.15
//! max_arrival_frac = 0.2
//! departure_prob = 0.1
//!
//! [signal]
//! mark_loss = 0.02
//! cnp_loss = 0.02
//! ```

use crate::ChaosConfig;

/// The most down-windows a flap train may have. A train starts by 40 % of
/// the horizon and each window takes at least 6 % of it, so windows past
/// about the fifteenth fall after the run ends.
const MAX_FLAP_COUNT: f64 = 1000.0;

/// The largest straggler slowdown. With jitters at most 1 a compute phase
/// grows at most 2 × 100-fold, so its end stays a small, finite time.
const MAX_STRAGGLER_FACTOR: f64 = 100.0;

/// Parses a chaos config from TOML text.
///
/// Unknown sections or keys are errors (they are always typos), as are
/// non-numeric and non-finite values, probabilities, loss rates, jitters,
/// `degrade_factor` and `max_arrival_frac` outside `[0, 1]`, a
/// `straggler_factor` outside `[1, 100]`, a seed that is not a whole
/// number, and a `flap_count` that is not a whole number up to 1000.
pub fn from_toml_str(text: &str) -> Result<ChaosConfig, String> {
    let mut cfg = ChaosConfig::none();
    let mut section = String::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = match raw.find('#') {
            Some(i) => &raw[..i],
            None => raw,
        }
        .trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}: `{raw}`", ln + 1);
        if let Some(name) = line.strip_prefix('[') {
            let name = name
                .strip_suffix(']')
                .ok_or_else(|| err("unterminated section header"))?
                .trim();
            match name {
                "phase" | "links" | "churn" | "signal" => section = name.to_string(),
                _ => return Err(err("unknown section")),
            }
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or_else(|| err("expected `key = value`"))?;
        let key = key.trim();
        let value = value.trim();
        let num: f64 = value.parse().map_err(|_| err("expected a numeric value"))?;
        if !num.is_finite() {
            return Err(err("expected a finite number"));
        }
        let within = |lo: f64, hi: f64| {
            if (lo..=hi).contains(&num) {
                Ok(num)
            } else {
                Err(err(&format!("{key} must be in [{lo}, {hi}]")))
            }
        };
        let fraction = || within(0.0, 1.0);
        match (section.as_str(), key) {
            ("", "seed") => {
                if num < 0.0 || num.fract() != 0.0 {
                    return Err(err("seed must be a non-negative integer"));
                }
                cfg.seed = num as u64;
            }
            ("phase", "compute_jitter") => cfg.phase.compute_jitter = fraction()?,
            ("phase", "comm_jitter") => cfg.phase.comm_jitter = fraction()?,
            ("phase", "straggler_prob") => cfg.phase.straggler_prob = fraction()?,
            ("phase", "straggler_factor") => {
                cfg.phase.straggler_factor = within(1.0, MAX_STRAGGLER_FACTOR)?
            }
            ("links", "degrade_prob") => cfg.links.degrade_prob = fraction()?,
            ("links", "degrade_factor") => cfg.links.degrade_factor = fraction()?,
            ("links", "flap_prob") => cfg.links.flap_prob = fraction()?,
            ("links", "flap_count") => {
                if !(0.0..=MAX_FLAP_COUNT).contains(&num) || num.fract() != 0.0 {
                    return Err(err("flap_count must be an integer in [0, 1000]"));
                }
                cfg.links.flap_count = num as u32;
            }
            ("churn", "arrival_prob") => cfg.churn.arrival_prob = fraction()?,
            ("churn", "max_arrival_frac") => cfg.churn.max_arrival_frac = fraction()?,
            ("churn", "departure_prob") => cfg.churn.departure_prob = fraction()?,
            ("signal", "mark_loss") => cfg.signal.mark_loss = fraction()?,
            ("signal", "cnp_loss") => cfg.signal.cnp_loss = fraction()?,
            _ => return Err(err("unknown key")),
        }
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinkChaos, PhaseChaos};

    #[test]
    fn parses_full_file() {
        let text = "\
# chaos profile
seed = 42

[phase]
compute_jitter = 0.1   # ±10%
straggler_prob = 0.03
straggler_factor = 4.0

[links]
degrade_prob = 0.35
degrade_factor = 0.25

[signal]
mark_loss = 0.02
";
        let cfg = from_toml_str(text).unwrap();
        assert_eq!(cfg.seed, 42);
        assert_eq!(
            cfg.phase,
            PhaseChaos {
                compute_jitter: 0.1,
                comm_jitter: 0.0,
                straggler_prob: 0.03,
                straggler_factor: 4.0,
            }
        );
        assert_eq!(
            cfg.links,
            LinkChaos {
                degrade_prob: 0.35,
                degrade_factor: 0.25,
                flap_prob: 0.0,
                flap_count: 0,
            }
        );
        assert_eq!(cfg.signal.mark_loss, 0.02);
        assert_eq!(cfg.signal.cnp_loss, 0.0);
        assert!(cfg.churn.is_none());
    }

    #[test]
    fn empty_text_is_identity() {
        let cfg = from_toml_str("").unwrap();
        assert!(cfg.is_none());
    }

    #[test]
    fn rejects_unknown_key_and_section() {
        assert!(from_toml_str("[phase]\nbogus = 1\n").is_err());
        assert!(from_toml_str("[warp]\n").is_err());
        assert!(from_toml_str("seed = -3\n").is_err());
        assert!(from_toml_str("just words\n").is_err());
    }

    #[test]
    fn rejects_values_that_would_panic_later() {
        for text in [
            "[phase]\ncompute_jitter = nan\n",
            "[links]\ndegrade_prob = 1\ndegrade_factor = inf\n",
            "[links]\ndegrade_prob = 1.5\n",
            "[links]\nflap_count = 1e9\n",
            "[signal]\nmark_loss = -0.1\n",
            "[churn]\nmax_arrival_frac = -inf\n",
            "seed = inf\n",
            "[phase]\ncompute_jitter = 1e300\n",
            "[phase]\ncomm_jitter = 1.5\n",
            "[phase]\nstraggler_prob = 1\nstraggler_factor = 1e300\n",
            "[phase]\nstraggler_factor = 0.5\n",
            "[links]\ndegrade_factor = 2\n",
            "[churn]\nmax_arrival_frac = 1.5\n",
        ] {
            let e = from_toml_str(text).expect_err(text);
            assert!(e.starts_with("line "), "{e}");
        }
        assert_eq!(
            from_toml_str("[links]\ndegrade_prob = 1\nflap_count = 1000\n")
                .map(|c| c.links.flap_count),
            Ok(1000)
        );
        let edge =
            "[phase]\ncompute_jitter = 1\nstraggler_factor = 100\n[links]\ndegrade_factor = 0\n";
        let cfg = from_toml_str(edge).unwrap();
        assert_eq!(
            (
                cfg.phase.compute_jitter,
                cfg.phase.straggler_factor,
                cfg.links.degrade_factor
            ),
            (1.0, 100.0, 0.0)
        );
    }
}
