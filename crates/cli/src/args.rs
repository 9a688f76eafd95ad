//! Minimal `--key value` argument parsing (no external dependencies), plus
//! the algorithm × device matrix selection shared by the matrix-shaped
//! subcommands (`trace`, `lint`, `chaos`, `profile`).

use std::collections::BTreeMap;

use snp_gpu_model::config::Algorithm;
use snp_gpu_model::{devices, DeviceSpec};

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (first non-flag token).
    pub command: Option<String>,
    /// An optional second bare token (e.g. `lint ld`); a third still errors.
    pub positional: Option<String>,
    options: BTreeMap<String, String>,
}

/// Argument errors, with a message suitable for direct printing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

/// Option names that are boolean flags: they take no value token
/// (`snpgpu lint all --deep`, `snpgpu loadgen --admission`) and parse as
/// `"true"`.
const FLAG_KEYS: &[&str] = &["deep", "admission", "anatomy"];

impl Args {
    /// Parses a token stream: `command --key value --key2 value2 …`.
    /// Names in `FLAG_KEYS` are value-less boolean flags.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut it = tokens.into_iter().peekable();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if key.is_empty() {
                    return Err(ArgError("empty option name `--`".into()));
                }
                let value = if FLAG_KEYS.contains(&key) {
                    "true".to_string()
                } else {
                    it.next()
                        .ok_or_else(|| ArgError(format!("option --{key} is missing its value")))?
                };
                if args.options.insert(key.to_string(), value).is_some() {
                    return Err(ArgError(format!("option --{key} given twice")));
                }
            } else if args.command.is_none() {
                args.command = Some(tok);
            } else if args.positional.is_none() {
                args.positional = Some(tok);
            } else {
                return Err(ArgError(format!("unexpected positional argument {tok:?}")));
            }
        }
        Ok(args)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether a boolean flag (a `FLAG_KEYS` name) was given.
    pub fn flag(&self, key: &str) -> bool {
        self.get(key) == Some("true")
    }

    /// A string option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A parsed numeric option with a default.
    pub fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("option --{key}: cannot parse {v:?}"))),
        }
    }

    /// A size option (a count of SNPs, samples, profiles, queries, …) with a
    /// default. Zero is rejected here, once for every command, because no
    /// workload generator or tiler accepts an empty dimension.
    pub fn get_size(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        match self.get_parse(key, default)? {
            0 => Err(ArgError(format!("--{key} must be at least 1"))),
            n => Ok(n),
        }
    }

    /// Errors on unknown option names (catches typos).
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for key in self.options.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(ArgError(format!(
                    "unknown option --{key} (expected one of: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }
}

/// Expands an algorithm selection token — `ld`, `fastid` (alias `search`),
/// `mixture`, or `all` — into the algorithms it names, in matrix order.
pub fn algorithm_selection(sel: &str) -> Result<Vec<Algorithm>, ArgError> {
    Ok(match sel {
        "ld" => vec![Algorithm::LinkageDisequilibrium],
        "fastid" | "search" => vec![Algorithm::IdentitySearch],
        "mixture" => vec![Algorithm::MixtureAnalysis],
        "all" => vec![
            Algorithm::LinkageDisequilibrium,
            Algorithm::IdentitySearch,
            Algorithm::MixtureAnalysis,
        ],
        other => {
            return Err(ArgError(format!(
                "unknown algorithm selection {other:?} (ld|fastid|mixture|all)"
            )))
        }
    })
}

/// Expands a device selection token — `all` or one device name — into GPU
/// specs, rejecting names that resolve to non-GPU devices.
pub fn device_selection(sel: &str) -> Result<Vec<DeviceSpec>, ArgError> {
    match sel {
        "all" => Ok(devices::all_gpus()),
        name => Ok(vec![devices::by_name(name)
            .filter(|d| d.shared_mem_bytes > 0)
            .ok_or_else(|| {
                ArgError(format!("unknown GPU device {name:?} (try: snpgpu devices)"))
            })?]),
    }
}

/// The short stable algorithm label used in selections, reports, and JSON
/// (`ld`, `fastid`, `mixture`).
pub fn algorithm_slug(alg: Algorithm) -> &'static str {
    match alg {
        Algorithm::LinkageDisequilibrium => "ld",
        Algorithm::IdentitySearch => "fastid",
        Algorithm::MixtureAnalysis => "mixture",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn algorithm_selection_expands_matrix_axis() {
        assert_eq!(
            algorithm_selection("ld").unwrap(),
            vec![Algorithm::LinkageDisequilibrium]
        );
        assert_eq!(
            algorithm_selection("search").unwrap(),
            algorithm_selection("fastid").unwrap()
        );
        let all = algorithm_selection("all").unwrap();
        assert_eq!(all.len(), 3);
        assert!(algorithm_selection("bogus").is_err());
        for alg in all {
            assert_eq!(algorithm_selection(algorithm_slug(alg)).unwrap(), vec![alg]);
        }
    }

    #[test]
    fn device_selection_expands_gpus_only() {
        let all = device_selection("all").unwrap();
        assert_eq!(all.len(), 4, "matrix is 3 algorithms x 4 devices");
        assert!(all.iter().any(|d| d.name == "TC100"));
        assert!(all.iter().all(|d| d.shared_mem_bytes > 0));
        let one = device_selection("Titan V").unwrap();
        assert_eq!(one.len(), 1);
        let tc = device_selection("tc100").unwrap();
        assert_eq!(tc[0].name, "TC100");
        assert!(device_selection("Xeon E5-2620 v2").is_err(), "CPU rejected");
        assert!(device_selection("nope").is_err());
    }

    #[test]
    fn parses_command_and_options() {
        let a = Args::parse(toks("ld --snps 100 --device Titan")).unwrap();
        assert_eq!(a.command.as_deref(), Some("ld"));
        assert_eq!(a.get("snps"), Some("100"));
        assert_eq!(a.get_or("device", "x"), "Titan");
        assert_eq!(a.get_or("missing", "dflt"), "dflt");
    }

    #[test]
    fn numeric_parsing_with_default() {
        let a = Args::parse(toks("ld --snps 100")).unwrap();
        assert_eq!(a.get_parse("snps", 5usize).unwrap(), 100);
        assert_eq!(a.get_parse("samples", 64usize).unwrap(), 64);
        let bad = Args::parse(toks("ld --snps abc")).unwrap();
        assert!(bad.get_parse("snps", 0usize).is_err());
    }

    #[test]
    fn second_bare_token_is_positional() {
        let a = Args::parse(toks("lint ld --device all")).unwrap();
        assert_eq!(a.command.as_deref(), Some("lint"));
        assert_eq!(a.positional.as_deref(), Some("ld"));
        assert_eq!(a.get("device"), Some("all"));
        let none = Args::parse(toks("lint --device all")).unwrap();
        assert_eq!(none.positional, None);
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = Args::parse(toks("lint all --deep --device all")).unwrap();
        assert!(a.flag("deep"));
        assert_eq!(a.get("device"), Some("all"));
        let b = Args::parse(toks("lint all --device all")).unwrap();
        assert!(!b.flag("deep"));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(Args::parse(toks("ld --snps")).is_err(), "missing value");
        assert!(Args::parse(toks("ld x y")).is_err(), "extra positional");
        assert!(
            Args::parse(toks("ld --snps 1 --snps 2")).is_err(),
            "duplicate"
        );
        assert!(Args::parse(toks("ld -- 1")).is_err(), "empty name");
    }

    #[test]
    fn unknown_options_detected() {
        let a = Args::parse(toks("ld --snsp 100")).unwrap();
        let err = a.expect_only(&["snps", "device"]).unwrap_err();
        assert!(err.to_string().contains("--snsp"));
        let ok = Args::parse(toks("ld --snps 100")).unwrap();
        assert!(ok.expect_only(&["snps"]).is_ok());
    }

    #[test]
    fn empty_input_is_empty_command() {
        let a = Args::parse(Vec::new()).unwrap();
        assert_eq!(a.command, None);
    }
}
