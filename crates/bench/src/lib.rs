//! # golf-bench
//!
//! Experiment drivers. Each `src/bin/*` binary regenerates one table or
//! figure of the paper (see DESIGN.md §4 for the index); `benches/` holds
//! Criterion microbenchmarks of the collector and runtime substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::str::FromStr;

/// Parses `--key value` style arguments from `std::env::args`.
///
/// # Example
///
/// ```
/// let args = vec!["prog".to_string(), "--runs".to_string(), "5".to_string()];
/// assert_eq!(golf_bench::arg_value(&args, "--runs"), Some("5".to_string()));
/// assert_eq!(golf_bench::arg_value(&args, "--procs"), None);
/// ```
pub fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1).cloned())
}

/// Parses the value of `--key`, if the flag is present. A value that does
/// not parse is an error, never a silent fall-back to the default.
///
/// # Example
///
/// ```
/// let args: Vec<String> = ["prog", "--seed", "42"].map(String::from).to_vec();
/// assert_eq!(golf_bench::parse_arg::<u64>(&args, "--seed"), Ok(Some(42)));
/// assert_eq!(golf_bench::parse_arg::<u64>(&args, "--repeats"), Ok(None));
/// ```
pub fn parse_arg<T: FromStr>(args: &[String], key: &str) -> Result<Option<T>, String> {
    arg_value(args, key)
        .map(|v| v.trim().parse().map_err(|_| format!("{key}: invalid value {v:?}")))
        .transpose()
}

/// Parses a comma-separated list of integers (e.g. `--procs 1,2,4,10`).
/// Any malformed entry makes the whole list an error.
///
/// # Example
///
/// ```
/// assert_eq!(golf_bench::parse_list("1,2,4"), Ok(vec![1, 2, 4]));
/// assert!(golf_bench::parse_list("1,x").is_err());
/// ```
pub fn parse_list(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|x| x.trim().parse().map_err(|_| format!("invalid list entry {x:?} in {s:?}")))
        .collect()
}

/// Checks that every argument after the program name is a known flag:
/// one of `valued` followed by its value, or one of `switches`. Returns the
/// first unknown flag or missing value as an error.
///
/// # Example
///
/// ```
/// let args: Vec<String> = ["prog", "--seed", "1", "--quick"].map(String::from).to_vec();
/// assert!(golf_bench::check_flags(&args, &["--seed"], &["--quick"]).is_ok());
/// assert!(golf_bench::check_flags(&args, &["--seed"], &[]).is_err());
/// ```
pub fn check_flags(args: &[String], valued: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut rest = args.iter().skip(1);
    while let Some(arg) = rest.next() {
        if valued.contains(&arg.as_str()) {
            if rest.next().is_none() {
                return Err(format!("{arg} needs a value"));
            }
        } else if !switches.contains(&arg.as_str()) {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    Ok(())
}

/// Unwraps `result`, or prints its error and `usage` to stderr and exits
/// with status 2.
pub fn or_usage<T>(result: Result<T, String>, usage: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{usage}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        std::iter::once("prog").chain(list.iter().copied()).map(String::from).collect()
    }

    #[test]
    fn parse_list_rejects_any_malformed_entry() {
        assert_eq!(parse_list("1, 2,10"), Ok(vec![1, 2, 10]));
        assert!(parse_list("1,x").is_err(), "a bad entry must not be dropped");
        assert!(parse_list("x").is_err(), "a list with no valid entry is an error");
        assert!(parse_list("").is_err());
        assert!(parse_list("1,,2").is_err());
        assert!(parse_list("-1").is_err());
    }

    #[test]
    fn parse_arg_rejects_unparsable_values() {
        let args = argv(&["--repeats", "ten", "--seed", "7"]);
        assert!(parse_arg::<u32>(&args, "--repeats").is_err());
        assert_eq!(parse_arg::<u64>(&args, "--seed"), Ok(Some(7)));
        assert_eq!(parse_arg::<u64>(&args, "--runs"), Ok(None));
        assert!(parse_arg::<u64>(&argv(&["--seed", "-3"]), "--seed").is_err());
    }

    #[test]
    fn check_flags_rejects_unknown_flags_and_missing_values() {
        let valued = ["--seed", "--procs"];
        let switches = ["--full-gc"];
        assert!(check_flags(&argv(&[]), &valued, &switches).is_ok());
        assert!(check_flags(&argv(&["--seed", "1", "--full-gc"]), &valued, &switches).is_ok());
        let err = check_flags(&argv(&["--mark-workers", "4"]), &valued, &switches).unwrap_err();
        assert!(err.contains("--mark-workers"), "{err}");
        assert!(check_flags(&argv(&["--procs"]), &valued, &switches).is_err());
        assert!(check_flags(&argv(&["stray"]), &valued, &switches).is_err());
        // A value is consumed as a value even when it looks like a flag.
        assert!(check_flags(&argv(&["--seed", "--full-gc"]), &valued, &switches).is_ok());
    }
}
