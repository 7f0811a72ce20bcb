//! Command-line parsing shared by the `compc-check` and `compc-serve`
//! binaries, so a check flag means the same thing in both.

use compc_core::{Backend, CheckOptions};
use std::time::Duration;

/// Parses `args[*i]` if it is one of the check flags both binaries accept —
/// `--backend B`, `--deadline-ms N` or `--oracle` — into
/// `options`, advancing `*i` past the flag and its value.
///
/// Returns `Ok(false)`, leaving `*i` alone, when `args[*i]` is no check
/// flag, and the complaint to print before the usage line when the value
/// is missing or malformed.
pub fn parse_check_flag(
    args: &[String],
    i: &mut usize,
    options: &mut CheckOptions,
) -> Result<bool, String> {
    let flag = args[*i].as_str();
    if flag == "--oracle" {
        options.oracle = true;
        *i += 1;
        return Ok(true);
    }
    if !matches!(flag, "--backend" | "--deadline-ms") {
        return Ok(false);
    }
    *i += 1;
    let value = args.get(*i).map(String::as_str);
    let got = value.unwrap_or("nothing");
    if flag == "--backend" {
        options.backend = value.and_then(Backend::parse).ok_or_else(|| {
            format!("--backend needs auto, dense, sparse, or compressed, got {got}")
        })?;
    } else {
        let ms = value
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("--deadline-ms needs a number of milliseconds, got {got}"))?;
        options.deadline = Some(Duration::from_millis(ms));
    }
    *i += 1;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CheckOptions, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let mut options = CheckOptions::new();
        let mut i = 0;
        while i < args.len() {
            if !parse_check_flag(&args, &mut i, &mut options)? {
                return Err(format!("not a check flag: {}", args[i]));
            }
        }
        Ok(options)
    }

    #[test]
    fn check_flags_build_the_options() {
        let options = parse(&["--backend", "dense", "--deadline-ms", "250", "--oracle"]).unwrap();
        let want = CheckOptions::new()
            .backend(Backend::Dense)
            .deadline(Duration::from_millis(250))
            .oracle(true);
        assert_eq!(options, want);
        assert_eq!(parse(&[]).unwrap(), CheckOptions::new());
    }

    #[test]
    fn bad_values_name_the_flag_and_what_it_got() {
        for (args, complaint) in [
            (
                &["--backend", "fast"][..],
                "--backend needs auto, dense, sparse, or compressed, got fast",
            ),
            (
                &["--deadline-ms"],
                "--deadline-ms needs a number of milliseconds, got nothing",
            ),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(complaint), "{args:?}: {err}");
        }
        for flag in ["--trace", "--jobs"] {
            assert!(parse(&[flag]).unwrap_err().contains("not a check flag"));
        }
    }
}
