//! Blackbox exit-code audit for argument and input validation, driven
//! through the real `sper` binary: a value the CLI cannot use is a usage
//! error (exit 2, usage text on stderr), input it cannot read is a typed
//! runtime error (exit 1), and neither is ever a panic (exit 101).

use std::path::PathBuf;
use std::process::Command;

fn sper() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sper"))
}

/// Writes `text` to a fresh per-test, per-process file.
fn write_csv(name: &str, text: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sper-usage-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("profiles.csv");
    std::fs::write(&path, text).expect("write CSV");
    path
}

/// `--scale` must be a positive finite number, on every subcommand that
/// generates a twin.
#[test]
fn non_positive_or_non_finite_scale_is_a_usage_error() {
    for scale in ["0", "-1", "nan", "inf"] {
        for args in [
            &["generate", "census"][..],
            &["stream", "census", "--batches", "2"][..],
            &["snapshot", "census"][..],
        ] {
            let out = sper()
                .args(args)
                .args(["--scale", scale])
                .output()
                .expect("spawn sper");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(
                out.status.code(),
                Some(2),
                "{args:?} --scale {scale}: {stderr}"
            );
            assert!(
                stderr.contains("--scale"),
                "{args:?} --scale {scale} should name the flag: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{stderr}");
        }
    }
}

/// `--threshold` must be a finite number in [0, 1]: NaN used to filter out
/// every pair and exit 0.
#[test]
fn threshold_outside_the_unit_interval_is_a_usage_error() {
    let csv = write_csv("threshold", "name\nann lee\nann lee\nbob ray\n");
    for threshold in ["nan", "inf", "-0.1", "1.5"] {
        let out = sper()
            .arg("resolve")
            .arg(&csv)
            .args(["--method", "pps", "--threshold", threshold])
            .output()
            .expect("spawn sper");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--threshold {threshold}: {stderr}"
        );
        assert!(
            stderr.contains("--threshold"),
            "--threshold {threshold} should name the flag: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    // The bounds themselves are valid thresholds.
    for threshold in ["0", "1"] {
        let out = sper()
            .arg("resolve")
            .arg(&csv)
            .args(["--method", "pps", "--threshold", threshold])
            .output()
            .expect("spawn sper");
        assert_eq!(out.status.code(), Some(0), "--threshold {threshold}");
    }
}

/// End of file inside a quoted field is a typed data error (exit 1), not
/// a collection that silently folded the rest of the file into one field.
#[test]
fn unterminated_csv_quote_is_a_data_error() {
    let csv = write_csv("quote", "name,city\nann,ny\n\"bob,la\ncid,sf\ndee,dc\n");
    // `evaluate` also needs a truth file; the CSV fails to load first.
    for args in [
        &["resolve"][..],
        &["evaluate", csv.to_str().expect("UTF-8 path")][..],
    ] {
        let out = sper()
            .arg(args[0])
            .arg(&csv)
            .args(&args[1..])
            .args(["--method", "pps"])
            .output()
            .expect("spawn sper");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("unterminated quoted field"), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}
