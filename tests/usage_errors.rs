//! Blackbox exit-code audit for argument validation, driven through the
//! real `sper` binary: a value the CLI cannot use is a usage error (exit
//! 2, usage text on stderr), never a panic (exit 101).

use std::process::Command;

fn sper() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sper"))
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
