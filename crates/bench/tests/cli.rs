//! `repro-tables` refuses arguments it does not know: a misspelled or
//! removed flag must fail loudly instead of becoming a table selector
//! that runs nothing and exits 0.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro-tables"))
        .args(args)
        .output()
        .expect("spawn repro-tables")
}

#[test]
fn unknown_arguments_exit_2_with_usage() {
    for bad in [
        &["--tabel2"][..],
        &["--summary"],
        &["table2", "--bogus"],
        &["--profile-gate"],
    ] {
        let out = run(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?} must be refused");
        assert!(out.stdout.is_empty(), "{bad:?} ran something");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: repro-tables"), "{bad:?}: {err}");
    }
}
