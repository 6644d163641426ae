//! Keeps the panic-free promises honest inside plain `cargo test`: the
//! remote `/proc` wire layer promises never to panic on damaged input,
//! the controllers (PR 4) promise never to panic on a dying, starved
//! or racing target, the execution fast path (PR 5) plus the
//! kernel beneath it (PR 6) run under every guest instruction, where a
//! stray unwrap would take the whole simulated machine down, and the
//! `/proc` layer itself (PR 8) decodes controller-supplied ioctl
//! arguments and recorded inputs — hostile bytes by construction. All
//! are held to `clippy -D warnings`
//! (their sources additionally carry
//! `#![deny(clippy::unwrap_used, clippy::expect_used)]`).
//! `formatting_is_clean` holds the workspace to `rustfmt.toml`'s style.
//! Each gate skips cleanly when the toolchain lacks its component.

use std::process::Command;

/// True when the toolchain has the `cargo <tool>` component to run.
fn have(tool: &str) -> bool {
    matches!(
        Command::new("cargo").args([tool, "--version"]).output(),
        Ok(out) if out.status.success()
    )
}

/// Runs `cargo clippy -p <package> --all-targets -- -D warnings
/// -D deprecated`.
fn clippy_clean(package: &str) {
    if !have("clippy") {
        eprintln!("skipping: cargo clippy is not installed");
        return;
    }
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let out = Command::new("cargo")
        .args([
            "clippy",
            "--manifest-path",
            manifest,
            "-p",
            package,
            "--all-targets",
            "--",
            "-D",
            "warnings",
            // The mid-run knob shims are gone; nothing may grow back on
            // a deprecated surface without failing the gate.
            "-D",
            "deprecated",
        ])
        .output()
        .expect("run cargo clippy");
    assert!(
        out.status.success(),
        "clippy found warnings in {package}:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn wire_layer_is_clippy_clean() {
    clippy_clean("procsim-vfs");
}

#[test]
fn controllers_are_clippy_clean() {
    clippy_clean("procsim-tools");
}

#[test]
fn address_translation_is_clippy_clean() {
    clippy_clean("procsim-vm");
}

#[test]
fn fetch_decode_is_clippy_clean() {
    clippy_clean("procsim-isa");
}

#[test]
fn kernel_is_clippy_clean() {
    clippy_clean("procsim-ksim");
}

#[test]
fn proc_layer_is_clippy_clean() {
    clippy_clean("procsim-core");
}

#[test]
fn bench_harness_is_clippy_clean() {
    clippy_clean("procsim-bench");
}

#[test]
fn umbrella_is_clippy_clean() {
    clippy_clean("procsim");
}

/// The workspace keeps the one style `rustfmt.toml` sets; `cargo fmt
/// --all` fixes a failure. (`procbench/` is its own workspace and is
/// not reached.)
#[test]
fn formatting_is_clean() {
    if !have("fmt") {
        eprintln!("skipping: cargo fmt is not installed");
        return;
    }
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let out = Command::new("cargo")
        .args(["fmt", "--all", "--manifest-path", manifest, "--", "--check"])
        .output()
        .expect("run cargo fmt");
    assert!(
        out.status.success(),
        "cargo fmt found drift; run `cargo fmt --all`:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
