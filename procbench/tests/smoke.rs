//! Smoke-size runs of every workload, untraced and traced: each must
//! print, as its last line, every metric `BENCHMARK.json` names with its
//! unit, and pass every output check.

use std::process::Command;

/// `(name, unit)` of every metric in the `key` array of BENCHMARK.json.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{key}\""))
        .expect("metric list present");
    let list = &text[start..start + text[start..].find(']').expect("list closes")];
    let field = |obj: &str, f: &str| {
        let at = obj.find(&format!("\"{f}\"")).expect("field present");
        let rest = &obj[at + f.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        rest[open..open + rest[open..].find('"').expect("value closes")].to_string()
    };
    list.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn run(workload: &str, trace: u8) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_procbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("run procbench");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    stdout.lines().last().expect("a result line").to_string()
}

fn check(workload: &str) {
    for (trace, key) in [(0, "end_to_end"), (1, "per_layer")] {
        let line = run(workload, trace);
        assert!(
            line.starts_with("{\"correct\": true,"),
            "{workload}: {line}"
        );
        assert!(line.contains("\"failed\": 0,"), "{workload}: {line}");
        for (name, unit) in declared(key) {
            let entry = format!("\"{name}\": {{\"value\": ");
            let at = line
                .find(&entry)
                .unwrap_or_else(|| panic!("{workload}: no {name}"));
            let end = at + line[at..].find('}').expect("entry closes");
            let unit_field = format!("\"unit\": \"{unit}\"");
            assert!(
                line[at..end].ends_with(&unit_field),
                "{workload}: {name} has no unit {unit}"
            );
        }
    }
}

#[test]
fn guest_farm_smoke() {
    check("guest-farm");
}

#[test]
fn sdb_session_smoke() {
    check("sdb-session");
}

#[test]
fn remote_console_smoke() {
    check("remote-console");
}
