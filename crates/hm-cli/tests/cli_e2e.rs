//! End-to-end process tests of the `hierminimax` binary: spawn the real
//! executable and assert on exit codes and output.

use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hierminimax"))
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = bin().arg("help").output().expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("hierminimax"));
}

#[test]
fn run_tiny_end_to_end() {
    let out = bin()
        .args([
            "run",
            "--scenario",
            "tiny",
            "--edges",
            "3",
            "--clients",
            "2",
            "--rounds",
            "5",
            "--m",
            "2",
            "--sequential",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("HierMinimax"), "{text}");
    assert!(text.contains("cloud rounds"), "{text}");
}

#[test]
fn unknown_subcommand_fails_with_usage() {
    let out = bin().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown subcommand"), "{err}");
}

#[test]
fn missing_args_fail_cleanly() {
    let out = bin().output().expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("missing subcommand"), "{err}");
}

#[test]
fn typo_flag_is_reported() {
    let out = bin()
        .args([
            "run",
            "--scenario",
            "tiny",
            "--edges",
            "3",
            "--clients",
            "2",
            "--ruonds",
            "5",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--ruonds"), "{err}");
}

#[test]
fn removed_engine_flag_is_unknown() {
    let out = bin()
        .args([
            "run",
            "--scenario",
            "tiny",
            "--edges",
            "3",
            "--clients",
            "2",
            "--rounds",
            "1",
            "--engine",
            "chained",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag(s): --engine"), "{err}");
}

#[test]
fn data_subcommand_reports_skew() {
    let out = bin()
        .args([
            "data",
            "--scenario",
            "tiny",
            "--edges",
            "3",
            "--clients",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("label skew"), "{text}");
}

#[test]
fn csv_history_is_written() {
    let dir = std::env::temp_dir().join(format!("hm-cli-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("hist.csv");
    let out = bin()
        .args([
            "run",
            "--scenario",
            "tiny",
            "--edges",
            "3",
            "--clients",
            "2",
            "--rounds",
            "4",
            "--m",
            "2",
            "--eval-every",
            "1",
            "--sequential",
            "--csv",
        ])
        .arg(&csv)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&csv).unwrap();
    assert!(body.starts_with("round,"), "{body}");
    assert!(body.lines().count() >= 5, "{body}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn telemetry_jsonl_written_and_validates() {
    let dir = std::env::temp_dir().join(format!("hm-cli-tel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("run.jsonl");
    let out = bin()
        .args([
            "run",
            "--scenario",
            "tiny",
            "--edges",
            "3",
            "--clients",
            "2",
            "--rounds",
            "4",
            "--m",
            "2",
            "--sequential",
            "--telemetry",
        ])
        .arg(&jsonl)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&jsonl).unwrap();
    assert!(body.starts_with("{\"ev\":\"run_start\""), "{body}");
    assert!(body.contains("\"ev\":\"dual_update\""), "{body}");
    assert_eq!(
        body.lines()
            .filter(|l| l.starts_with("{\"ev\":\"round_end\""))
            .count(),
        4,
        "{body}"
    );

    // The stream passes the CLI's own schema validator.
    let out = bin()
        .args(["validate-telemetry", "--file"])
        .arg(&jsonl)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("schema OK"), "{text}");
    assert!(text.contains("1 run(s)"), "{text}");

    // An unknown event kind is tolerated by default (forward-compatible:
    // new kinds are unsequenced observers) but rejected under --strict.
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, format!("{body}{{\"ev\":\"nonsense\"}}\n")).unwrap();
    let out = bin()
        .args(["validate-telemetry", "--file"])
        .arg(&bad)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("nonsense"), "{text}");
    let out = bin()
        .args(["validate-telemetry", "--strict", "--file"])
        .arg(&bad)
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line"), "{err}");

    // A malformed line (not even JSON) is rejected in both modes.
    let garbage = dir.join("garbage.jsonl");
    std::fs::write(&garbage, format!("{body}not json\n")).unwrap();
    let out = bin()
        .args(["validate-telemetry", "--file"])
        .arg(&garbage)
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("line"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A telemetry stream that cannot be written fails the command, naming
/// the path, instead of exiting 0 with a truncated file.
#[cfg(target_os = "linux")]
#[test]
fn unwritable_telemetry_fails_the_command() {
    for sub in ["run", "compare"] {
        let out = bin()
            .args([
                sub,
                "--scenario",
                "tiny",
                "--edges",
                "3",
                "--clients",
                "2",
                "--rounds",
                "2",
                "--m",
                "2",
                "--sequential",
                "--telemetry",
                "/dev/full",
            ])
            .output()
            .expect("spawn");
        assert!(!out.status.success(), "{sub}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--telemetry /dev/full: writing the stream failed"),
            "{sub}: {err}"
        );
    }
}

#[test]
fn profile_run_prints_table_and_report_renders_stream() {
    let dir = std::env::temp_dir().join(format!("hm-cli-prof-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("prof.jsonl");
    let out = bin()
        .args([
            "run",
            "--scenario",
            "tiny",
            "--edges",
            "3",
            "--clients",
            "2",
            "--rounds",
            "4",
            "--m",
            "2",
            "--seed",
            "11",
            "--sequential",
            "--profile",
            "--telemetry",
        ])
        .arg(&jsonl)
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("per-phase wall-clock profile:"), "{text}");
    for phase in ["round", "phase1_sampling", "local_sgd_chain", "dual_update"] {
        assert!(text.contains(phase), "missing {phase} row: {text}");
    }

    // The stream carries unsequenced span events and stays strict-valid.
    let body = std::fs::read_to_string(&jsonl).unwrap();
    assert!(body.contains("\"ev\":\"span\""), "{body}");
    assert!(body.contains("\"ev\":\"profile_summary\""), "{body}");
    let strict = bin()
        .args(["validate-telemetry", "--strict", "--file"])
        .arg(&jsonl)
        .output()
        .expect("spawn");
    assert!(
        strict.status.success(),
        "{}",
        String::from_utf8_lossy(&strict.stderr)
    );

    // `report` renders the same per-phase totals plus comm + sim/wall.
    let rep = bin()
        .args(["report", "--file"])
        .arg(&jsonl)
        .output()
        .expect("spawn");
    assert!(
        rep.status.success(),
        "{}",
        String::from_utf8_lossy(&rep.stderr)
    );
    let rep = String::from_utf8_lossy(&rep.stdout);
    assert!(rep.contains("run: HierMinimax"), "{rep}");
    assert!(rep.contains("4 round(s) recorded"), "{rep}");
    assert!(rep.contains("per-phase wall-clock profile:"), "{rep}");
    assert!(rep.contains("local_sgd_chain"), "{rep}");
    assert!(rep.contains("client-edge"), "{rep}");
    assert!(rep.contains("no injected faults"), "{rep}");
    assert!(rep.contains("simulated (latency model)"), "{rep}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn report_renders_spliced_resumed_stream() {
    // Crash/resume e2e for the report: a profiled run checkpointed every
    // round, "killed" after round 2, resumed profiled; the spliced stream
    // (writer prefix cut at the checkpoint + resumed suffix) must render
    // with full round coverage and a re-aggregated phase table.
    let dir = std::env::temp_dir().join(format!("hm-cli-prof-splice-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("snaps");
    let w_jsonl = dir.join("writer.jsonl");
    let r_jsonl = dir.join("resumed.jsonl");
    let base = [
        "run",
        "--scenario",
        "tiny",
        "--edges",
        "3",
        "--clients",
        "2",
        "--rounds",
        "4",
        "--m",
        "2",
        "--seed",
        "11",
        "--sequential",
        "--profile",
    ];

    let writer = bin()
        .args(base)
        .args(["--checkpoint-dir"])
        .arg(&ckpt)
        .args(["--checkpoint-every", "1", "--telemetry"])
        .arg(&w_jsonl)
        .output()
        .expect("spawn");
    assert!(
        writer.status.success(),
        "{}",
        String::from_utf8_lossy(&writer.stderr)
    );

    let snap = ckpt.join("hierminimax-round-000002.hmck");
    assert!(snap.exists(), "missing {}", snap.display());
    let resumed = bin()
        .args(base)
        .args(["--resume"])
        .arg(&snap)
        .args(["--telemetry"])
        .arg(&r_jsonl)
        .output()
        .expect("spawn");
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );

    // Splice: writer prefix through its round-1 (0-based) checkpoint event,
    // then the resumed stream (which opens with its run_resume preamble).
    let w_body = std::fs::read_to_string(&w_jsonl).unwrap();
    let cut = w_body
        .lines()
        .position(|l| l.starts_with("{\"ev\":\"checkpoint\",\"round\":1,"))
        .expect("writer stream lacks the round-1 checkpoint event");
    let mut spliced: Vec<&str> = w_body.lines().take(cut + 1).collect();
    let r_body = std::fs::read_to_string(&r_jsonl).unwrap();
    spliced.extend(r_body.lines());
    let s_jsonl = dir.join("spliced.jsonl");
    std::fs::write(&s_jsonl, spliced.join("\n") + "\n").unwrap();

    let rep = bin()
        .args(["report", "--file"])
        .arg(&s_jsonl)
        .output()
        .expect("spawn");
    assert!(
        rep.status.success(),
        "{}",
        String::from_utf8_lossy(&rep.stderr)
    );
    let rep = String::from_utf8_lossy(&rep.stdout);
    assert!(rep.contains("1 resume splice(s)"), "{rep}");
    assert!(rep.contains("4 round(s) recorded"), "{rep}");
    // The phase table is re-aggregated from raw spans, so it covers all 4
    // rounds even though the stream's profile_summary event only spans the
    // resumed suffix.
    let round_row = rep
        .lines()
        .find(|l| l.starts_with("round "))
        .unwrap_or_else(|| panic!("no round row: {rep}"));
    assert_eq!(
        round_row.split_whitespace().nth(1),
        Some("4"),
        "spliced round span count: {round_row}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fault_plan_run_reports_faults_and_is_deterministic() {
    let run = || {
        bin()
            .args([
                "run",
                "--scenario",
                "tiny",
                "--edges",
                "3",
                "--clients",
                "2",
                "--rounds",
                "6",
                "--m",
                "2",
                "--fault-plan",
                "chaos",
                "--seed",
                "11",
                "--sequential",
            ])
            .output()
            .expect("spawn")
    };
    let a = run();
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("injected faults:"), "{text}");
    // Same seed, same plan: byte-identical report (keyed fault streams).
    let b = run();
    assert_eq!(a.stdout, b.stdout);
}

#[test]
fn fault_flags_override_preset() {
    // `none` preset plus one knob: only outages fire, and the report says
    // so without any crash or retry counts.
    let out = bin()
        .args([
            "run",
            "--scenario",
            "tiny",
            "--edges",
            "3",
            "--clients",
            "2",
            "--rounds",
            "6",
            "--m",
            "2",
            "--edge-outage",
            "0.5",
            "--seed",
            "3",
            "--sequential",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("injected faults: 0 crashes"), "{text}");
    assert!(!text.contains(" 0 outages"), "{text}");
}

#[test]
fn unknown_fault_plan_is_rejected() {
    let out = bin()
        .args([
            "run",
            "--scenario",
            "tiny",
            "--edges",
            "3",
            "--clients",
            "2",
            "--fault-plan",
            "mayhem",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--fault-plan") && err.contains("chaos"),
        "{err}"
    );
}

#[test]
fn invalid_fault_rate_is_rejected() {
    let out = bin()
        .args([
            "run",
            "--scenario",
            "tiny",
            "--edges",
            "3",
            "--clients",
            "2",
            "--msg-loss",
            "1.5",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("fault plan"), "{err}");
}

#[test]
fn checkpoint_then_resume_reproduces_uninterrupted_run() {
    let dir = std::env::temp_dir().join(format!("hm-cli-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("snaps");
    let base = [
        "run",
        "--scenario",
        "tiny",
        "--edges",
        "3",
        "--clients",
        "2",
        "--rounds",
        "6",
        "--m",
        "2",
        "--seed",
        "11",
        "--eval-every",
        "2",
        "--sequential",
    ];

    let full = bin().args(base).output().expect("spawn");
    assert!(
        full.status.success(),
        "{}",
        String::from_utf8_lossy(&full.stderr)
    );

    // Same run, writing a snapshot every 2 cloud rounds. Checkpointing
    // must not perturb the results.
    let written = bin()
        .args(base)
        .args(["--checkpoint-dir"])
        .arg(&ckpt)
        .args(["--checkpoint-every", "2"])
        .output()
        .expect("spawn");
    assert!(
        written.status.success(),
        "{}",
        String::from_utf8_lossy(&written.stderr)
    );
    assert_eq!(full.stdout, written.stdout);

    // "Crash" after round 4 and resume from its snapshot: bit-identical
    // final report.
    let snap = ckpt.join("hierminimax-round-000004.hmck");
    assert!(snap.exists(), "missing {}", snap.display());
    let resumed = bin()
        .args(base)
        .args(["--resume"])
        .arg(&snap)
        .output()
        .expect("spawn");
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(full.stdout, resumed.stdout);

    // A mismatched run identity is a clean typed error, not a panic.
    let wrong_seed = bin()
        .args([
            "run",
            "--scenario",
            "tiny",
            "--edges",
            "3",
            "--clients",
            "2",
            "--rounds",
            "6",
            "--m",
            "2",
            "--seed",
            "12",
            "--eval-every",
            "2",
            "--sequential",
            "--resume",
        ])
        .arg(&snap)
        .output()
        .expect("spawn");
    assert!(!wrong_seed.status.success());
    let err = String::from_utf8_lossy(&wrong_seed.stderr);
    assert!(err.contains("seed"), "{err}");

    // Corruption is caught by the CRC before anything runs.
    let bad = dir.join("bad.hmck");
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&bad, &bytes).unwrap();
    let corrupt = bin()
        .args(base)
        .args(["--resume"])
        .arg(&bad)
        .output()
        .expect("spawn");
    assert!(!corrupt.status.success());
    let err = String::from_utf8_lossy(&corrupt.stderr);
    assert!(err.contains("checksum") || err.contains("CRC"), "{err}");

    std::fs::remove_dir_all(&dir).unwrap();
}

// ---- Golden snapshots -----------------------------------------------------
//
// Byte-exact captures of user-facing output, committed under
// `tests/golden/`. Unlike the substring assertions above, these fail on
// *any* drift — wording, column widths, flag renames — so UI changes are
// always deliberate: regenerate with
// `hierminimax help > tests/golden/help.txt` (etc.) and review the diff.

fn golden(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn help_matches_golden_snapshot() {
    let out = bin().arg("help").output().expect("spawn");
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden("help.txt"));
}

#[test]
fn data_tiny_matches_golden_snapshot() {
    // Deterministic: the tiny scenario is fully determined by
    // (edges, clients, data seed), and `data` runs no training.
    let out = bin()
        .args([
            "data",
            "--scenario",
            "tiny",
            "--edges",
            "3",
            "--clients",
            "2",
        ])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden("data_tiny_3x2.txt")
    );
}

#[test]
fn compare_extended_matches_golden_snapshot() {
    // All eight methods at the matched budget, one row each; the rows are
    // the same on both executors.
    let out = bin()
        .args(["compare", "--extended", "--scenario", "emnist"])
        .args(["--edges", "4", "--clients", "3"])
        .args(["--train-per-client", "10", "--test-per-edge", "20"])
        .args(["--rounds", "20", "--m", "2", "--seed", "5"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        golden("compare_extended_emnist_4x3.txt")
    );
}

#[test]
fn churn_plan_run_reports_membership_and_is_deterministic() {
    let run = || {
        bin()
            .args([
                "run",
                "--scenario",
                "tiny",
                "--edges",
                "4",
                "--clients",
                "2",
                "--rounds",
                "8",
                "--m",
                "2",
                "--churn-plan",
                "chaos-churn",
                "--seed",
                "11",
                "--sequential",
            ])
            .output()
            .expect("spawn")
    };
    let a = run();
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    let text = String::from_utf8_lossy(&a.stdout);
    assert!(text.contains("membership churn:"), "{text}");
    assert!(text.contains("re-homed"), "{text}");
    // Same seed, same plan: byte-identical report (keyed churn streams).
    let b = run();
    assert_eq!(a.stdout, b.stdout);
}

#[test]
fn churn_flags_override_preset() {
    // `none` preset plus one knob: only joins fire, and the report line
    // appears with zero leaves and failures.
    let out = bin()
        .args([
            "run",
            "--scenario",
            "tiny",
            "--edges",
            "3",
            "--clients",
            "2",
            "--rounds",
            "8",
            "--m",
            "2",
            "--join-rate",
            "0.5",
            "--seed",
            "3",
            "--sequential",
        ])
        .output()
        .expect("spawn");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("membership churn:"), "{text}");
    assert!(text.contains("0 left, 0 edge failures"), "{text}");
}

#[test]
fn unknown_churn_plan_is_rejected() {
    let out = bin()
        .args([
            "run",
            "--scenario",
            "tiny",
            "--edges",
            "3",
            "--clients",
            "2",
            "--churn-plan",
            "mayhem",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--churn-plan") && err.contains("chaos-churn"),
        "{err}"
    );
}

#[test]
fn options_a_method_ignores_are_refused() {
    // Each option is refused, by name, for a method that would ignore it.
    let hier = "hierminimax|hierfavg";
    let quarantine = "hierminimax|hierfavg|fedavg|fedprox|afl|drfa|qffl";
    let aggregator = "hierminimax|hierfavg|fedavg|fedprox|afl|drfa|multilevel";
    let cases: [(&str, [&str; 2], &str); 6] = [
        ("qffl", ["--aggregator", "trimmed-mean"], aggregator),
        ("fedprox", ["--quant-bits", "4"], hier),
        ("fedavg", ["--churn-plan", "mild"], hier),
        ("multilevel", ["--quant-bits", "4"], hier),
        ("multilevel", ["--quarantine-z", "2.0"], quarantine),
        ("multilevel", ["--churn-plan", "mild"], hier),
    ];
    for (method, flag, methods) in cases {
        let out = bin()
            .args([
                "run",
                "--scenario",
                "tiny",
                "--edges",
                "4",
                "--clients",
                "2",
            ])
            .args(["--rounds", "1", "--method", method])
            .args(flag)
            .output()
            .expect("spawn");
        assert!(!out.status.success(), "{method} {flag:?} was accepted");
        let err = String::from_utf8_lossy(&out.stderr);
        let want = format!("{} requires --method {methods}", flag[0]);
        assert!(err.contains(&want), "{method} {flag:?}: {err}");
    }
}

#[test]
fn flat_baselines_honour_the_fault_plan() {
    // The two-layer baselines run on the shared round driver, so the
    // fault plan reaches them and the report counts what it injected.
    for method in ["fedavg", "afl", "drfa"] {
        let out = bin()
            .args([
                "run",
                "--scenario",
                "tiny",
                "--edges",
                "4",
                "--clients",
                "2",
            ])
            .args(["--rounds", "10", "--m", "2", "--method", method])
            .args(["--fault-plan", "chaos"])
            .output()
            .expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(0),
            "{method}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("injected faults:"), "{method}: {text}");
    }
}

#[test]
fn compare_refuses_an_ignored_option_before_the_first_run() {
    // `compare` checks every method it will run, the `--extended` ones
    // included, before it trains any of them.
    for (extra, flag, method) in [
        (None, "--churn-plan", "fedavg"),
        (Some("--extended"), "--quarantine-z", "multilevel"),
    ] {
        let value = if flag == "--churn-plan" { "mild" } else { "2" };
        let out = bin()
            .args([
                "compare",
                "--scenario",
                "tiny",
                "--edges",
                "4",
                "--clients",
                "2",
            ])
            .args(["--rounds", "2", flag, value])
            .args(extra)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{flag} requires --method"))
                && err.contains(&format!("(got {method:?})")),
            "{flag}: {err}"
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(!text.contains("cloud rounds"), "{flag}: {text}");
    }
}

#[test]
fn zero_loss_batch_is_refused_before_round_zero() {
    // Every method that estimates losses names the parameter, and no
    // round runs.
    for method in ["hierminimax", "multilevel", "afl", "drfa", "qffl"] {
        let out = bin()
            .args([
                "run",
                "--scenario",
                "tiny",
                "--edges",
                "4",
                "--clients",
                "2",
            ])
            .args(["--rounds", "2", "--method", method, "--loss-batch", "0"])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{method}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("loss_batch must be positive"),
            "{method}: {err}"
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(!text.contains("cloud rounds"), "{method}: {text}");
    }
}

#[test]
fn zero_batch_is_refused_before_the_problem_line() {
    // A method's constructor checks the batch size, so the run fails before
    // it prints its problem line; fedavg is the control.
    for method in ["fedavg", "qffl"] {
        let out = bin()
            .args([
                "run",
                "--scenario",
                "tiny",
                "--edges",
                "4",
                "--clients",
                "2",
            ])
            .args(["--rounds", "3", "--method", method, "--batch", "0"])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{method}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("batch_size > 0"), "{method}: {err}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(!text.contains("problem:"), "{method}: {text}");
    }
}

#[test]
fn flat_baselines_write_valid_streams() {
    // FedProx and q-FedAvg run on the shared round driver, so their streams
    // pass the strict validator and render in `report`.
    let dir = std::env::temp_dir().join(format!("hm-cli-flat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (method, name) in [("fedprox", "FedProx"), ("qffl", "q-FedAvg")] {
        let jsonl = dir.join(format!("{method}.jsonl"));
        let out = bin()
            .args([
                "run",
                "--scenario",
                "tiny",
                "--edges",
                "4",
                "--clients",
                "2",
            ])
            .args(["--rounds", "6", "--m", "2", "--seed", "11", "--sequential"])
            .args(["--method", method, "--telemetry"])
            .arg(&jsonl)
            .output()
            .expect("spawn");
        assert!(
            out.status.success(),
            "{method}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let strict = bin()
            .args(["validate-telemetry", "--strict", "--file"])
            .arg(&jsonl)
            .output()
            .expect("spawn");
        assert!(
            strict.status.success(),
            "{method}: {}",
            String::from_utf8_lossy(&strict.stderr)
        );
        let rep = bin()
            .args(["report", "--file"])
            .arg(&jsonl)
            .output()
            .expect("spawn");
        assert!(
            rep.status.success(),
            "{method}: {}",
            String::from_utf8_lossy(&rep.stderr)
        );
        let rep = String::from_utf8_lossy(&rep.stdout);
        assert!(rep.contains(&format!("run: {name}")), "{rep}");
        assert!(rep.contains("6 round(s) recorded"), "{rep}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn max_stale_rounds_aborts_with_error() {
    // A total blackout (100% edge outages) never delivers a report; with
    // the cap set the run must abort with the typed stale-rounds error.
    let out = bin()
        .args([
            "run",
            "--scenario",
            "tiny",
            "--edges",
            "3",
            "--clients",
            "2",
            "--rounds",
            "8",
            "--m",
            "2",
            "--edge-outage",
            "1.0",
            "--max-stale-rounds",
            "2",
            "--seed",
            "3",
            "--sequential",
        ])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("stale"), "{err}");
}

#[test]
fn resume_checks_the_run_and_its_shape_before_round_zero() {
    // Snapshots of a 6-edge run: resuming one as another method is refused
    // before the problem line, and on 4 edges the run names the field whose
    // length differs instead of crashing inside a round.
    let dir = std::env::temp_dir().join(format!("hm-cli-shape-{}", std::process::id()));
    let run = |method: &str, edges: &str, extra: &[&str]| {
        bin()
            .args(["run", "--scenario", "fashion", "--edges", edges])
            .args(["--clients", "2", "--train-per-client", "10"])
            .args(["--test-per-edge", "20", "--rounds", "6", "--m", "2"])
            .args(["--seed", "3", "--method", method])
            .args(extra)
            .output()
            .expect("spawn")
    };
    let ck = dir.display().to_string();
    for method in ["hierminimax", "hierfavg"] {
        let out = run(method, "6", &["--checkpoint-dir", &ck]);
        assert!(out.status.success(), "{method}");
        let snap = format!("{ck}/{method}-round-000003.hmck");
        let other = if method == "hierfavg" {
            "hierminimax"
        } else {
            "hierfavg"
        };
        let out = run(other, "6", &["--resume", &snap]);
        assert_eq!(out.status.code(), Some(1), "{method}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("snapshot is from algorithm"),
            "{method}: {err}"
        );
        assert!(!String::from_utf8_lossy(&out.stdout).contains("problem:"));
        let out = run(method, "4", &["--resume", &snap]);
        assert_eq!(out.status.code(), Some(1), "{method}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            err, "error: cannot resume: snapshot p has 6 entries, the run has 4\n",
            "{method}"
        );
        assert!(!String::from_utf8_lossy(&out.stdout).contains("problem:"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_onto_more_clients_is_refused_before_round_zero() {
    // The same `w` and edge weights on 3 clients per edge: the snapshot's
    // shape record names the clients, with and without a quarantine table
    // sized for the snapshot's clients.
    let dir = std::env::temp_dir().join(format!("hm-cli-clients-{}", std::process::id()));
    let ck = dir.display().to_string();
    let run = |method: &str, clients: &str, extra: &[&str]| {
        bin()
            .args(["run", "--scenario", "tiny", "--edges", "4"])
            .args(["--clients", clients, "--rounds", "6", "--m", "2"])
            .args(["--seed", "3", "--method", method])
            .args(extra)
            .output()
            .expect("spawn")
    };
    let quarantine = ["--quarantine-z", "1", "--quarantine-window", "2"];
    for (method, name, flags) in [
        ("fedavg", "fedavg", &[][..]),
        ("hierminimax", "hierminimax", &quarantine[..]),
    ] {
        let writer = [flags, &["--checkpoint-dir", &ck]].concat();
        assert!(run(method, "2", &writer).status.success(), "{method}");
        let snap = format!("{ck}/{name}-round-000002.hmck");
        let out = run(method, "3", &[flags, &["--resume", &snap]].concat());
        assert_eq!(out.status.code(), Some(1), "{method}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "error: cannot resume: snapshot has 2 clients per edge, the run has 3\n",
            "{method}"
        );
        assert!(!String::from_utf8_lossy(&out.stdout).contains("cloud rounds"));
        assert!(!String::from_utf8_lossy(&out.stdout).contains("problem:"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn resume_refuses_quarantine_or_churn_state_the_run_would_drop() {
    // A resume restores all of a snapshot's state or refuses it before the
    // problem line: a quarantine run needs a horizon table for its 8
    // clients, a run without quarantine cannot take one, and a churn
    // section and a churn plan come together.
    let dir = std::env::temp_dir().join(format!("hm-cli-drop-{}", std::process::id()));
    let run = |ck: &str, flags: &[&str], extra: &[&str]| {
        bin()
            .args(["run", "--scenario", "tiny", "--edges", "4"])
            .args(["--clients", "2", "--rounds", "6", "--m", "2"])
            .args(["--seed", "3"])
            .args(flags)
            .args(extra)
            .arg(ck)
            .output()
            .expect("spawn")
    };
    let byzantine = ["--fault-plan", "byzantine"];
    let quarantine = [
        "--fault-plan",
        "byzantine",
        "--quarantine-z",
        "1",
        "--quarantine-window",
        "2",
    ];
    let churn = ["--churn-plan", "chaos-churn"];
    for (i, (writer, resumer, want)) in [
        (
            &byzantine[..],
            &[&byzantine[..], &["--quarantine-z", "1"]].concat()[..],
            "snapshot has a quarantine table of 0 clients, the run quarantines 8",
        ),
        (
            &quarantine[..],
            &byzantine[..],
            "snapshot has a quarantine table of 8 clients, the run has no quarantine",
        ),
        (
            &churn[..],
            &[][..],
            "snapshot has a churn section, the run has no churn plan",
        ),
        (
            &[][..],
            &churn[..],
            "snapshot has no churn section, the run has a churn plan",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let ck = dir.join(i.to_string()).display().to_string();
        let out = run(&ck, writer, &["--checkpoint-dir"]);
        assert!(out.status.success(), "case {i}");
        let snap = format!("{ck}/hierminimax-round-000003.hmck");
        let out = run(&snap, resumer, &["--resume"]);
        assert_eq!(out.status.code(), Some(1), "case {i}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: cannot resume: {want}\n"),
            "case {i}"
        );
        assert!(!String::from_utf8_lossy(&out.stdout).contains("problem:"));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn quarantine_values_that_do_nothing_are_refused() {
    for (flags, want) in [
        (
            &["--quarantine-z", "-1"][..],
            "--quarantine-z must be finite",
        ),
        (
            &["--quarantine-z", "nan"][..],
            "--quarantine-z must be finite",
        ),
        (
            &["--quarantine-z", "1.0", "--quarantine-window", "0"][..],
            "--quarantine-window must be at least 1",
        ),
    ] {
        let out = bin()
            .args([
                "run",
                "--scenario",
                "tiny",
                "--edges",
                "4",
                "--clients",
                "2",
            ])
            .args(["--rounds", "2", "--m", "2", "--fault-plan", "byzantine"])
            .args(flags)
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{flags:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(want), "{flags:?}: {err}");
    }
}

#[test]
fn flags_a_method_does_not_read_are_unknown() {
    // `run` consumes an algorithm flag only for the methods that read it.
    let cases = [
        ("--tau1", "afl"),
        ("--tau2", "fedavg"),
        ("--tau2", "fedprox"),
        ("--tau2", "afl"),
        ("--tau2", "drfa"),
        ("--tau2", "qffl"),
        ("--eta-p", "hierfavg"),
        ("--eta-p", "fedavg"),
        ("--eta-p", "fedprox"),
        ("--eta-p", "qffl"),
        ("--loss-batch", "hierfavg"),
        ("--loss-batch", "fedavg"),
        ("--loss-batch", "fedprox"),
        ("--mu", "qffl"),
    ];
    for (flag, method) in cases {
        let out = bin()
            .args([
                "run",
                "--scenario",
                "tiny",
                "--edges",
                "4",
                "--clients",
                "2",
            ])
            .args(["--rounds", "2", "--method", method, flag, "3"])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{method} {flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err, format!("error: unknown flag(s): {flag}\n"), "{method}");
    }
}

#[test]
fn compare_refuses_more_edges_than_the_problem_has_before_the_first_run() {
    let out = bin()
        .args([
            "compare",
            "--scenario",
            "tiny",
            "--edges",
            "4",
            "--clients",
            "2",
        ])
        .args(["--rounds", "2", "--m", "9"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(err, "error: m_edges 9 exceeds 4 edges\n");
    assert!(out.stdout.is_empty());
}
