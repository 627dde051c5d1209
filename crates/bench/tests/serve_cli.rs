//! Contracts of the `serve` binary that only the built executable shows:
//! `--listen` leaves no checkpoint files behind, and a flag it does not
//! know exits 2 with the usage text.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn listen_leaves_no_checkpoints_in_the_temp_dir() {
    let tmp = std::env::temp_dir().join(format!("ibrar-serve-listen-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--listen", "127.0.0.1:0", "--int8"])
        .env("TMPDIR", &tmp)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    // The server runs until killed, so kill it once it says it is serving;
    // the bound only keeps a broken build from hanging the suite.
    let ready = rx.recv_timeout(Duration::from_secs(120));
    let _ = child.kill();
    let _ = child.wait();
    let line = ready.expect("serve --listen never printed its serving line");
    assert!(line.starts_with("serving models"), "{line}");
    assert!(line.contains("vgg-int8"), "{line}");

    let left: Vec<_> = std::fs::read_dir(&tmp)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    std::fs::remove_dir_all(&tmp).unwrap();
    assert!(left.is_empty(), "serve --listen left {left:?} behind");
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    // The least-depth fleet has no dispatch policy to pick. Were the flag
    // accepted, `--drive` at a closed port would exit 1 instead.
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--policy", "least-depth", "--drive", "127.0.0.1:9"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("usage: serve"), "{stderr}");
    assert!(!stderr.contains("--policy"), "{stderr}");
}
