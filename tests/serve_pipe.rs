//! `pfd serve` over pipes answers each command line before the next one
//! arrives. The client here reads `ready`, then the answer to each command,
//! before it writes the next line. Every read is bounded, so a server that
//! holds answers back until more input comes fails the test instead of
//! hanging it.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

/// How long any one answer may take; generous for a loaded machine.
const WAIT: Duration = Duration::from_secs(20);

/// The child's stdout, read line by line on a thread so waits can time out.
struct Lines {
    child: Child,
    lines: Receiver<String>,
}

impl Lines {
    fn next(&mut self, what: &str) -> String {
        match self.lines.recv_timeout(WAIT) {
            Ok(line) => line,
            Err(e) => {
                let _ = self.child.kill();
                panic!("no {what} within {WAIT:?} ({e})");
            }
        }
    }
}

#[test]
fn serve_answers_each_piped_line_before_the_next_arrives() {
    let dir = std::env::temp_dir().join(format!("pfd-serve-pipe-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("zips.csv");
    std::fs::write(&data, "zip,city\n90001,Los Angeles\n90002,Los Angeles\n").unwrap();
    let rules = dir.join("rules.pfd");
    std::fs::write(&rules, "Zip([zip = [\\D{3}]\\D{2}] -> [city = _])\n").unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_pfd"))
        .arg("serve")
        .arg(&data)
        .arg("--rules")
        .arg(&rules)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let stdout = child.stdout.take().unwrap();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let mut out = Lines { child, lines: rx };

    let ready = out.next("ready event before any input");
    assert!(ready.contains("\"event\":\"ready\""), "{ready}");
    for k in 1..=2 {
        writeln!(stdin, "{{\"op\":\"check\"}}").unwrap();
        stdin.flush().unwrap();
        let answer = out.next(&format!("answer to check {k} before line {}", k + 1));
        assert!(
            answer.contains("\"event\":\"state\"") && answer.contains(&format!("\"seq\":{k}")),
            "{answer}"
        );
    }

    // End of input shuts the server down; the clean table exits 0.
    drop(stdin);
    let deadline = Instant::now() + WAIT;
    let status = loop {
        if let Some(status) = out.child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() > deadline {
            let _ = out.child.kill();
            panic!("pfd serve did not exit within {WAIT:?} of end of input");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}
