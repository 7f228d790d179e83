//! What the service's socket tests share: a three-window table, a
//! configuration that always splits, a live service, and a line client.

// Each test binary that includes this module uses part of it.
#![allow(dead_code)]

use ebi_bitvec::SEGMENT_BITS;
use ebi_service::{ColumnSpec, ServiceConfig, ServiceHandle, ServiceSummary, ShardedTable};
use ebi_storage::Cell;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// Three kernel windows, the last ragged: the test config's two workers
/// split every query into morsels `0..1` and `1..3`.
pub fn small_table() -> ShardedTable {
    let rows = 2 * SEGMENT_BITS + 4_003;
    let a = (0..rows as u64).map(|i| Cell::Value((i * 7 + 3) % 6));
    let b = (0..rows as u64).map(|i| match i % 97 {
        0 => Cell::Null,
        _ => Cell::Value((i * 13 + 1) % 9),
    });
    let columns = vec![
        ColumnSpec::new("a", a.collect()),
        ColumnSpec::new("b", b.collect()),
    ];
    ShardedTable::build(columns, &Default::default()).expect("table builds")
}

/// Two workers, and a dispatch floor of 0: the test table is far below
/// the real one, and every query splits.
pub fn test_config() -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        max_inflight: 4,
        timeout: Duration::from_secs(5),
        min_dispatch_words: 0,
        ..ServiceConfig::default()
    }
}

/// Runs `f` against a live service with the span subscriber `spans`,
/// then shuts it down (also when `f` panics: the scope joins the server
/// thread, so a failing assertion would otherwise hang) and returns the
/// drain summary.
pub fn with_service_spans<F>(
    spans: bool,
    table: &ShardedTable,
    cfg: &ServiceConfig,
    f: F,
) -> ServiceSummary
where
    F: FnOnce(&ServiceHandle) + Send,
{
    struct ShutdownOnDrop<'h>(&'h ServiceHandle);
    impl Drop for ShutdownOnDrop<'_> {
        fn drop(&mut self) {
            self.0.shutdown();
        }
    }
    ebi_obs::set_enabled(spans);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|s| {
        let server = s.spawn(move || ebi_service::run(table, cfg, |h| tx.send(h).expect("send")));
        let handle = rx.recv().expect("service came up");
        {
            let _stop = ShutdownOnDrop(&handle);
            f(&handle);
        }
        server.join().expect("service thread").expect("service ran")
    })
}

/// [`with_service_spans`] with spans on.
pub fn with_service<F>(table: &ShardedTable, cfg: &ServiceConfig, f: F) -> ServiceSummary
where
    F: FnOnce(&ServiceHandle) + Send,
{
    with_service_spans(true, table, cfg, f)
}

/// Sends one line over a fresh connection, reads one reply line.
pub fn tcp_line(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("write");
    let mut out = String::new();
    BufReader::new(stream).read_line(&mut out).expect("read");
    out.trim_end().to_string()
}

/// Pulls `"key":<number>` out of a flat JSON rendering.
pub fn json_u64(json: &str, key: &str) -> Option<u64> {
    let at = json.find(&format!("\"{key}\":"))?;
    let digits: String = json[at + key.len() + 3..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}
