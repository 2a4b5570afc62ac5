//! End-to-end distributed sweep over loopback, checked against the
//! single-process sweep byte for byte.
//!
//! The acceptance scenario for the serve fabric: a daemon over a small
//! grid, two honest workers, and one worker killed mid-sweep (leases a
//! cell, then its connection dies). The run must complete with the
//! killed worker's cell simulated exactly once more, the shared result
//! store byte-identical to what a local `SweepEngine` run produces
//! over the same cells, and no orphaned temp files left behind.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use pp_core::SimConfig;
use pp_serve::{run_worker, Request, ServeConfig, Server, WorkerConfig};
use pp_sweep::{ResultStore, SweepCell, SweepEngine};
use pp_workloads::Workload;

fn tiny_grid() -> Vec<SweepCell> {
    // 2 workloads × 2 configurations at a fixed debug-friendly scale.
    let configs = [
        SimConfig::default(),
        SimConfig::default().with_window_size(32),
    ];
    Workload::ALL
        .iter()
        .take(2)
        .flat_map(|&w| {
            configs.iter().map(move |c| SweepCell {
                workload: w,
                seed: None,
                scale: 1200,
                config: c.clone(),
            })
        })
        .collect()
}

fn tmp_root(name: &str) -> PathBuf {
    let dir = pp_testutil::scratch_dir(&format!("serve-e2e-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every regular file under `root` as `relative path → bytes`.
fn dir_contents(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.filter_map(Result::ok) {
            let path = entry.path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, std::fs::read(&path).expect("read entry"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

#[test]
fn distributed_sweep_is_byte_identical_to_local_and_leaves_no_orphans() {
    let grid = tiny_grid();

    // --- Reference: the single-process sweep over its own cache. -----
    let local_dir = tmp_root("local");
    let report = SweepEngine::new()
        .with_cache(&local_dir)
        .with_progress(false)
        .run(&grid);
    assert!(report.all_completed(), "local sweep completes");

    // --- Distributed: daemon + a killed worker + two honest ones. ----
    let remote_dir = tmp_root("remote");
    let cfg = ServeConfig {
        read_timeout: Duration::from_millis(20),
        retry_ms: 20,
        ..ServeConfig::default()
    };
    let server = Server::bind(
        "127.0.0.1:0",
        vec![("tiny".to_string(), grid.clone())],
        Some(ResultStore::new(&remote_dir)),
        cfg,
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let daemon = std::thread::spawn(move || server.run(true));

    // The "killed" worker: admitted, leases one cell, then its process
    // dies — modelled by dropping the socket with the lease held.
    {
        use std::io::{BufRead, BufReader, Write};
        let stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        let mut line = String::new();
        let mut rpc = |req: &Request, line: &mut String| {
            writer.write_all(req.to_line().as_bytes()).expect("send");
            writer.flush().expect("flush");
            line.clear();
            reader.read_line(line).expect("reply");
        };
        rpc(
            &Request::Hello {
                client: "killed".to_string(),
                proto: pp_serve::PROTO_VERSION,
            },
            &mut line,
        );
        assert!(line.contains("welcome"), "{line}");
        rpc(&Request::Lease, &mut line);
        assert!(line.contains("cell"), "{line}");
        // Dropped here: killed mid-sweep, lease still held.
    }

    let workers: Vec<_> = ["alpha", "beta"]
        .into_iter()
        .map(|name| {
            let addr = addr.clone();
            let grid = grid.clone();
            std::thread::spawn(move || {
                let cfg = WorkerConfig {
                    client: name.to_string(),
                    ..WorkerConfig::default()
                };
                run_worker(&addr, &cfg, move |exp| {
                    (exp == "tiny").then(|| grid.clone())
                })
                .expect("worker completes")
            })
        })
        .collect();
    let reports: Vec<_> = workers
        .into_iter()
        .map(|h| h.join().expect("worker thread"))
        .collect();
    let summary = daemon.join().expect("daemon thread");

    // Grid complete; the killed worker's cell went back exactly once
    // and was simulated exactly once more (by one of the honest pair).
    assert!(summary.all_complete(), "{}", summary.summary());
    assert_eq!(summary.snapshot.requeued, 1, "requeued exactly once");
    let simulated: usize = reports.iter().map(|r| r.simulated).sum();
    let redundant: usize = reports.iter().map(|r| r.redundant).sum();
    assert_eq!(simulated, grid.len(), "each cell simulated exactly once");
    assert_eq!(redundant, 0);

    // The shared store holds every cell, byte-identical to the local
    // sweep's cache, with no in-flight temp files left behind.
    let store = ResultStore::new(&remote_dir);
    assert_eq!(store.sweep_orphans(), 0, "no orphaned temp files");
    assert_eq!(store.len(), grid.len());
    let local = dir_contents(&local_dir);
    let remote = dir_contents(&remote_dir);
    assert_eq!(
        local.keys().collect::<Vec<_>>(),
        remote.keys().collect::<Vec<_>>(),
        "same entry set"
    );
    for (name, bytes) in &local {
        assert_eq!(
            bytes, &remote[name],
            "{name} differs between local and distributed"
        );
    }

    // Second pass over the now-warm store: all cached, nothing re-run.
    let second = SweepEngine::new()
        .with_cache(&remote_dir)
        .with_progress(false)
        .run(&grid);
    assert!(second.all_completed());
    assert_eq!(second.cached(), grid.len(), "second pass fully cached");

    let _ = std::fs::remove_dir_all(&local_dir);
    let _ = std::fs::remove_dir_all(&remote_dir);
}
