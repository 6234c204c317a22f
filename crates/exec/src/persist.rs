//! Disk persistence for the result cache, enabling cross-run reuse: a sweep
//! restarted with the same benchmark/node/candidates skips every simulation
//! it already paid for.
//!
//! The format is an **append-only record log** ([`CacheLog`]): a header line
//! followed by one compact JSON record per cached entry.  Fresh simulation
//! results are appended at insert time, so several engines — including
//! engines in different processes of a sharded run — can share one log file
//! and contribute hits concurrently (appends interleave at line granularity;
//! a torn final line is skipped on replay).
//!
//! Metric values are stored as `f64` bit patterns (alongside a readable
//! float), so restored reports are bit-identical to the originals even for
//! non-finite values, which plain JSON cannot represent.

use crate::cache::ResultCache;
use crate::key::CacheKey;
use gcnrl_sim::PerformanceReport;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

#[derive(Debug, Clone, Serialize, Deserialize)]
struct RecordMetric {
    name: String,
    /// Exact `f64::to_bits` of the value (the authoritative field).
    bits: u64,
    /// Human-readable rendering; ignored on load.
    approx: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Record {
    /// Hex content digest, stored for human inspection of log files.
    digest: String,
    key: CacheKey,
    feasible: bool,
    metrics: Vec<RecordMetric>,
}

impl Record {
    fn from_report(key: &CacheKey, report: &PerformanceReport) -> Self {
        Record {
            digest: format!("{:016x}", key.digest()),
            key: key.clone(),
            feasible: report.feasible,
            metrics: report
                .iter()
                .map(|(name, value)| RecordMetric {
                    name: name.to_owned(),
                    bits: value.to_bits(),
                    approx: value,
                })
                .collect(),
        }
    }

    fn to_report(&self) -> PerformanceReport {
        let mut report = if self.feasible {
            PerformanceReport::new()
        } else {
            PerformanceReport::infeasible()
        };
        for metric in &self.metrics {
            report.set(&metric.name, f64::from_bits(metric.bits));
        }
        report
    }
}

/// First line of every cache log; bump when [`CacheKey`] or the record
/// layout changes so stale logs are replaced instead of mis-read.
pub const LOG_VERSION: u32 = 1;

const LOG_FORMAT: &str = "gcnrl-cache-log";

#[derive(Debug, Serialize, Deserialize)]
struct LogHeader {
    format: String,
    version: u32,
}

/// The header line (newline included) every log starts with.
fn header_line() -> String {
    let header = LogHeader {
        format: LOG_FORMAT.to_owned(),
        version: LOG_VERSION,
    };
    let mut line = serde_json::to_string(&header).expect("header serialises");
    line.push('\n');
    line
}

/// An open append-only cache log.
///
/// Created by [`CacheLog::open`], which replays the entries already on disk
/// into the cache; afterwards every fresh simulation result is appended as
/// one self-contained line via [`CacheLog::append`].  The file is opened in
/// append mode, so engines in other processes sharing the path contribute
/// their entries live instead of overwriting each other.
#[derive(Debug)]
pub struct CacheLog {
    file: File,
}

impl CacheLog {
    /// Opens (creating if needed) the log at `path` and replays its entries
    /// into `cache`, returning the log handle and how many entries were
    /// restored.
    ///
    /// Two on-disk states are handled:
    /// * a log file — replayed line by line, unparseable lines (torn
    ///   concurrent appends, truncation, non-UTF-8 bytes) are skipped;
    /// * anything unreadable (corrupt or non-UTF-8 header, stale version,
    ///   another format, a binary file) — replaced by a fresh empty log,
    ///   since the cache contents are reproducible.
    ///
    /// Concurrency: opens within one process are serialised by a global lock
    /// (the sharded coordinator constructs many engines on one path at
    /// once), and the rewrite paths never truncate in place — a fresh log is
    /// created with `create_new` (losing the creation race just retries as a
    /// reader) and a replacement is written to a temp file and atomically
    /// renamed over the path, so a reader or appender in another process can
    /// never observe a half-written file.
    ///
    /// # Errors
    ///
    /// Returns any underlying filesystem error.
    pub fn open(path: &Path, cache: &mut ResultCache) -> io::Result<(Self, usize)> {
        static OPEN_LOCK: Mutex<()> = Mutex::new(());
        let _guard = match OPEN_LOCK.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };

        loop {
            if !path.exists() {
                if let Some(parent) = path.parent() {
                    if !parent.as_os_str().is_empty() {
                        std::fs::create_dir_all(parent)?;
                    }
                }
                // O_CREAT|O_EXCL: exactly one creator writes the header; a
                // process losing the race loops back and reads the winner's
                // file instead of truncating it.
                match OpenOptions::new().create_new(true).append(true).open(path) {
                    Ok(mut file) => {
                        file.write_all(header_line().as_bytes())?;
                        file.sync_all()?;
                        return Ok((CacheLog { file }, 0));
                    }
                    Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
                    Err(e) => return Err(e),
                }
            }

            // Bytes, not a string: one non-UTF-8 byte must cost its own line
            // (or, in the header, the file), never the whole replay.
            let content = std::fs::read(path)?;
            let mut lines = content
                .split(|&byte| byte == b'\n')
                .map(std::str::from_utf8);
            let header_ok = lines
                .next()
                .and_then(Result::ok)
                .and_then(|line| serde_json::from_str::<LogHeader>(line).ok())
                .is_some_and(|h| h.format == LOG_FORMAT && h.version == LOG_VERSION);
            if header_ok {
                let mut restored = 0usize;
                for line in lines.flatten() {
                    if let Ok(record) = serde_json::from_str::<Record>(line) {
                        cache.insert(record.key.clone(), record.to_report());
                        restored += 1;
                    }
                }
                let file = OpenOptions::new().append(true).open(path)?;
                return Ok((CacheLog { file }, restored));
            }

            // Unreadable file: replace it with a fresh log via temp file +
            // atomic rename so concurrent readers never see a partial file.
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            {
                let mut file = File::create(&tmp)?;
                file.write_all(header_line().as_bytes())?;
                file.sync_all()?;
            }
            std::fs::rename(&tmp, path)?;
            let file = OpenOptions::new().append(true).open(path)?;
            return Ok((CacheLog { file }, 0));
        }
    }

    /// Appends one cached entry as a single line (one `write` call, so
    /// concurrent appenders interleave at record granularity on POSIX
    /// append-mode semantics).
    ///
    /// # Errors
    ///
    /// Returns any underlying filesystem error.
    pub fn append(&mut self, key: &CacheKey, report: &PerformanceReport) -> io::Result<()> {
        let record = Record::from_report(key, report);
        let mut line = serde_json::to_string(&record).expect("record serialises");
        line.push('\n');
        self.file.write_all(line.as_bytes())
    }

    /// Forces appended records to disk.
    ///
    /// # Errors
    ///
    /// Returns any underlying filesystem error.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcnrl_circuit::benchmarks::Benchmark;

    fn key_for(tag: u64) -> CacheKey {
        CacheKey {
            benchmark: Benchmark::Ldo,
            node: "45nm".to_owned(),
            param_bits: vec![tag, tag + 10],
        }
    }

    fn sample_cache() -> ResultCache {
        let mut cache = ResultCache::new(16);
        for tag in 0..3u64 {
            let mut report = PerformanceReport::new();
            report.set("gain_db", 20.0 + tag as f64);
            report.set("power_mw", 0.5 / (tag + 1) as f64);
            cache.insert(key_for(tag), report);
        }
        cache
    }

    #[test]
    fn non_finite_metrics_survive_the_snapshot_bit_exactly() {
        let mut report = PerformanceReport::infeasible();
        report.set("peaking_db", f64::INFINITY);
        report.set("gain_db", f64::NEG_INFINITY);
        report.set("noise", f64::NAN);

        let path = std::env::temp_dir().join("gcnrl_exec_log_nonfinite.log");
        let _ = std::fs::remove_file(&path);
        let mut cache = ResultCache::new(4);
        let (mut log, _) = CacheLog::open(&path, &mut cache).expect("open fresh log");
        log.append(&key_for(9), &report).expect("append entry");
        drop(log);

        let mut restored = ResultCache::new(4);
        let (_log, n) = CacheLog::open(&path, &mut restored).expect("replay log");
        assert_eq!(n, 1);
        let back = restored.get(&key_for(9)).expect("entry restored");
        assert!(!back.feasible);
        assert_eq!(back.get("peaking_db"), Some(f64::INFINITY));
        assert_eq!(back.get("gain_db"), Some(f64::NEG_INFINITY));
        assert_eq!(back.get("noise").unwrap().to_bits(), f64::NAN.to_bits());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cache_log_round_trips_and_replays_on_open() {
        let path = std::env::temp_dir().join("gcnrl_exec_log_roundtrip.log");
        let _ = std::fs::remove_file(&path);

        let mut first = ResultCache::new(16);
        let (mut log, restored) = CacheLog::open(&path, &mut first).expect("open fresh log");
        assert_eq!(restored, 0);
        for (key, report) in sample_cache().iter() {
            first.insert(key.clone(), report.clone());
            log.append(key, report).expect("append entry");
        }
        log.sync().expect("sync");
        drop(log);

        let mut second = ResultCache::new(16);
        let (_log, restored) = CacheLog::open(&path, &mut second).expect("replay log");
        assert_eq!(restored, 3);
        for (key, report) in sample_cache().iter() {
            assert_eq!(second.get(key).as_ref(), Some(report));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_trailing_record_is_skipped_on_replay() {
        let path = std::env::temp_dir().join("gcnrl_exec_log_torn.log");
        let _ = std::fs::remove_file(&path);
        let mut cache = ResultCache::new(16);
        let (mut log, _) = CacheLog::open(&path, &mut cache).expect("open");
        let mut report = PerformanceReport::new();
        report.set("psrr_db", 55.0);
        log.append(&key_for(1), &report).expect("append");
        drop(log);
        // Simulate a crash mid-append: a half-written record at the tail.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"digest\":\"00ff\",\"key\":{\"bench")
            .unwrap();
        drop(f);

        let mut reread = ResultCache::new(16);
        let (_log, restored) = CacheLog::open(&path, &mut reread).expect("replay torn log");
        assert_eq!(
            restored, 1,
            "intact records replay, the torn tail is skipped"
        );
        assert_eq!(reread.get(&key_for(1)), Some(report));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_non_utf8_record_is_skipped_like_a_torn_one() {
        let path = std::env::temp_dir().join("gcnrl_exec_log_non_utf8_record.log");
        let _ = std::fs::remove_file(&path);
        let mut cache = ResultCache::new(16);
        let (mut log, _) = CacheLog::open(&path, &mut cache).expect("open");
        let mut first = PerformanceReport::new();
        first.set("gain_db", 1.0);
        log.append(&key_for(1), &first).expect("append first");
        drop(log);
        // One record with a corrupt byte in the middle of the file.
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"digest\":\"\xff\xfe\"}\n").unwrap();
        drop(f);
        let mut cache = ResultCache::new(16);
        let (mut log, _) = CacheLog::open(&path, &mut cache).expect("reopen");
        let mut second = PerformanceReport::new();
        second.set("gain_db", 2.0);
        log.append(&key_for(2), &second).expect("append second");
        drop(log);

        let mut reread = ResultCache::new(16);
        let (_log, restored) = CacheLog::open(&path, &mut reread).expect("replay");
        assert_eq!(restored, 2, "the records around the corrupt line replay");
        assert_eq!(reread.get(&key_for(1)), Some(first));
        assert_eq!(reread.get(&key_for(2)), Some(second));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn two_appenders_on_one_log_contribute_the_union() {
        let path = std::env::temp_dir().join("gcnrl_exec_log_shared.log");
        let _ = std::fs::remove_file(&path);
        let mut cache_a = ResultCache::new(16);
        let (mut log_a, _) = CacheLog::open(&path, &mut cache_a).expect("open a");
        let mut cache_b = ResultCache::new(16);
        let (mut log_b, _) = CacheLog::open(&path, &mut cache_b).expect("open b");

        let mut ra = PerformanceReport::new();
        ra.set("gain_db", 1.0);
        let mut rb = PerformanceReport::new();
        rb.set("gain_db", 2.0);
        // Interleaved appends from two live handles (same pattern as two
        // sharded engine processes sharing one GCNRL_CACHE_PATH).
        log_a.append(&key_for(100), &ra).expect("a appends");
        log_b.append(&key_for(200), &rb).expect("b appends");
        drop(log_a);
        drop(log_b);

        let mut merged = ResultCache::new(16);
        let (_log, restored) = CacheLog::open(&path, &mut merged).expect("replay shared");
        assert_eq!(restored, 2);
        assert_eq!(merged.get(&key_for(100)), Some(ra));
        assert_eq!(merged.get(&key_for(200)), Some(rb));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_opens_on_a_fresh_path_lose_no_entries() {
        // Regression: CacheLog::open used to check-then-truncate, so engines
        // opened concurrently on one path (the sharded coordinator's setup)
        // could wipe each other's records. Every opener now either creates
        // the file exclusively or retries as a reader.
        let path = std::env::temp_dir().join("gcnrl_exec_log_concurrent.log");
        let _ = std::fs::remove_file(&path);
        let handles: Vec<_> = (0..8u64)
            .map(|tag| {
                let path = path.clone();
                std::thread::spawn(move || {
                    let mut cache = ResultCache::new(16);
                    let (mut log, _) = CacheLog::open(&path, &mut cache).expect("open");
                    let mut report = PerformanceReport::new();
                    report.set("gain_db", tag as f64);
                    log.append(&key_for(1000 + tag), &report).expect("append");
                })
            })
            .collect();
        for h in handles {
            h.join().expect("opener thread");
        }
        let mut merged = ResultCache::new(32);
        let (_log, restored) = CacheLog::open(&path, &mut merged).expect("replay");
        assert_eq!(restored, 8, "every concurrent opener's entry survives");
        for tag in 0..8u64 {
            assert!(merged.get(&key_for(1000 + tag)).is_some(), "tag {tag}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_restores_nothing() {
        let dir =
            std::env::temp_dir().join(format!("gcnrl_exec_log_missing_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("cache.log");
        let mut cache = ResultCache::new(4);
        let (_log, restored) = CacheLog::open(&path, &mut cache).expect("open missing path");
        assert_eq!(restored, 0);
        assert!(cache.is_empty());
        // The log now exists, holding only its header line.
        let content = std::fs::read_to_string(&path).expect("fresh log written");
        assert_eq!(content, header_line());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreadable_log_is_replaced_by_a_fresh_one() {
        let path = std::env::temp_dir().join("gcnrl_exec_log_corrupt.log");
        // A whole-file JSON snapshot (an older cache format) is just another
        // unreadable file.
        let mut old_entry = PerformanceReport::new();
        old_entry.set("gain_db", 20.0);
        let snapshot = format!(
            "{{\n  \"version\": 2,\n  \"entries\": [{}]\n}}",
            serde_json::to_string_pretty(&Record::from_report(&key_for(0), &old_entry))
                .expect("entry")
        );
        // A binary file, and a log whose header holds a non-UTF-8 byte.
        let binary = vec![0x7f, b'E', b'L', b'F', 0xff, 0x00, b'\n', 0xfe];
        let mut bad_header = header_line().into_bytes();
        bad_header[2] = 0xff;
        let mut record =
            serde_json::to_string(&Record::from_report(&key_for(0), &old_entry)).expect("record");
        record.push('\n');
        bad_header.extend_from_slice(record.as_bytes());
        for content in [
            b"not a log at all\n???".to_vec(),
            snapshot.into_bytes(),
            binary,
            bad_header,
        ] {
            let content_debug = String::from_utf8_lossy(&content).into_owned();
            std::fs::write(&path, &content).unwrap();
            let mut cache = ResultCache::new(4);
            let (mut log, restored) = CacheLog::open(&path, &mut cache).expect("open corrupt");
            assert_eq!(restored, 0, "{content_debug}");
            assert!(cache.is_empty());
            let mut report = PerformanceReport::new();
            report.set("x", 1.5);
            log.append(&key_for(3), &report)
                .expect("append to fresh log");
            drop(log);
            let mut reread = ResultCache::new(4);
            let (_log, restored) = CacheLog::open(&path, &mut reread).expect("reopen");
            assert_eq!(restored, 1);
            assert_eq!(reread.get(&key_for(3)), Some(report));
            assert_eq!(reread.get(&key_for(0)), None);
        }
        let _ = std::fs::remove_file(&path);
    }
}
