//! Crash-consistent durable state: checksummed atomic file writes with
//! seeded IO fault injection (DESIGN.md §4.8).
//!
//! Every durable artifact in the workspace — U-Net checkpoints, elastic-
//! trainer epoch spills, stream-stage snapshots — goes through this
//! module instead of a bare `std::fs::write` (enforced by `seaice-lint`'s
//! `raw-fs-write-in-durable-path` rule). Two guarantees:
//!
//! * **Atomicity.** [`write_framed`]/[`write_atomic`] write to a
//!   temporary sibling, fsync it, then rename over the target. A crash
//!   at any instant leaves the target either the previous complete file
//!   or the new complete file — never a torn hybrid.
//! * **Integrity.** [`write_framed`] prefixes the payload with a
//!   [`MAGIC`] marker, its length, and a CRC32; [`read_framed`] verifies
//!   all three and refuses — loudly, with [`DurableError`] — to return a
//!   payload whose checksum does not match. Silent corruption (a
//!   bit-flip on disk) is always *detected*, never loaded. Files without
//!   the magic marker are passed through as legacy unframed payloads, so
//!   checkpoints written before this layer existed keep loading.
//!
//! Fault injection rides the workspace's seeded [`FaultPlan`]: four IO
//! sites ([`SITE_WRITE_TORN`], [`SITE_WRITE_BITFLIP`],
//! [`SITE_WRITE_ENOSPC`], [`SITE_READ_CORRUPT`]) let the soak test
//! (`crates/bench/tests/soak.rs`) torture every persistence path
//! reproducibly. Transient failures retry under a bounded deterministic
//! [`RetryPolicy`] whose backoff is charged to a [`ManualClock`] when one
//! is attached (simulated paths never sleep the wall clock).

use crate::ManualClock;
use seaice_faults::{mix, FaultAction, FaultPlan};
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Site fired once per write attempt. [`FaultAction::Panic`]: the
/// process "dies" after writing a prefix of the temp file (the rename
/// never happens, the target is untouched — exactly the crash the
/// atomic protocol defends against). [`FaultAction::Error`]: a
/// transient flake the [`RetryPolicy`] may retry.
pub const SITE_WRITE_TORN: &str = "io.write.torn";

/// Site fired once per write attempt: one bit of the framed bytes flips
/// before they hit the disk, and the write *reports success* — silent
/// media corruption that only the reader's checksum can catch.
pub const SITE_WRITE_BITFLIP: &str = "io.write.bitflip";

/// Site fired once per write attempt: the filesystem is full; the write
/// fails loudly and the target is untouched.
pub const SITE_WRITE_ENOSPC: &str = "io.write.enospc";

/// Site fired once per read: one bit of the buffer flips after the read
/// (a bad sector, a cosmic ray in the page cache); the frame checksum
/// must detect it.
pub const SITE_READ_CORRUPT: &str = "io.read.corrupt";

/// Frame marker: a file starting with these 8 bytes is checksummed.
pub const MAGIC: &[u8; 8] = b"SEAICE1\n";

/// Frame header size: magic + u64 payload length + u32 CRC32, all LE.
pub const HEADER_LEN: usize = 8 + 8 + 4;

/// Default ceiling on payload size — both what [`read_framed`] will
/// allocate for and what a frame's length field may claim. 256 MiB:
/// far above any real checkpoint here, far below an absurd mmap bomb.
pub const MAX_PAYLOAD_BYTES: u64 = 256 * 1024 * 1024;

/// Bounded deterministic retry for transient write failures.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Attempts before giving up (1 = no retry).
    pub max_attempts: u32,
    /// Backoff charged between attempts, microseconds (doubled each
    /// retry). Charged to the attached [`ManualClock`] when present;
    /// never a wall-clock sleep.
    pub backoff_us: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_us: 500,
        }
    }
}

impl RetryPolicy {
    /// A single attempt, no retry — what soak legs use so every fault
    /// decision maps 1:1 to an observable outcome.
    pub fn once() -> Self {
        Self {
            max_attempts: 1,
            backoff_us: 0,
        }
    }
}

/// Everything a durable IO call needs: the fault plan to consult, an
/// optional simulated clock to charge backoff to, the retry policy, and
/// the payload-size ceiling.
#[derive(Clone, Debug)]
pub struct DurableCtx {
    /// Fault plan consulted at the four IO sites.
    pub faults: Arc<FaultPlan>,
    /// When present, retry backoff advances this clock instead of
    /// sleeping (deterministic simulated paths).
    pub clock: Option<Arc<ManualClock>>,
    /// Transient-failure retry policy.
    pub retry: RetryPolicy,
    /// Reject frames (and raw files) larger than this many payload bytes.
    pub max_payload: u64,
}

impl DurableCtx {
    /// The production default: no faults, default retry, default ceiling.
    pub fn disabled() -> Self {
        Self::with_faults(Arc::new(FaultPlan::disabled()))
    }

    /// A context consulting `faults` at the IO sites.
    pub fn with_faults(faults: Arc<FaultPlan>) -> Self {
        Self {
            faults,
            clock: None,
            retry: RetryPolicy::default(),
            max_payload: MAX_PAYLOAD_BYTES,
        }
    }

    /// Attaches a simulated clock for backoff charging (builder-style).
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<ManualClock>) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Overrides the retry policy (builder-style).
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    fn charge_backoff(&self, attempt: u32) {
        let us = self.retry.backoff_us.saturating_mul(1 << attempt.min(16));
        if us == 0 {
            return;
        }
        match &self.clock {
            Some(c) => {
                c.advance_us(us);
            }
            // No simulated clock: yield rather than sleep — callers on
            // real filesystems retry immediately, tests stay fast.
            None => std::thread::yield_now(),
        }
    }
}

/// What went wrong in a durable IO call.
#[derive(Debug)]
pub enum DurableError {
    /// The underlying filesystem operation failed.
    Io {
        /// Target path.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
    /// A write attempt "crashed" partway (injected torn write): the temp
    /// file holds a prefix, the target was never replaced.
    TornWrite {
        /// Target path.
        path: PathBuf,
        /// Bytes that made it to the temp file.
        written: usize,
        /// Bytes the full frame needed.
        total: usize,
    },
    /// A framed file whose payload does not hash to its recorded CRC32.
    ChecksumMismatch {
        /// Offending path.
        path: PathBuf,
        /// CRC recorded in the header.
        expected: u32,
        /// CRC of the payload actually on disk.
        actual: u32,
    },
    /// A file that starts with [`MAGIC`] but whose header or length is
    /// inconsistent (truncated frame, trailing garbage, absurd length).
    BadFrame {
        /// Offending path.
        path: PathBuf,
        /// What is wrong with it.
        why: String,
    },
    /// The file (or its claimed payload) exceeds the context's ceiling.
    TooLarge {
        /// Offending path.
        path: PathBuf,
        /// Observed or claimed size.
        len: u64,
        /// The ceiling it broke.
        max: u64,
    },
    /// The file is empty — never a valid durable artifact.
    Empty {
        /// Offending path.
        path: PathBuf,
    },
    /// Every retry of a transient failure was spent.
    RetriesExhausted {
        /// Target path.
        path: PathBuf,
        /// Attempts made.
        attempts: u32,
        /// The last transient error.
        last: String,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, source } => write!(f, "durable io on {}: {source}", path.display()),
            Self::TornWrite {
                path,
                written,
                total,
            } => write!(
                f,
                "torn write to {}: crashed after {written} of {total} bytes (target untouched)",
                path.display()
            ),
            Self::ChecksumMismatch {
                path,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch in {}: header says {expected:#010x}, payload hashes to {actual:#010x} — refusing corrupt state",
                path.display()
            ),
            Self::BadFrame { path, why } => {
                write!(f, "bad durable frame in {}: {why}", path.display())
            }
            Self::TooLarge { path, len, max } => write!(
                f,
                "implausibly large durable file {}: {len} bytes exceeds the {max}-byte ceiling",
                path.display()
            ),
            Self::Empty { path } => {
                write!(f, "empty durable file {}", path.display())
            }
            Self::RetriesExhausted {
                path,
                attempts,
                last,
            } => write!(
                f,
                "durable write to {} failed after {attempts} attempts: {last}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl DurableError {
    /// Converts into an `io::Error` with a faithful kind: plain IO
    /// failures keep their kind (`NotFound` stays `NotFound`), every
    /// corruption/validation variant becomes `InvalidData`.
    pub fn into_io(self) -> io::Error {
        match self {
            Self::Io { source, .. } => source,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// CRC32 (IEEE 802.3, reflected) of `bytes` — the same polynomial gzip
/// and PNG use, hand-rolled because the workspace vendors no checksum
/// crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = 0u32.wrapping_sub(crc & 1);
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Wraps `payload` in the durable frame: magic, LE length, LE CRC32,
/// payload.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validates a frame read from `path` and returns its payload slice.
/// `Ok(None)` means the bytes do not start with [`MAGIC`] — a legacy
/// unframed file the caller should use as-is.
///
/// # Errors
/// [`DurableError::BadFrame`] for structural damage,
/// [`DurableError::ChecksumMismatch`] when the payload does not hash to
/// its header CRC, [`DurableError::TooLarge`] when the claimed length
/// breaks `max_payload`.
pub fn unframe<'a>(
    bytes: &'a [u8],
    path: &Path,
    max_payload: u64,
) -> Result<Option<&'a [u8]>, DurableError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Ok(None);
    }
    if bytes.len() < HEADER_LEN {
        return Err(DurableError::BadFrame {
            path: path.to_path_buf(),
            why: format!("truncated header: {} bytes, need {HEADER_LEN}", bytes.len()),
        });
    }
    // seaice-lint: allow(panic-in-library) reason="bytes.len() >= HEADER_LEN (20) was checked above, so [8..16] is exactly 8 bytes"
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
    if len > max_payload {
        return Err(DurableError::TooLarge {
            path: path.to_path_buf(),
            len,
            max: max_payload,
        });
    }
    // seaice-lint: allow(panic-in-library) reason="bytes.len() >= HEADER_LEN (20) was checked above, so [16..20] is exactly 4 bytes"
    let expected = u32::from_le_bytes(bytes[16..20].try_into().expect("4-byte slice"));
    let payload = &bytes[HEADER_LEN..];
    if payload.len() as u64 != len {
        return Err(DurableError::BadFrame {
            path: path.to_path_buf(),
            why: format!(
                "length mismatch: header claims {len} payload bytes, file holds {}",
                payload.len()
            ),
        });
    }
    let actual = crc32(payload);
    if actual != expected {
        return Err(DurableError::ChecksumMismatch {
            path: path.to_path_buf(),
            expected,
            actual,
        });
    }
    Ok(Some(payload))
}

/// A stable fault/retry key for `path`: FNV-1a of its file name. Callers
/// with a better natural key (epoch number, chunk index) should pass
/// that instead.
pub fn path_key(path: &Path) -> u64 {
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in name.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Writes `payload` to `path` framed (checksummed) and atomically.
///
/// # Errors
/// See [`DurableError`]; on any error the target is either absent or the
/// previous complete file — never partial.
pub fn write_framed(
    path: &Path,
    payload: &[u8],
    ctx: &DurableCtx,
    key: u64,
) -> Result<(), DurableError> {
    write_with_retry(path, &frame(payload), ctx, key)
}

/// Writes raw `bytes` to `path` atomically, without framing — for
/// artifacts whose format must stay plain (acquisition manifests) but
/// which still deserve the temp-fsync-rename protocol.
///
/// # Errors
/// See [`DurableError`]; atomicity as in [`write_framed`].
pub fn write_atomic(
    path: &Path,
    bytes: &[u8],
    ctx: &DurableCtx,
    key: u64,
) -> Result<(), DurableError> {
    write_with_retry(path, bytes, ctx, key)
}

fn write_with_retry(
    path: &Path,
    framed: &[u8],
    ctx: &DurableCtx,
    key: u64,
) -> Result<(), DurableError> {
    let attempts = ctx.retry.max_attempts.max(1);
    let mut last: Option<String> = None;
    for attempt in 0..attempts {
        // Decisions are pure in (site, key), so each retry varies the
        // key: a transient fault armed at attempt 0 does not refire
        // forever.
        let akey = mix(key, attempt as u64);
        match write_attempt(path, framed, ctx, akey) {
            Ok(()) => return Ok(()),
            Err(e) if is_transient(&e) => {
                last = Some(e.to_string());
                if attempt + 1 < attempts {
                    ctx.charge_backoff(attempt);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Err(DurableError::RetriesExhausted {
        path: path.to_path_buf(),
        attempts,
        last: last.unwrap_or_else(|| "unknown".to_string()),
    })
}

/// Only plain transient IO errors retry; torn writes and ENOSPC model a
/// crash / a full disk and must surface to the caller unchanged.
fn is_transient(e: &DurableError) -> bool {
    matches!(
        e,
        DurableError::Io { source, .. } if source.kind() == io::ErrorKind::Interrupted
    )
}

fn temp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "durable".to_string());
    name.push_str(".tmp");
    path.with_file_name(name)
}

fn write_attempt(
    path: &Path,
    framed: &[u8],
    ctx: &DurableCtx,
    akey: u64,
) -> Result<(), DurableError> {
    let io_err = |source: io::Error| DurableError::Io {
        path: path.to_path_buf(),
        source,
    };

    // Full filesystem: loud failure, target untouched.
    if fires(ctx, SITE_WRITE_ENOSPC, akey) {
        return Err(io_err(io::Error::other(format!(
            "injected ENOSPC writing {} (key {akey})",
            path.display()
        ))));
    }
    let tmp = temp_path(path);
    match ctx.faults.fire(SITE_WRITE_TORN, akey) {
        FaultAction::None => {}
        FaultAction::Delay(_) => ctx.charge_backoff(0),
        // Transient flake the retry policy may absorb.
        FaultAction::Error => {
            return Err(io_err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected transient write fault (key {akey})"),
            )));
        }
        // Torn write: the "process" dies after a prefix of the temp
        // file. The rename never happens; the previous target survives
        // intact.
        FaultAction::Panic => {
            let written = framed.len() / 2;
            let _ = fs::write(&tmp, &framed[..written]);
            return Err(DurableError::TornWrite {
                path: path.to_path_buf(),
                written,
                total: framed.len(),
            });
        }
    }

    // Silent media corruption: flip one deterministic payload bit, then
    // report success. Only the reader's CRC can catch this.
    let mut bytes = std::borrow::Cow::Borrowed(framed);
    if fires(ctx, SITE_WRITE_BITFLIP, akey) && framed.len() > HEADER_LEN {
        let body = framed.len() - HEADER_LEN;
        let bit = (mix(akey, 0xB17F) as usize) % (body * 8);
        let owned = bytes.to_mut();
        owned[HEADER_LEN + bit / 8] ^= 1 << (bit % 8);
    }

    let mut f = fs::File::create(&tmp).map_err(io_err)?;
    f.write_all(&bytes).map_err(io_err)?;
    // fsync before rename: the rename must never land pointing at data
    // still in flight.
    f.sync_all().map_err(io_err)?;
    drop(f);
    fs::rename(&tmp, path).map_err(io_err)
}

fn fires(ctx: &DurableCtx, site: &str, key: u64) -> bool {
    match ctx.faults.fire(site, key) {
        FaultAction::None => false,
        FaultAction::Delay(_) => {
            // Stragglers on durable paths charge the simulated clock.
            ctx.charge_backoff(0);
            false
        }
        FaultAction::Panic | FaultAction::Error => true,
    }
}

/// Reads `path`, applies the size guards, optionally injects read
/// corruption, and returns the verified payload. Framed files are
/// checksum-verified; files without [`MAGIC`] are returned whole
/// (legacy unframed acceptance).
///
/// # Errors
/// [`DurableError::Empty`]/[`TooLarge`](DurableError::TooLarge) from the
/// pre-read guards (checked against metadata, before any allocation),
/// [`DurableError::Io`] for filesystem failures (missing file stays
/// `NotFound`), and the [`unframe`] corruption taxonomy.
pub fn read_framed(path: &Path, ctx: &DurableCtx, key: u64) -> Result<Vec<u8>, DurableError> {
    let io_err = |source: io::Error| DurableError::Io {
        path: path.to_path_buf(),
        source,
    };
    let len = fs::metadata(path).map_err(io_err)?.len();
    if len == 0 {
        return Err(DurableError::Empty {
            path: path.to_path_buf(),
        });
    }
    if len > ctx.max_payload.saturating_add(HEADER_LEN as u64) {
        return Err(DurableError::TooLarge {
            path: path.to_path_buf(),
            len,
            max: ctx.max_payload,
        });
    }
    let mut bytes = fs::read(path).map_err(io_err)?;
    if fires(ctx, SITE_READ_CORRUPT, key) && !bytes.is_empty() {
        let bit = (mix(key, 0x5EAD) as usize) % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
    match unframe(&bytes, path, ctx.max_payload)? {
        Some(payload) => Ok(payload.to_vec()),
        None => Ok(bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Clock;
    use seaice_faults::FaultPlan;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("seaice-durable-{tag}-{}", std::process::id()));
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip_and_legacy_passthrough() {
        let d = tmpdir("roundtrip");
        let p = d.join("state.bin");
        let ctx = DurableCtx::disabled();
        write_framed(&p, b"hello polar ice", &ctx, 1).unwrap();
        assert_eq!(read_framed(&p, &ctx, 1).unwrap(), b"hello polar ice");
        // No stray temp file after a clean write.
        assert!(!temp_path(&p).exists());

        // A legacy unframed file comes back whole.
        let legacy = d.join("legacy.json");
        fs::write(&legacy, b"{\"x\":1}").unwrap();
        assert_eq!(read_framed(&legacy, &ctx, 0).unwrap(), b"{\"x\":1}");
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn corrupted_frames_are_always_detected() {
        let d = tmpdir("detect");
        let p = d.join("state.bin");
        let ctx = DurableCtx::disabled();
        write_framed(&p, b"some payload worth protecting", &ctx, 1).unwrap();
        let good = fs::read(&p).unwrap();

        // Flip every single bit of the payload in turn: every flip must
        // be detected (this is the "never silently loaded" claim).
        for bit in 0..(good.len() - HEADER_LEN) * 8 {
            let mut bad = good.clone();
            bad[HEADER_LEN + bit / 8] ^= 1 << (bit % 8);
            fs::write(&p, &bad).unwrap();
            let e = read_framed(&p, &ctx, 1).expect_err("flip must be detected");
            assert!(matches!(e, DurableError::ChecksumMismatch { .. }), "{e}");
        }

        // Truncated frame.
        fs::write(&p, &good[..good.len() - 3]).unwrap();
        let e = read_framed(&p, &ctx, 1).expect_err("truncation must be detected");
        assert!(matches!(e, DurableError::BadFrame { .. }), "{e}");

        // Truncated header.
        fs::write(&p, &good[..10]).unwrap();
        let e = read_framed(&p, &ctx, 1).expect_err("short header must be detected");
        assert!(matches!(e, DurableError::BadFrame { .. }), "{e}");

        // Empty file.
        fs::write(&p, b"").unwrap();
        let e = read_framed(&p, &ctx, 1).expect_err("empty must be rejected");
        assert!(matches!(e, DurableError::Empty { .. }), "{e}");

        // Absurd claimed length (header says 1 GiB payload).
        let mut bad = good.clone();
        bad[8..16].copy_from_slice(&(1u64 << 30).to_le_bytes());
        fs::write(&p, &bad).unwrap();
        let e = read_framed(&p, &ctx, 1).expect_err("absurd length must be rejected");
        assert!(matches!(e, DurableError::TooLarge { .. }), "{e}");

        // Missing file stays NotFound through into_io.
        let missing = d.join("missing.bin");
        let e = read_framed(&missing, &ctx, 1).expect_err("missing file");
        assert_eq!(e.into_io().kind(), io::ErrorKind::NotFound);
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn torn_write_leaves_previous_file_intact() {
        let d = tmpdir("torn");
        let p = d.join("state.bin");
        let ctx = DurableCtx::disabled();
        write_framed(&p, b"generation 1", &ctx, 7).unwrap();

        // Arm a torn write on the exact attempt key.
        let plan = Arc::new(FaultPlan::seeded(1).fail_keys(
            SITE_WRITE_TORN,
            &[mix(7, 0)],
            FaultAction::Panic,
        ));
        let torn_ctx = DurableCtx::with_faults(plan).with_retry(RetryPolicy::once());
        let e = write_framed(&p, b"generation 2", &torn_ctx, 7).expect_err("torn write");
        assert!(matches!(e, DurableError::TornWrite { .. }), "{e}");
        // The target still reads back as generation 1.
        assert_eq!(read_framed(&p, &ctx, 7).unwrap(), b"generation 1");
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn bitflip_write_succeeds_but_read_detects() {
        let d = tmpdir("bitflip");
        let p = d.join("state.bin");
        let plan = Arc::new(FaultPlan::seeded(2).fail_keys(
            SITE_WRITE_BITFLIP,
            &[mix(9, 0)],
            FaultAction::Panic,
        ));
        let ctx = DurableCtx::with_faults(plan).with_retry(RetryPolicy::once());
        // The write reports success — that is the point of silent
        // corruption.
        write_framed(&p, b"trusted bytes", &ctx, 9).unwrap();
        let e = read_framed(&p, &DurableCtx::disabled(), 9).expect_err("flip must be caught");
        assert!(matches!(e, DurableError::ChecksumMismatch { .. }), "{e}");
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn enospc_fails_loudly_and_read_corrupt_is_detected() {
        let d = tmpdir("enospc");
        let p = d.join("state.bin");
        write_framed(&p, b"v1", &DurableCtx::disabled(), 3).unwrap();

        let plan = Arc::new(FaultPlan::seeded(3).fail_keys(
            SITE_WRITE_ENOSPC,
            &[mix(3, 0)],
            FaultAction::Panic,
        ));
        let ctx = DurableCtx::with_faults(plan).with_retry(RetryPolicy::once());
        let e = write_framed(&p, b"v2", &ctx, 3).expect_err("ENOSPC must fail");
        assert!(e.to_string().contains("ENOSPC"), "{e}");
        assert_eq!(read_framed(&p, &DurableCtx::disabled(), 3).unwrap(), b"v1");

        // Read-side corruption: one flipped bit in the buffer.
        let plan =
            Arc::new(FaultPlan::seeded(4).fail_keys(SITE_READ_CORRUPT, &[3], FaultAction::Panic));
        let rctx = DurableCtx::with_faults(plan);
        let e = read_framed(&p, &rctx, 3).expect_err("read corruption must be detected");
        assert!(
            matches!(
                e,
                DurableError::ChecksumMismatch { .. } | DurableError::BadFrame { .. }
            ),
            "{e}"
        );
        fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn transient_errors_retry_and_charge_the_manual_clock() {
        let d = tmpdir("retry");
        let p = d.join("state.bin");
        // Transient channel: FaultAction::Error on the torn site for
        // attempt 0 only — attempt 1 succeeds.
        let plan = Arc::new(FaultPlan::seeded(5).fail_keys(
            SITE_WRITE_TORN,
            &[mix(11, 0)],
            FaultAction::Error,
        ));
        let clock = Arc::new(ManualClock::new());
        let ctx = DurableCtx::with_faults(plan)
            .with_clock(Arc::clone(&clock))
            .with_retry(RetryPolicy {
                max_attempts: 3,
                backoff_us: 250,
            });
        write_framed(&p, b"eventually", &ctx, 11).unwrap();
        assert_eq!(read_framed(&p, &ctx, 11).unwrap(), b"eventually");
        assert_eq!(clock.now_us(), 250, "one backoff must have been charged");

        // Exhaustion: armed on every attempt.
        let plan = Arc::new(FaultPlan::seeded(5).fail_keys(
            SITE_WRITE_TORN,
            &[mix(12, 0), mix(12, 1), mix(12, 2)],
            FaultAction::Error,
        ));
        let ctx = DurableCtx::with_faults(plan).with_retry(RetryPolicy {
            max_attempts: 3,
            backoff_us: 0,
        });
        let e = write_framed(&p, b"never", &ctx, 12).expect_err("must exhaust");
        assert!(matches!(e, DurableError::RetriesExhausted { .. }), "{e}");
        fs::remove_dir_all(&d).ok();
    }
}
