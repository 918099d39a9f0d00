//! The `mtsr serve` wire protocol: length-prefixed binary frames over
//! TCP, little-endian throughout, zero external dependencies.
//!
//! ```text
//! request  frame:  magic "MTRQ" u32 | opcode u8 | id u64 | len u32 | payload
//! response frame:  magic "MTRP" u32 | status u8 | id u64 | len u32 | payload
//! ```
//!
//! `id` is chosen by the client and echoed verbatim in the response, so a
//! client may pipeline many requests on one connection and match replies
//! arriving in *completion* order (the dynamic batcher does not preserve
//! submission order across batches).
//!
//! Opcodes: [`Opcode::Infer`] (low-res window in, high-res window out),
//! [`Opcode::Info`] (binary server geometry), [`Opcode::Status`]
//! (plaintext health/queue/latency report), [`Opcode::Shutdown`]
//! (graceful drain) and [`Opcode::Reload`] (zero-downtime model swap).
//! Every reply carries a [`RespStatus`]; `BUSY` is the backpressure
//! signal — the queue was full and the request was *not* admitted — and
//! `TIMEOUT` means the request missed its deadline while queued and was
//! never executed.
//!
//! # Multi-model tenancy
//!
//! One daemon serves many registered models (one per city / upscaling
//! factor). An [`InferRequest`] names its tenant with a `model` id;
//! replies echo the id plus the **plan generation** that served them —
//! a counter bumped by every hot reload, so a client can always tell
//! which weight snapshot produced a frame (the unit of the bit-identity
//! guarantee). [`Opcode::Info`] takes an optional 4-byte model id in its
//! payload and reports that tenant's geometry.
//!
//! # Incremental framing
//!
//! The readiness-polled server never blocks on a socket, so it cannot
//! use the blocking [`read_request`] path. [`FrameAssembler`] is the
//! non-blocking counterpart: bytes go in as they arrive, complete frames
//! come out; a partial frame simply stays buffered (slow senders hold
//! their own bytes, nobody else's thread). The 64 MiB cap is enforced on
//! the *length field* before any payload is buffered, so a forged length
//! can neither allocate nor accumulate unboundedly.

use std::io::{self, Read, Write};

/// Request-frame magic (`b"MTRQ"` little-endian).
pub const MAGIC_REQ: u32 = u32::from_le_bytes(*b"MTRQ");
/// Response-frame magic (`b"MTRP"` little-endian).
pub const MAGIC_RESP: u32 = u32::from_le_bytes(*b"MTRP");

/// Hard cap on any frame payload; a garbage length prefix must not make
/// the daemon allocate unboundedly.
pub const MAX_PAYLOAD: u32 = 1 << 26; // 64 MiB

/// Request operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Submit one low-res window; the reply carries the high-res window.
    Infer,
    /// Ask for the server's planned geometry ([`ServerInfo`]).
    Info,
    /// Ask for the plaintext status report.
    Status,
    /// Trigger a graceful drain: stop admitting, answer everything
    /// already queued, then exit.
    Shutdown,
    /// Swap a freshly planned checkpoint into one model slot without
    /// dropping a request ([`ReloadRequest`] payload). The `OK` reply
    /// carries the new plan generation as a little-endian `u32`.
    Reload,
    /// Submit the later-arriving fine-grained ground truth for an
    /// earlier `INFER` — the frame's `id` **reuses the `INFER`'s id** to
    /// pair them ([`TruthRequest`] payload). When the daemon still holds
    /// that prediction, the `OK` reply carries a [`TruthAck`] with the
    /// pair's score and the model's rolling drift gauge; when the
    /// prediction is unknown (late, evicted) the `OK` reply is empty.
    Truth,
}

impl Opcode {
    /// The wire byte for this opcode.
    pub fn to_u8(self) -> u8 {
        match self {
            Opcode::Infer => 1,
            Opcode::Info => 2,
            Opcode::Status => 3,
            Opcode::Shutdown => 4,
            Opcode::Reload => 5,
            Opcode::Truth => 6,
        }
    }

    /// Parses a wire byte; unknown values are an error (the framing
    /// layer reports them as recoverable [`Assembled::UnknownOpcode`]).
    pub fn from_u8(v: u8) -> io::Result<Self> {
        match v {
            1 => Ok(Opcode::Infer),
            2 => Ok(Opcode::Info),
            3 => Ok(Opcode::Status),
            4 => Ok(Opcode::Shutdown),
            5 => Ok(Opcode::Reload),
            6 => Ok(Opcode::Truth),
            other => Err(bad_data(format!("unknown opcode {other}"))),
        }
    }
}

/// Response disposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RespStatus {
    /// Request served; payload is the result.
    Ok,
    /// Backpressure: the request queue was full, the request was not
    /// admitted. Retry later (payload empty).
    Busy,
    /// The request was admitted but expired in the queue before an
    /// executor picked it up; it was never run.
    Timeout,
    /// Malformed or unservable request; payload is a UTF-8 message.
    Err,
    /// The server is draining and no longer admits work.
    Draining,
}

impl RespStatus {
    fn to_u8(self) -> u8 {
        match self {
            RespStatus::Ok => 0,
            RespStatus::Busy => 1,
            RespStatus::Timeout => 2,
            RespStatus::Err => 3,
            RespStatus::Draining => 4,
        }
    }

    fn from_u8(v: u8) -> io::Result<Self> {
        match v {
            0 => Ok(RespStatus::Ok),
            1 => Ok(RespStatus::Busy),
            2 => Ok(RespStatus::Timeout),
            3 => Ok(RespStatus::Err),
            4 => Ok(RespStatus::Draining),
            other => Err(bad_data(format!("unknown response status {other}"))),
        }
    }
}

/// A decoded request frame.
#[derive(Debug, Clone)]
pub struct Request {
    /// Requested operation.
    pub op: Opcode,
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// Opcode-specific payload.
    pub payload: Vec<u8>,
}

/// A decoded response frame.
#[derive(Debug, Clone)]
pub struct Response {
    /// Disposition of the request with the same `id`.
    pub status: RespStatus,
    /// Echo of the request id.
    pub id: u64,
    /// Status/opcode-specific payload.
    pub payload: Vec<u8>,
}

impl Response {
    /// An empty-payload response.
    pub fn empty(status: RespStatus, id: u64) -> Response {
        Response {
            status,
            id,
            payload: Vec::new(),
        }
    }

    /// An `ERR` response with a UTF-8 message payload.
    pub fn error(id: u64, msg: impl Into<String>) -> Response {
        Response {
            status: RespStatus::Err,
            id,
            payload: msg.into().into_bytes(),
        }
    }
}

fn bad_data(reason: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason)
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_payload(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let len = read_u32(r)?;
    if len > MAX_PAYLOAD {
        return Err(bad_data(format!(
            "payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte frame cap"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Writes one request frame.
pub fn write_request(w: &mut impl Write, op: Opcode, id: u64, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize);
    w.write_all(&MAGIC_REQ.to_le_bytes())?;
    w.write_all(&[op.to_u8()])?;
    w.write_all(&id.to_le_bytes())?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one request frame. The caller is expected to have consumed the
/// 4 magic bytes already (see [`read_request`]) when using the split
/// variant; this function reads a whole frame.
pub fn read_request(r: &mut impl Read) -> io::Result<Request> {
    let magic = read_u32(r)?;
    read_request_after_magic(r, magic)
}

/// Reads the remainder of a request frame once `magic` has been read —
/// lets a polling server loop check the shutdown flag between frames
/// without ever splitting a frame.
pub fn read_request_after_magic(r: &mut impl Read, magic: u32) -> io::Result<Request> {
    if magic != MAGIC_REQ {
        return Err(bad_data(format!(
            "bad request magic {magic:#010x} (expected {MAGIC_REQ:#010x})"
        )));
    }
    let op = Opcode::from_u8(read_u8(r)?)?;
    let id = read_u64(r)?;
    let payload = read_payload(r)?;
    Ok(Request { op, id, payload })
}

/// Writes one response frame.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    debug_assert!(resp.payload.len() <= MAX_PAYLOAD as usize);
    w.write_all(&MAGIC_RESP.to_le_bytes())?;
    w.write_all(&[resp.status.to_u8()])?;
    w.write_all(&resp.id.to_le_bytes())?;
    w.write_all(&(resp.payload.len() as u32).to_le_bytes())?;
    w.write_all(&resp.payload)?;
    w.flush()
}

/// Reads one response frame.
pub fn read_response(r: &mut impl Read) -> io::Result<Response> {
    let magic = read_u32(r)?;
    if magic != MAGIC_RESP {
        return Err(bad_data(format!(
            "bad response magic {magic:#010x} (expected {MAGIC_RESP:#010x})"
        )));
    }
    let status = RespStatus::from_u8(read_u8(r)?)?;
    let id = read_u64(r)?;
    let payload = read_payload(r)?;
    Ok(Response {
        status,
        id,
        payload,
    })
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

fn push_f32s(out: &mut Vec<u8>, data: &[f32]) {
    out.reserve(data.len() * 4);
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn parse_f32s(bytes: &[u8]) -> io::Result<Vec<f32>> {
    if !bytes.len().is_multiple_of(4) {
        return Err(bad_data(format!(
            "f32 payload of {} bytes is not 4-aligned",
            bytes.len()
        )));
    }
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

fn field_u32(bytes: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
}

/// Payload of an [`Opcode::Infer`] request: one `[s, h, w]` low-res
/// window plus its tenant model id and per-request deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct InferRequest {
    /// Registered model this window is routed to (0 = first model).
    pub model: u32,
    /// Per-request deadline in milliseconds; 0 selects the server default.
    pub deadline_ms: u32,
    /// Temporal length of the window.
    pub s: u32,
    /// Window height (coarse cells).
    pub h: u32,
    /// Window width (coarse cells).
    pub w: u32,
    /// `s·h·w` row-major normalized traffic values.
    pub data: Vec<f32>,
}

impl InferRequest {
    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + self.data.len() * 4);
        for v in [self.model, self.deadline_ms, self.s, self.h, self.w] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        push_f32s(&mut out, &self.data);
        out
    }

    /// Parses the payload, validating the element count.
    pub fn decode(bytes: &[u8]) -> io::Result<InferRequest> {
        if bytes.len() < 20 {
            return Err(bad_data("INFER payload shorter than its header".into()));
        }
        let (model, deadline_ms, s, h, w) = (
            field_u32(bytes, 0),
            field_u32(bytes, 4),
            field_u32(bytes, 8),
            field_u32(bytes, 12),
            field_u32(bytes, 16),
        );
        let data = parse_f32s(&bytes[20..])?;
        // u128 math: a forged [s, h, w] of u32::MAX each reaches 2^96.
        let want = (s as u128) * (h as u128) * (w as u128);
        if data.len() as u128 != want {
            return Err(bad_data(format!(
                "INFER window [{s}, {h}, {w}] wants {want} values, payload has {}",
                data.len()
            )));
        }
        Ok(InferRequest {
            model,
            deadline_ms,
            s,
            h,
            w,
            data,
        })
    }
}

/// Payload of a successful [`Opcode::Infer`] response: the high-res
/// `[h, w]` window, stamped with the model and plan generation that
/// produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// The model that served the window (echo of the request's id).
    pub model: u32,
    /// Plan generation of the weights that produced the window; bumped
    /// by every hot reload of this model.
    pub generation: u32,
    /// Fine window height.
    pub h: u32,
    /// Fine window width.
    pub w: u32,
    /// `h·w` row-major normalized predictions.
    pub data: Vec<f32>,
}

impl InferResponse {
    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        InferResponse::encode_window(self.model, self.generation, self.h, self.w, &self.data)
    }

    /// [`InferResponse::encode`] over a borrowed `h·w` window — the
    /// daemon's reply path serialises straight from the executor's
    /// output lane without first owning a copy of it.
    pub fn encode_window(model: u32, generation: u32, h: u32, w: u32, data: &[f32]) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + data.len() * 4);
        for v in [model, generation, h, w] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        push_f32s(&mut out, data);
        out
    }

    /// Parses the payload, validating the element count.
    pub fn decode(bytes: &[u8]) -> io::Result<InferResponse> {
        if bytes.len() < 16 {
            return Err(bad_data("INFER response shorter than its header".into()));
        }
        let (model, generation, h, w) = (
            field_u32(bytes, 0),
            field_u32(bytes, 4),
            field_u32(bytes, 8),
            field_u32(bytes, 12),
        );
        let data = parse_f32s(&bytes[16..])?;
        if data.len() as u64 != (h as u64) * (w as u64) {
            return Err(bad_data(format!(
                "INFER response [{h}, {w}] wants {} values, payload has {}",
                (h as u64) * (w as u64),
                data.len()
            )));
        }
        Ok(InferResponse {
            model,
            generation,
            h,
            w,
            data,
        })
    }
}

/// Payload of an [`Opcode::Reload`] request: which model slot to swap
/// and where the fresh checkpoint lives. An empty source asks the
/// server to re-plan from the model's currently recorded source (the
/// SIGHUP semantics, available per-model over the wire).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadRequest {
    /// Registered model slot to swap.
    pub model: u32,
    /// Checkpoint source (a path for the daemon's planner); empty means
    /// "re-plan from the recorded source".
    pub source: String,
}

impl ReloadRequest {
    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.source.len());
        out.extend_from_slice(&self.model.to_le_bytes());
        out.extend_from_slice(self.source.as_bytes());
        out
    }

    /// Parses the payload.
    pub fn decode(bytes: &[u8]) -> io::Result<ReloadRequest> {
        if bytes.len() < 4 {
            return Err(bad_data("RELOAD payload shorter than its header".into()));
        }
        let model = field_u32(bytes, 0);
        let source = std::str::from_utf8(&bytes[4..])
            .map_err(|e| bad_data(format!("RELOAD source is not UTF-8: {e}")))?
            .to_string();
        Ok(ReloadRequest { model, source })
    }
}

/// Payload of an [`Opcode::Truth`] request: the fine-grained `[h, w]`
/// ground-truth window for the `INFER` whose id this frame reuses.
#[derive(Debug, Clone, PartialEq)]
pub struct TruthRequest {
    /// Model the paired `INFER` was routed to.
    pub model: u32,
    /// Truth window height (fine cells).
    pub h: u32,
    /// Truth window width (fine cells).
    pub w: u32,
    /// `h·w` row-major normalized ground-truth values.
    pub data: Vec<f32>,
}

impl TruthRequest {
    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.data.len() * 4);
        for v in [self.model, self.h, self.w] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        push_f32s(&mut out, &self.data);
        out
    }

    /// Parses the payload, validating the element count.
    pub fn decode(bytes: &[u8]) -> io::Result<TruthRequest> {
        if bytes.len() < 12 {
            return Err(bad_data("TRUTH payload shorter than its header".into()));
        }
        let (model, h, w) = (
            field_u32(bytes, 0),
            field_u32(bytes, 4),
            field_u32(bytes, 8),
        );
        let data = parse_f32s(&bytes[12..])?;
        if data.len() as u64 != (h as u64) * (w as u64) {
            return Err(bad_data(format!(
                "TRUTH window [{h}, {w}] wants {} values, payload has {}",
                (h as u64) * (w as u64),
                data.len()
            )));
        }
        Ok(TruthRequest { model, h, w, data })
    }
}

/// Payload of a *matched* [`Opcode::Truth`] `OK` response. An unmatched
/// truth gets an empty `OK` payload instead — clients distinguish the
/// two by payload length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruthAck {
    /// Range-normalised RMSE of this one prediction↔truth pair.
    pub window_nrmse: f32,
    /// The model's rolling drift gauge after folding this pair in.
    pub rolling_nrmse: f32,
}

impl TruthAck {
    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8);
        out.extend_from_slice(&self.window_nrmse.to_le_bytes());
        out.extend_from_slice(&self.rolling_nrmse.to_le_bytes());
        out
    }

    /// Parses the payload.
    pub fn decode(bytes: &[u8]) -> io::Result<TruthAck> {
        if bytes.len() != 8 {
            return Err(bad_data(format!(
                "TRUTH ack must be 8 bytes, got {}",
                bytes.len()
            )));
        }
        let bits = |off: usize| {
            f32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]])
        };
        Ok(TruthAck {
            window_nrmse: bits(0),
            rolling_nrmse: bits(4),
        })
    }
}

/// Payload of an [`Opcode::Info`] response: the geometry one registered
/// model's plan is specialised for, so clients can size windows without
/// out-of-band configuration. An [`Opcode::Info`] *request* carries
/// either an empty payload (model 0) or a 4-byte little-endian model id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// The model this geometry describes.
    pub model: u32,
    /// The model's current plan generation.
    pub generation: u32,
    /// Number of models registered in the daemon.
    pub model_count: u32,
    /// Temporal length the plan expects.
    pub s: u32,
    /// Coarse window height.
    pub h: u32,
    /// Coarse window width.
    pub w: u32,
    /// Fine (output) window height.
    pub out_h: u32,
    /// Fine (output) window width.
    pub out_w: u32,
    /// Max windows coalesced per executor replay.
    pub batch: u32,
    /// Bounded request-queue capacity.
    pub queue_cap: u32,
    /// Server default deadline in milliseconds.
    pub deadline_ms: u32,
    /// Fuse policy the model's plan was built with: 0 = exact,
    /// 1 = folded, 2 = quantized (see [`ServerInfo::fuse_name`]).
    pub fuse: u32,
}

impl ServerInfo {
    /// Human-readable name of the [`ServerInfo::fuse`] code.
    pub fn fuse_name(&self) -> &'static str {
        match self.fuse {
            0 => "exact",
            1 => "folded",
            2 => "quantized",
            _ => "unknown",
        }
    }

    /// Serialises the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        for v in [
            self.model,
            self.generation,
            self.model_count,
            self.s,
            self.h,
            self.w,
            self.out_h,
            self.out_w,
            self.batch,
            self.queue_cap,
            self.deadline_ms,
            self.fuse,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Parses the payload.
    pub fn decode(bytes: &[u8]) -> io::Result<ServerInfo> {
        if bytes.len() != 48 {
            return Err(bad_data(format!(
                "INFO payload must be 48 bytes, got {}",
                bytes.len()
            )));
        }
        Ok(ServerInfo {
            model: field_u32(bytes, 0),
            generation: field_u32(bytes, 4),
            model_count: field_u32(bytes, 8),
            s: field_u32(bytes, 12),
            h: field_u32(bytes, 16),
            w: field_u32(bytes, 20),
            out_h: field_u32(bytes, 24),
            out_w: field_u32(bytes, 28),
            batch: field_u32(bytes, 32),
            queue_cap: field_u32(bytes, 36),
            deadline_ms: field_u32(bytes, 40),
            fuse: field_u32(bytes, 44),
        })
    }
}

// ---------------------------------------------------------------------------
// Incremental framing for the non-blocking event loop
// ---------------------------------------------------------------------------

/// Bytes in a request-frame header: magic(4) + opcode(1) + id(8) + len(4).
pub const FRAME_HEADER: usize = 17;

/// One outcome of [`FrameAssembler::next`].
#[derive(Debug)]
pub enum Assembled {
    /// A complete, well-formed request frame.
    Frame(Request),
    /// The header was intact (magic and length sane) but the opcode is
    /// unknown. The whole frame has been consumed, so the stream is
    /// still in sync — answer `ERR` with the echoed id and keep going.
    UnknownOpcode {
        /// The unrecognised opcode byte.
        op: u8,
        /// The client-chosen id, still echoable.
        id: u64,
    },
}

/// An unrecoverable framing violation: the stream can no longer be
/// resynchronised and the connection must be closed (after a
/// best-effort `ERR` reply).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameFatal {
    /// The 4 bytes where a frame must start are not `MTRQ`.
    BadMagic(u32),
    /// The length field exceeds [`MAX_PAYLOAD`]; detected before any
    /// payload byte is buffered. The id was already parsed, so the
    /// server can still address its final `ERR`.
    Oversized {
        /// The client-chosen id of the oversized frame.
        id: u64,
        /// The forged length field.
        len: u32,
    },
}

impl std::fmt::Display for FrameFatal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameFatal::BadMagic(m) => {
                write!(
                    f,
                    "bad request magic {m:#010x} (expected {MAGIC_REQ:#010x})"
                )
            }
            FrameFatal::Oversized { id, len } => write!(
                f,
                "request {id} payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte frame cap"
            ),
        }
    }
}

/// Incremental request-frame parser for non-blocking sockets: feed
/// whatever bytes arrived with [`push`](Self::push), then drain complete
/// frames with [`next`](Self::next). A partial frame stays buffered
/// (that is the whole slow-loris story: the sender's bytes wait in *its*
/// connection's buffer, no thread waits with them).
///
/// Memory is bounded: the length field is validated against
/// [`MAX_PAYLOAD`] as soon as the header is complete, so no input can
/// force more than one maximal frame to accumulate between `next` calls.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    start: usize,
}

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> FrameAssembler {
        FrameAssembler::default()
    }

    /// Appends freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (incomplete-frame backlog).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    fn u32_at(&self, off: usize) -> u32 {
        field_u32(&self.buf, self.start + off)
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        // Compact once the dead prefix dominates, so a long-lived
        // connection does not grow its buffer without bound.
        if self.start >= 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Extracts the next complete frame, `Ok(None)` if more bytes are
    /// needed, or a [`FrameFatal`] if the stream is unrecoverable.
    ///
    /// Not an [`Iterator`]: the `Result<Option<..>>` shape distinguishes
    /// "need more bytes" from "stream is dead", which `Iterator::next`
    /// cannot express.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Assembled>, FrameFatal> {
        let avail = self.buffered();
        if avail < 4 {
            return Ok(None);
        }
        let magic = self.u32_at(0);
        if magic != MAGIC_REQ {
            return Err(FrameFatal::BadMagic(magic));
        }
        if avail < FRAME_HEADER {
            return Ok(None);
        }
        let op = self.buf[self.start + 4];
        let id = u64::from(self.u32_at(5)) | (u64::from(self.u32_at(9)) << 32);
        let len = self.u32_at(13);
        if len > MAX_PAYLOAD {
            return Err(FrameFatal::Oversized { id, len });
        }
        let total = FRAME_HEADER + len as usize;
        if avail < total {
            return Ok(None);
        }
        let payload_at = self.start + FRAME_HEADER;
        let assembled = match Opcode::from_u8(op) {
            Ok(op) => Assembled::Frame(Request {
                op,
                id,
                payload: self.buf[payload_at..payload_at + len as usize].to_vec(),
            }),
            Err(_) => Assembled::UnknownOpcode { op, id },
        };
        self.consume(total);
        Ok(Some(assembled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_request(&mut buf, Opcode::Infer, 7, &[1, 2, 3]).unwrap();
        let req = read_request(&mut buf.as_slice()).unwrap();
        assert_eq!((req.op, req.id), (Opcode::Infer, 7));
        assert_eq!(req.payload, vec![1, 2, 3]);

        let mut buf = Vec::new();
        let resp = Response {
            status: RespStatus::Busy,
            id: 9,
            payload: Vec::new(),
        };
        write_response(&mut buf, &resp).unwrap();
        let back = read_response(&mut buf.as_slice()).unwrap();
        assert_eq!((back.status, back.id), (RespStatus::Busy, 9));
    }

    #[test]
    fn rejects_bad_magic_and_oversized_payloads() {
        let mut buf = Vec::new();
        write_request(&mut buf, Opcode::Status, 1, &[]).unwrap();
        buf[0] ^= 0xFF;
        assert!(read_request(&mut buf.as_slice()).is_err());

        // A forged length prefix beyond MAX_PAYLOAD is rejected before
        // any allocation of that size.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_REQ.to_le_bytes());
        buf.push(1);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_request(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn infer_payloads_roundtrip_and_validate() {
        let req = InferRequest {
            model: 3,
            deadline_ms: 250,
            s: 2,
            h: 3,
            w: 3,
            data: (0..18).map(|i| i as f32 * 0.5).collect(),
        };
        assert_eq!(InferRequest::decode(&req.encode()).unwrap(), req);
        // Element-count mismatch is detected.
        let mut short = req.clone();
        short.data.pop();
        assert!(InferRequest::decode(&short.encode()).is_err());

        let resp = InferResponse {
            model: 3,
            generation: 7,
            h: 6,
            w: 6,
            data: (0..36).map(|i| i as f32).collect(),
        };
        assert_eq!(InferResponse::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn reload_payloads_roundtrip() {
        let req = ReloadRequest {
            model: 2,
            source: "/tmp/up10.ckpt".into(),
        };
        assert_eq!(ReloadRequest::decode(&req.encode()).unwrap(), req);
        let empty = ReloadRequest {
            model: 0,
            source: String::new(),
        };
        assert_eq!(ReloadRequest::decode(&empty.encode()).unwrap(), empty);
        assert!(ReloadRequest::decode(&[0u8; 3]).is_err());
        assert!(ReloadRequest::decode(&[0, 0, 0, 0, 0xFF, 0xFE]).is_err());
    }

    #[test]
    fn truth_payloads_roundtrip_and_validate() {
        let req = TruthRequest {
            model: 1,
            h: 4,
            w: 4,
            data: (0..16).map(|i| i as f32 * 0.25).collect(),
        };
        assert_eq!(TruthRequest::decode(&req.encode()).unwrap(), req);
        let mut short = req.clone();
        short.data.pop();
        assert!(TruthRequest::decode(&short.encode()).is_err());
        assert!(TruthRequest::decode(&[0u8; 11]).is_err());

        let ack = TruthAck {
            window_nrmse: 0.25,
            rolling_nrmse: 0.75,
        };
        assert_eq!(TruthAck::decode(&ack.encode()).unwrap(), ack);
        assert!(TruthAck::decode(&[0u8; 7]).is_err());
    }

    #[test]
    fn info_roundtrips() {
        let info = ServerInfo {
            model: 1,
            generation: 4,
            model_count: 2,
            s: 3,
            h: 5,
            w: 5,
            out_h: 20,
            out_w: 20,
            batch: 8,
            queue_cap: 64,
            deadline_ms: 2000,
            fuse: 2,
        };
        assert_eq!(ServerInfo::decode(&info.encode()).unwrap(), info);
        assert_eq!(info.fuse_name(), "quantized");
        assert!(ServerInfo::decode(&[0u8; 31]).is_err());
    }

    #[test]
    fn assembler_reproduces_byte_at_a_time_frames() {
        let mut wire = Vec::new();
        write_request(&mut wire, Opcode::Infer, 0xABCD_EF01_2345_6789, &[9, 8, 7]).unwrap();
        write_request(&mut wire, Opcode::Status, 2, &[]).unwrap();

        let mut asm = FrameAssembler::new();
        let mut frames = Vec::new();
        for b in &wire {
            asm.push(std::slice::from_ref(b));
            while let Some(f) = asm.next().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        match &frames[0] {
            Assembled::Frame(req) => {
                assert_eq!((req.op, req.id), (Opcode::Infer, 0xABCD_EF01_2345_6789));
                assert_eq!(req.payload, vec![9, 8, 7]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn assembler_flags_unknown_opcode_but_stays_in_sync() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC_REQ.to_le_bytes());
        wire.push(99); // unknown opcode
        wire.extend_from_slice(&41u64.to_le_bytes());
        wire.extend_from_slice(&2u32.to_le_bytes());
        wire.extend_from_slice(&[1, 2]);
        write_request(&mut wire, Opcode::Status, 42, &[]).unwrap();

        let mut asm = FrameAssembler::new();
        asm.push(&wire);
        match asm.next().unwrap() {
            Some(Assembled::UnknownOpcode { op: 99, id: 41 }) => {}
            other => panic!("unexpected {other:?}"),
        }
        // The following frame parses cleanly: the bad frame was skipped
        // whole, so the stream never desynchronised.
        match asm.next().unwrap() {
            Some(Assembled::Frame(req)) => assert_eq!((req.op, req.id), (Opcode::Status, 42)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn assembler_rejects_bad_magic_and_oversized_before_buffering() {
        let mut asm = FrameAssembler::new();
        asm.push(b"JUNK");
        assert!(matches!(asm.next(), Err(FrameFatal::BadMagic(_))));

        // Forged length: detected from the 17 header bytes alone.
        let mut asm = FrameAssembler::new();
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC_REQ.to_le_bytes());
        wire.push(1);
        wire.extend_from_slice(&7u64.to_le_bytes());
        wire.extend_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        asm.push(&wire);
        match asm.next() {
            Err(FrameFatal::Oversized { id: 7, len }) => assert_eq!(len, MAX_PAYLOAD + 1),
            other => panic!("unexpected {other:?}"),
        }
    }
}
