//! Seeded fuzz/property tests for the wire protocol and the
//! incremental frame assembler: arbitrary byte soup, truncations at
//! every boundary, bit flips and forged lengths must always produce a
//! clean verdict (a frame, a recoverable unknown-opcode, or a fatal
//! framing error) — never a panic, a hang, or unbounded buffering.
//!
//! Deterministic corpus via the repo-wide `case_rng` idiom: every case
//! derives from `(test_id, case)`, so failures replay exactly.

use mtsr_serve::protocol::{
    write_request, Assembled, FrameAssembler, FrameFatal, InferRequest, InferResponse, Opcode,
    ReloadRequest, ServerInfo, FRAME_HEADER, MAGIC_REQ, MAX_PAYLOAD,
};
use mtsr_tensor::Rng;

fn case_rng(test_id: u64, case: u64) -> Rng {
    Rng::seed_from(test_id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case)
}

fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.below(256) as u8).collect()
}

/// A valid frame with a random opcode (possibly unknown) and payload.
fn random_frame(rng: &mut Rng) -> (u8, u64, Vec<u8>, Vec<u8>) {
    let op = match rng.below(7) {
        // The five real opcodes, plus two unknown flavours.
        v @ 0..=4 => 1 + v as u8,
        5 => 0u8,
        _ => 6 + rng.below(200) as u8,
    };
    let id = rng.next_u64();
    let payload_len = rng.below(64);
    let payload = random_bytes(rng, payload_len);
    let mut frame = Vec::new();
    // write_request validates opcodes, so splice the byte in afterwards.
    write_request(&mut frame, Opcode::Status, id, &payload).unwrap();
    frame[4] = op;
    (op, id, payload, frame)
}

/// Feeds `bytes` to an assembler in random chunks, collecting verdicts.
/// Returns (frames-or-unknowns, fatal error if any).
fn run_assembler(rng: &mut Rng, bytes: &[u8]) -> (Vec<Assembled>, Option<FrameFatal>) {
    let mut asm = FrameAssembler::new();
    let mut out = Vec::new();
    let mut off = 0;
    while off < bytes.len() {
        let chunk = (1 + rng.below(97)).min(bytes.len() - off);
        asm.push(&bytes[off..off + chunk]);
        off += chunk;
        loop {
            match asm.next() {
                Ok(Some(a)) => out.push(a),
                Ok(None) => break,
                Err(fatal) => return (out, Some(fatal)),
            }
        }
    }
    (out, None)
}

/// Random byte soup: the assembler must terminate with a clean verdict
/// on every prefix and never buffer more than the declared frame needs.
#[test]
fn byte_soup_never_panics_or_overbuffers() {
    for case in 0..400u64 {
        let mut rng = case_rng(1, case);
        let len = 1 + rng.below(4096);
        let soup = random_bytes(&mut rng, len);
        let mut asm = FrameAssembler::new();
        let mut fatal = false;
        for chunk in soup.chunks(1 + rng.below(63)) {
            if fatal {
                break;
            }
            asm.push(chunk);
            loop {
                match asm.next() {
                    Ok(Some(_)) => {}
                    Ok(None) => break,
                    Err(_) => {
                        fatal = true;
                        break;
                    }
                }
            }
            // Un-consumed buffering is bounded by one full frame.
            assert!(asm.buffered() <= FRAME_HEADER + MAX_PAYLOAD as usize);
        }
    }
}

/// Streams of valid frames survive arbitrary re-chunking: every frame
/// comes back out with its opcode, id and payload intact, unknown
/// opcodes flagged but never desynchronizing the stream.
#[test]
fn valid_streams_reassemble_exactly_under_any_chunking() {
    for case in 0..200u64 {
        let mut rng = case_rng(2, case);
        let n = 1 + rng.below(8);
        let mut wire = Vec::new();
        let mut sent = Vec::new();
        for _ in 0..n {
            let (op, id, payload, frame) = random_frame(&mut rng);
            wire.extend_from_slice(&frame);
            sent.push((op, id, payload));
        }
        let (got, fatal) = run_assembler(&mut rng, &wire);
        assert!(fatal.is_none(), "case {case}: spurious fatal {fatal:?}");
        assert_eq!(got.len(), sent.len(), "case {case}");
        for (assembled, (op, id, payload)) in got.iter().zip(&sent) {
            match assembled {
                Assembled::Frame(req) => {
                    assert_eq!(req.op.to_u8(), *op, "case {case}");
                    assert_eq!(req.id, *id, "case {case}");
                    assert_eq!(&req.payload, payload, "case {case}");
                }
                Assembled::UnknownOpcode {
                    op: got_op,
                    id: got_id,
                } => {
                    assert!(Opcode::from_u8(*op).is_err(), "case {case}");
                    assert_eq!((got_op, got_id), (op, id), "case {case}");
                }
            }
        }
    }
}

/// Truncating a valid frame at every possible byte boundary must yield
/// "need more bytes" — never a partial frame, never an error for a
/// prefix that could still grow into the real frame.
#[test]
fn every_truncation_waits_for_more_bytes() {
    for case in 0..40u64 {
        let mut rng = case_rng(3, case);
        let (_, _, _, frame) = random_frame(&mut rng);
        for cut in 0..frame.len() {
            let mut asm = FrameAssembler::new();
            asm.push(&frame[..cut]);
            match asm.next() {
                Ok(None) => {}
                other => panic!("case {case} cut {cut}: unexpected {other:?}"),
            }
            // Completing the frame still works after the partial parse.
            asm.push(&frame[cut..]);
            match asm.next() {
                Ok(Some(_)) => {}
                other => panic!("case {case} cut {cut}: completion failed {other:?}"),
            }
        }
    }
}

/// Single-bit flips anywhere in a frame: the assembler must terminate
/// with a clean verdict, and flips inside the magic must always be
/// fatal `BadMagic` with nothing admitted.
#[test]
fn bit_flips_get_clean_verdicts() {
    for case in 0..300u64 {
        let mut rng = case_rng(4, case);
        let (_, _, _, mut frame) = random_frame(&mut rng);
        let bit = rng.below(frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);
        let magic_flip = bit / 8 < 4;
        let (got, fatal) = run_assembler(&mut rng, &frame);
        if magic_flip {
            assert!(got.is_empty(), "case {case}: admitted under broken magic");
            match fatal {
                Some(FrameFatal::BadMagic(m)) => assert_ne!(m, MAGIC_REQ, "case {case}"),
                other => panic!("case {case}: expected BadMagic, got {other:?}"),
            }
        }
        // Flips elsewhere may mutate the opcode, id, length or payload;
        // all are represented by some clean verdict (frame, unknown
        // opcode, oversize, or waiting for the longer declared length).
    }
}

/// The forged-length guard, exactly at the boundary: a declared payload
/// of `MAX_PAYLOAD` is legal (the assembler waits for it); one byte
/// more is rejected before anything is buffered.
#[test]
fn forged_length_guard_boundary_is_exact() {
    let header = |len: u32| {
        let mut h = Vec::new();
        write_request(&mut h, Opcode::Infer, 42, &[]).unwrap();
        h[13..17].copy_from_slice(&len.to_le_bytes());
        h
    };

    let mut asm = FrameAssembler::new();
    asm.push(&header(MAX_PAYLOAD));
    assert!(
        matches!(asm.next(), Ok(None)),
        "exactly MAX_PAYLOAD must be accepted"
    );

    let mut asm = FrameAssembler::new();
    asm.push(&header(MAX_PAYLOAD + 1));
    match asm.next() {
        Err(FrameFatal::Oversized { id: 42, len }) => assert_eq!(len, MAX_PAYLOAD + 1),
        other => panic!("MAX_PAYLOAD+1 must be fatal, got {other:?}"),
    }
}

/// Payload codecs under random input: decode never panics, and every
/// successful decode re-encodes to bytes that decode identically
/// (round-trip stability even for inputs we did not produce).
#[test]
fn payload_codecs_survive_random_input() {
    for case in 0..400u64 {
        let mut rng = case_rng(5, case);
        let len = rng.below(256);
        let bytes = random_bytes(&mut rng, len);
        if let Ok(req) = InferRequest::decode(&bytes) {
            let again = InferRequest::decode(&req.encode()).unwrap();
            assert_eq!(
                (again.model, again.s, again.h, again.w),
                (req.model, req.s, req.h, req.w)
            );
            assert_eq!(again.data.len(), req.data.len());
        }
        if let Ok(resp) = InferResponse::decode(&bytes) {
            let again = InferResponse::decode(&resp.encode()).unwrap();
            assert_eq!(
                (again.model, again.generation),
                (resp.model, resp.generation)
            );
        }
        if let Ok(rel) = ReloadRequest::decode(&bytes) {
            let again = ReloadRequest::decode(&rel.encode()).unwrap();
            assert_eq!((again.model, again.source), (rel.model, rel.source));
        }
        if let Ok(info) = ServerInfo::decode(&bytes) {
            let again = ServerInfo::decode(&info.encode()).unwrap();
            assert_eq!(again.model, info.model);
            assert_eq!(again.generation, info.generation);
        }
    }
}

/// The borrowed-window encoder the daemon's reply path uses must emit
/// exactly the owned encoder's bytes and round-trip every f32 bit
/// pattern (NaN payloads and signed zeros included) through `decode`.
#[test]
fn borrowed_window_encoder_round_trips_bit_for_bit() {
    for case in 0..200u64 {
        let mut rng = case_rng(6, case);
        let (h, w) = (rng.below(9) as u32, rng.below(9) as u32);
        let data: Vec<f32> = random_bytes(&mut rng, (h * w) as usize * 4)
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let (model, generation) = (rng.below(1 << 16) as u32, rng.below(1 << 16) as u32);
        let bytes = InferResponse::encode_window(model, generation, h, w, &data);
        let back = InferResponse::decode(&bytes).unwrap();
        assert_eq!(
            (back.model, back.generation, back.h, back.w),
            (model, generation, h, w),
            "case {case}"
        );
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.data), bits(&data), "case {case}");
        assert_eq!(
            back.encode(),
            bytes,
            "case {case}: owned and borrowed encoders differ"
        );
    }
}
