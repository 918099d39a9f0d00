//! The lane-prefix differential of `fused_inference.rs`, repeated under
//! every ISA tier this host can dispatch. Forcing an ISA is
//! process-global, so this sweep is the only test in its binary.

mod common;

use mtsr_tensor::isa::{dispatchable_isas, set_forced_isa};

#[test]
fn lane_prefixes_bit_equal_full_batch_on_every_isa() {
    for isa in dispatchable_isas() {
        set_forced_isa(Some(isa));
        common::lane_prefix_differential(isa.name());
    }
    set_forced_isa(None);
}
