//! The wire layouts of the runtime's types (wire format version 1;
//! DESIGN.md §6c has the byte tables): the executor's [`Msg`], and the
//! per-rank batch outcome a worker process reports to its driver.
//! [`crate::fault`] declares the fault plan's next to its types.
//!
//! The frame header ([`cip_transport::frame`]) already carries a
//! [`Msg`]'s tag and its bracketed `from`/`step`/`seq` fields, so
//! payloads hold only what is left. Positions travel as IEEE-754 bit
//! patterns, so every one round-trips bit-exactly (signed zeros and NaNs
//! included) and the TCP backend stays bit-identical to the in-process
//! oracle.

use crate::exec::{Msg, RankResult, ShippedElement};
use crate::pipeline::RankBatchOutcome;
use cip_transport::{codec_enum, codec_struct};

codec_enum!(framed Msg {
    1 => Halo { [from, step, seq] values },
    2 => Elements { [from, step, seq] items },
    3 => Done { [from, step] sent },
    4 => Resend { [from, step] seqs },
    5 => Complete { [from] },
    6 => Migrate { [from, step] nodes },
});

codec_struct!(ShippedElement { id, bbox, body });

codec_struct!(RankResult {
    pairs,
    halo_sent,
    shipments_sent,
    halo_msgs,
    ship_msgs,
    done_msgs,
    ghost_mismatches
});

// Tag 2 (`Lost` with a salvaged partial result) is retired and never
// reused.
codec_enum!(RankBatchOutcome {
    0 => Completed(done),
    1 => Dead { done },
    3 => Lost { done, dead },
});
