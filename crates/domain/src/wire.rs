//! The wire format of an ESP-protected overlay link, and the only door
//! from this crate to `un_ipsec::esp`.
//!
//! A protected link seals a frame **once**, at its head, and opens it
//! once, at its tail; the sealed frame is what crosses every hop in
//! between. Its layout:
//!
//! ```text
//! | dst MAC (6) | src MAC (6) | 0x8100 | vid (2) | 0x88B5 | ESP payload            |
//! |<------------- outer header, 18 bytes --------------->| SPI | SEQ | IV | … | ICV |
//! ```
//!
//! * the two MACs are copied from the frame being sealed and mean
//!   nothing to the receiver;
//! * the 802.1Q tag carries the link's overlay vid — the one field a
//!   transit node reads: its `ovl-<vid>-transit` rule matches
//!   `in_port + vlan`, so its LSI-0 pops and pushes that tag on a frame
//!   whose payload it has no key for;
//! * EtherType `0x88B5` (IEEE 802 local experimental) says "sealed
//!   overlay frame";
//! * the ESP payload is `un_ipsec::esp`'s tunnel-mode layout, its inner
//!   packet the **whole** fabric-tagged frame the head node emitted,
//!   its own Ethernet header and vid tag included.
//!
//! Sealing adds [`OVERHEAD`] bytes plus 0–3 bytes of ESP padding. The
//! outer header is not authenticated and does not need to be: the SA
//! pair is the link's alone, so a sealed frame moved to another vid
//! meets another key.
//!
//! Both doors take a link's whole crossing at once — [`seal`] the frames
//! the head emitted, [`open`] the sealed frames that reached the tail —
//! and hand back one verdict per frame, in order, exactly as frame after
//! frame would: ESP packs the short frames of a burst into the lanes of
//! one wide cipher pass ([`esp::encapsulate_burst`],
//! [`esp::decapsulate_burst`]). A lone frame is a burst of one.

use std::fmt;

use un_ipsec::{esp, IpsecError, SecurityAssociation};
use un_packet::packet::{Packet, DEFAULT_HEADROOM};
use un_packet::EtherType;

/// Length of the outer L2 header in front of the ESP payload.
const OUTER_LEN: usize = 18;

/// Bytes sealing adds to a frame, ESP alignment padding (0–3) aside:
/// outer header, SPI + sequence number, IV, the two trailer bytes, ICV.
pub(crate) const OVERHEAD: usize =
    OUTER_LEN + esp::ESP_HEADER_LEN + esp::ESP_IV_LEN + 2 + esp::ESP_ICV_LEN;

const ETHERTYPE_SEALED: [u8; 2] = [0x88, 0xB5];
const MACS_LEN: usize = 12;

/// Why a frame could not be sealed or opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WireError {
    /// Too short: no room for two MACs (seal) or for the outer header
    /// (open).
    Runt,
    /// The outer header is not a sealed frame of this link: no 802.1Q
    /// tag, another vid, or another EtherType.
    NotSealed,
    /// ESP refused the frame (sequence overflow, replay, failed
    /// authentication, bad trailer, …).
    Esp(IpsecError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Runt => write!(f, "frame too short"),
            WireError::NotSealed => write!(f, "not a sealed frame of this link"),
            WireError::Esp(e) => write!(f, "{e}"),
        }
    }
}

/// Seal every frame of `frames` for the link tagged `vid` under its
/// outbound SA, pushing one verdict per frame onto `sealed`, in order. A
/// sealed frame is one allocation, adopted as a packet without a copy;
/// the metadata rides along. A runt is refused before ESP sees it, so it
/// takes no sequence number.
pub(crate) fn seal(
    sa_out: &mut SecurityAssociation,
    frames: &[Packet],
    vid: u16,
    sealed: &mut Vec<Result<Packet, WireError>>,
) {
    let sealable = |frame: &Packet| frame.len() >= MACS_LEN;
    let start = sealed.len();
    // A runt's verdict, or the slot ESP's verdict lands in.
    let slot = |frame| sealable(frame).then(Packet::default).ok_or(WireError::Runt);
    sealed.extend(frames.iter().map(slot));
    let mut slots = sealed[start..]
        .iter_mut()
        .zip(frames)
        .filter(|(_, frame)| sealable(frame));
    let inners = frames
        .iter()
        .filter(|frame| sealable(frame))
        .map(Packet::data);
    esp::encapsulate_burst(sa_out, inners, OUTER_LEN, |verdict| {
        let (slot, frame) = slots.next().expect("a slot per frame sealed");
        *slot = verdict.map_err(WireError::Esp).map(|mut buf| {
            buf[..MACS_LEN].copy_from_slice(&frame.data()[..MACS_LEN]);
            buf[12..14].copy_from_slice(&u16::from(EtherType::Vlan).to_be_bytes());
            buf[14..16].copy_from_slice(&(vid & 0x0fff).to_be_bytes());
            buf[16..OUTER_LEN].copy_from_slice(&ETHERTYPE_SEALED);
            let mut sealed = Packet::from_buffer(buf, 0);
            sealed.meta = frame.meta.clone();
            sealed
        });
    });
}

/// The ESP payload of a frame [`seal`] produced for the link tagged
/// `vid`, or why its outer header says it is not one.
fn esp_payload(sealed: &Packet, vid: u16) -> Result<&[u8], WireError> {
    let (outer, payload) = sealed
        .data()
        .split_first_chunk::<OUTER_LEN>()
        .ok_or(WireError::Runt)?;
    if sealed.vlan_id() != Some(vid & 0x0fff) || outer[16..] != ETHERTYPE_SEALED {
        return Err(WireError::NotSealed);
    }
    Ok(payload)
}

/// Open every frame of `frames` — each one [`seal`] produced for the
/// link tagged `vid` — under its inbound SA, pushing one verdict per
/// frame onto `opened`, in order: outer header, then replay check,
/// authentication, open and trailer. A frame handed back is its
/// decrypted buffer itself, behind the default headroom.
pub(crate) fn open<'a>(
    sa_in: &mut SecurityAssociation,
    frames: impl Iterator<Item = &'a Packet> + Clone,
    vid: u16,
    opened: &mut Vec<Result<Packet, WireError>>,
) {
    let start = opened.len();
    // An outer header's refusal, or the slot ESP's verdict lands in.
    let slot = |frame| esp_payload(frame, vid).map(|_| Packet::default());
    opened.extend(frames.clone().map(slot));
    let mut slots = opened[start..]
        .iter_mut()
        .zip(frames.clone())
        .filter(|(slot, _)| slot.is_ok());
    let payloads = frames.filter_map(|frame| esp_payload(frame, vid).ok());
    esp::decapsulate_burst(sa_in, payloads, DEFAULT_HEADROOM, |verdict| {
        let (slot, sealed) = slots.next().expect("a slot per frame opened");
        *slot = verdict.map_err(WireError::Esp).map(|buf| {
            let mut frame = Packet::from_buffer(buf, DEFAULT_HEADROOM);
            frame.meta = sealed.meta.clone();
            frame
        });
    });
}

#[cfg(test)]
mod tests {
    use std::net::Ipv4Addr;

    use proptest::prelude::*;
    use un_ipsec::replay::ReplayVerdict;
    use un_packet::ethernet::MacAddr;
    use un_packet::PacketBuilder;

    use super::*;

    const VID: u16 = 3001;

    fn pair() -> (SecurityAssociation, SecurityAssociation) {
        let a = Ipv4Addr::new(10, 255, 255, 1);
        let b = Ipv4Addr::new(10, 255, 255, 2);
        SecurityAssociation::derive_pair(b"wire-tests", b"link", 7, a, b)
    }

    /// A burst of one through [`seal`].
    fn seal_one(
        sa_out: &mut SecurityAssociation,
        frame: Packet,
        vid: u16,
    ) -> Result<Packet, WireError> {
        let mut sealed = Vec::new();
        seal(sa_out, &[frame], vid, &mut sealed);
        assert_eq!(sealed.len(), 1, "one verdict per frame");
        sealed.pop().unwrap()
    }

    /// A burst of one through [`open`].
    fn open_one(
        sa_in: &mut SecurityAssociation,
        sealed: Packet,
        vid: u16,
    ) -> Result<Packet, WireError> {
        let mut opened = Vec::new();
        open(sa_in, [&sealed].into_iter(), vid, &mut opened);
        assert_eq!(opened.len(), 1, "one verdict per frame");
        opened.pop().unwrap()
    }

    /// A fabric-tagged frame as a head node's LSI-0 emits it.
    fn fabric_frame(payload: &[u8]) -> Packet {
        let mut p = PacketBuilder::new()
            .ethernet(MacAddr::local(1), MacAddr::local(2))
            .vlan(VID)
            .ipv4(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(192, 0, 2, 9))
            .udp(5000, 5001)
            .payload(payload)
            .build();
        p.meta.fwmark = 0x51;
        p
    }

    #[test]
    fn a_sealed_frame_is_switchable_and_opens_to_the_same_packet() {
        let (mut tx, mut rx) = pair();
        for len in [0usize, 1, 2, 3, 64, 1400] {
            let frame = fabric_frame(&vec![0xAB; len]);
            let mut sealed = seal_one(&mut tx, frame.clone(), VID).unwrap();
            let pad = (4 - (frame.len() + 2) % 4) % 4;
            assert_eq!(sealed.len(), frame.len() + OVERHEAD + pad, "len {len}");
            assert_eq!(sealed.data()[..MACS_LEN], frame.data()[..MACS_LEN]);
            assert_eq!(sealed.data()[16..18], ETHERTYPE_SEALED);
            // What a transit LSI-0 does to it: read the vid, pop, push.
            assert_eq!(sealed.vlan_id(), Some(VID));
            assert_eq!(sealed.vlan_pop().unwrap(), VID);
            sealed.vlan_push(VID).unwrap();
            let opened = open_one(&mut rx, sealed, VID).unwrap();
            assert_eq!(opened, frame, "bytes and metadata, len {len}");
        }
        assert_eq!((tx.packets, rx.packets), (6, 6));
    }

    #[test]
    fn the_payload_never_shows_in_the_sealed_frame() {
        let (mut tx, _) = pair();
        let payload: Vec<u8> = (0..128u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let sealed = seal_one(&mut tx, fabric_frame(&payload), VID).unwrap();
        for window in payload.windows(16) {
            assert!(!sealed.data().windows(16).any(|w| w == window));
        }
    }

    #[test]
    fn each_way_to_refuse_a_frame_is_typed() {
        let (mut tx, mut rx) = pair();
        let sealed = seal_one(&mut tx, fabric_frame(b"payload"), VID).unwrap();

        let mut other_type = sealed.clone();
        other_type.data_mut()[16..18].copy_from_slice(&[0x08, 0x00]);
        assert_eq!(
            open_one(&mut rx, other_type, VID),
            Err(WireError::NotSealed)
        );
        let mut untagged = sealed.clone();
        untagged.vlan_pop().unwrap();
        assert_eq!(open_one(&mut rx, untagged, VID), Err(WireError::NotSealed));
        assert_eq!(
            open_one(&mut rx, sealed.clone(), VID + 1),
            Err(WireError::NotSealed)
        );
        // A plaintext fabric frame is not a sealed one either.
        assert_eq!(
            open_one(&mut rx, fabric_frame(b"payload"), VID),
            Err(WireError::NotSealed)
        );

        let mut cut = sealed.clone();
        cut.truncate(OUTER_LEN - 1);
        assert_eq!(open_one(&mut rx, cut, VID), Err(WireError::Runt));
        let mut cut = sealed.clone();
        cut.truncate(OUTER_LEN + 20);
        assert_eq!(
            open_one(&mut rx, cut, VID),
            Err(WireError::Esp(IpsecError::Truncated))
        );
        let mut cut = sealed.clone();
        cut.truncate(sealed.len() - 1);
        assert_eq!(
            open_one(&mut rx, cut, VID),
            Err(WireError::Esp(IpsecError::AuthFailed))
        );

        // None of the refusals above slid the replay window.
        assert!(open_one(&mut rx, sealed.clone(), VID).is_ok());
        assert_eq!(
            open_one(&mut rx, sealed, VID),
            Err(WireError::Esp(IpsecError::Replay(ReplayVerdict::Replayed)))
        );

        assert_eq!(
            seal_one(&mut tx, Packet::from_slice(&[0; 11]), VID),
            Err(WireError::Runt)
        );
        assert_eq!(
            seal_one(&mut rx, fabric_frame(b"x"), VID),
            Err(WireError::Esp(IpsecError::WrongDirection))
        );
        tx.seq_out = u32::MAX;
        assert_eq!(
            seal_one(&mut tx, fabric_frame(b"x"), VID),
            Err(WireError::Esp(IpsecError::SeqOverflow))
        );
    }

    /// A burst with runts, foreign frames, a duplicate and a forgery
    /// among good frames gives, frame by frame, the verdicts and bytes
    /// of bursts of one on twin SAs.
    #[test]
    fn a_burst_is_its_frames_one_by_one() {
        let (mut tx, mut rx) = pair();
        let (mut tx1, mut rx1) = pair();
        let mut frames: Vec<Packet> = (0..40)
            .map(|i| fabric_frame(&vec![i as u8; i * 7]))
            .collect();
        frames[3] = Packet::from_slice(&[0; 11]);
        frames[17] = Packet::from_slice(&[7; 5]);

        let mut sealed = Vec::new();
        seal(&mut tx, &frames, VID, &mut sealed);
        let one_by_one: Vec<_> = frames
            .iter()
            .map(|f| seal_one(&mut tx1, f.clone(), VID))
            .collect();
        assert_eq!(sealed, one_by_one);
        assert_eq!(
            (tx.seq_out, tx.packets, tx.bytes),
            (tx1.seq_out, tx1.packets, tx1.bytes)
        );
        assert_eq!(sealed[3], Err(WireError::Runt));

        let mut wire: Vec<Packet> = sealed.into_iter().flatten().collect();
        wire[5] = wire[4].clone();
        wire[9].data_mut()[OUTER_LEN + 30] ^= 0x40;
        wire[12] = fabric_frame(b"plaintext");
        wire.swap(20, 30);
        let mut opened = Vec::new();
        open(&mut rx, wire.iter(), VID, &mut opened);
        let one_by_one: Vec<_> = wire
            .iter()
            .map(|f| open_one(&mut rx1, f.clone(), VID))
            .collect();
        assert_eq!(opened, one_by_one);
        assert_eq!(
            opened[5],
            Err(WireError::Esp(IpsecError::Replay(ReplayVerdict::Replayed)))
        );
        assert_eq!(opened[9], Err(WireError::Esp(IpsecError::AuthFailed)));
        assert_eq!(opened[12], Err(WireError::NotSealed));
        assert_eq!(opened[0], Ok(frames[0].clone()));
        assert_eq!(
            (rx.replay.top(), rx.packets, rx.bytes),
            (rx1.replay.top(), rx1.packets, rx1.bytes)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Hostile input on the one format this crate parses: a sealed
        /// frame with any one byte behind the outer header flipped is
        /// refused, and whatever else is done to it — cut anywhere,
        /// spliced with noise — comes back as a verdict, never a panic.
        /// The genuine frame still opens afterwards.
        #[test]
        fn a_mutated_frame_is_refused_not_a_panic(
            payload in prop::collection::vec(any::<u8>(), 0..300),
            at in any::<u16>(),
            flip in 1u8..=255,
            cut in any::<u16>(),
            noise in prop::collection::vec(any::<u8>(), 0..40),
        ) {
            let (mut tx, mut rx) = pair();
            let sealed = seal_one(&mut tx, fabric_frame(&payload), VID).unwrap();

            let at = OUTER_LEN + usize::from(at) % (sealed.len() - OUTER_LEN);
            let mut flipped = sealed.clone();
            flipped.data_mut()[at] ^= flip;
            prop_assert!(matches!(open_one(&mut rx, flipped, VID), Err(WireError::Esp(_))));

            let cut = usize::from(cut) % sealed.len();
            let mut short = sealed.clone();
            short.truncate(cut);
            prop_assert!(open_one(&mut rx, short.clone(), VID).is_err());
            short.extend_from_slice(&noise);
            let _ = open_one(&mut rx, short, VID);
            let _ = open_one(&mut rx, Packet::from_slice(&noise), VID);

            prop_assert_eq!(open_one(&mut rx, sealed, VID), Ok(fabric_frame(&payload)));
        }
    }
}
